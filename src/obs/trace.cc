#include "obs/trace.h"

#include "obs/metrics.h"

namespace vaq {
namespace obs {

void SpanSite::Record(double duration_ms) {
  std::call_once(resolved_, [this] {
    MetricRegistry& registry = MetricRegistry::Global();
    total_ = registry.GetCounter("vaq_span_total", {{"span", name_}});
    ms_ = registry.GetHistogram("vaq_wall_span_ms", {{"span", name_}});
  });
  total_->Increment();
  ms_->Observe(duration_ms);
}

Span::Span(SpanSite* site)
    : site_(site), start_(std::chrono::steady_clock::now()) {}

Span::~Span() {
  site_->Record(std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start_)
                    .count());
}

}  // namespace obs
}  // namespace vaq
