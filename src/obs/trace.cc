#include "obs/trace.h"

#include <chrono>

#include "obs/metrics.h"

namespace vaq {
namespace obs {
namespace {

double SteadyNowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer& Tracer::Global() {
  static Tracer* const tracer = new Tracer();
  return *tracer;
}

void Tracer::SetClock(ClockFn clock) {
  std::lock_guard<std::mutex> lock(mu_);
  clock_ = std::move(clock);
  clock_pinned_.store(clock_ != nullptr, std::memory_order_release);
}

double Tracer::NowMs() const {
  if (clock_pinned_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(mu_);
    if (clock_) return clock_();
  }
  return SteadyNowMs();
}

void SpanSite::Record(double duration_ms) {
  std::call_once(resolved_, [this] {
    MetricRegistry& registry = MetricRegistry::Global();
    total_ = registry.GetCounter("vaq_span_total", {{"span", name_}});
    ms_ = registry.GetHistogram("vaq_span_ms", DefaultLatencyBucketsMs(),
                                {{"span", name_}});
  });
  total_->Increment();
  ms_->Observe(duration_ms);
}

Span::Span(SpanSite* site)
    : site_(site), start_ms_(Tracer::Global().NowMs()) {}

Span::~Span() { site_->Record(Tracer::Global().NowMs() - start_ms_); }

}  // namespace obs
}  // namespace vaq
