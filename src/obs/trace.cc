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

thread_local int g_span_depth = 0;

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

void Tracer::SetRecording(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  recording_.store(on, std::memory_order_release);
  if (!on) records_.clear();
}

std::vector<SpanRecord> Tracer::TakeRecords() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  out.swap(records_);
  return out;
}

void Tracer::RecordClosed(const char* name, int depth, double start_ms,
                          double duration_ms) {
  if (!recording()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (!recording() || records_.size() >= kMaxRecords) return;
  records_.push_back(SpanRecord{name, depth, start_ms, duration_ms});
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
    : site_(site),
      start_ms_(Tracer::Global().NowMs()),
      depth_(g_span_depth++) {}

Span::~Span() {
  --g_span_depth;
  Tracer& tracer = Tracer::Global();
  const double duration = tracer.NowMs() - start_ms_;
  site_->Record(duration);
  tracer.RecordClosed(site_->name(), depth_, start_ms_, duration);
}

}  // namespace obs
}  // namespace vaq
