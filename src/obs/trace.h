// Span-based tracing with a pluggable clock.
//
//   StatusOr<VideoIndex> Ingestor::Ingest(...) const {
//     VAQ_TRACE_SPAN("ingest/total");
//     ...
//   }
//
// A span measures the wall time between its construction and destruction
// and records it into the global registry's `vaq_span_ms{span="<name>"}`
// histogram plus `vaq_span_total{span="<name>"}` counter. Each
// VAQ_TRACE_SPAN call site owns a static `SpanSite` that resolves those
// two instruments when a span of the site first closes, so later closes
// do no registry lookup. Spans nest: a thread-local depth counter tracks
// containment, and when recording is enabled the tracer also keeps an
// in-memory list of closed spans (name, depth, start, duration) for tests
// and debugging.
//
// The clock is pluggable so tracing composes with simulated time: tests
// bind it to a `fault::SimClock` (span durations then reflect the
// deterministic simulated timeline), and one-shot tools bind it to a
// constant to keep metric exports byte-identical across runs. The
// default is the real steady clock. Opening and closing a span takes the
// tracer's mutex only while a clock is pinned or recording is on.
#ifndef VAQ_OBS_TRACE_H_
#define VAQ_OBS_TRACE_H_

#include <atomic>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace vaq {
namespace obs {

// One closed span, innermost-close order.
struct SpanRecord {
  std::string name;
  int depth = 0;  // 0 = outermost on its thread.
  double start_ms = 0.0;
  double duration_ms = 0.0;
};

class Tracer {
 public:
  using ClockFn = std::function<double()>;  // Milliseconds, monotone.

  static Tracer& Global();

  // Replaces the time source; nullptr restores the real steady clock.
  // Typical test binding: tracer.SetClock([&sim] { return sim.now_ms(); }).
  void SetClock(ClockFn clock);
  double NowMs() const;

  // When enabled, closed spans are appended to an internal buffer
  // (bounded at `kMaxRecords`; older spans win).
  void SetRecording(bool on);
  bool recording() const {
    return recording_.load(std::memory_order_acquire);
  }
  // Drains and returns the record buffer.
  std::vector<SpanRecord> TakeRecords();

  // Internal: called by Span.
  void RecordClosed(const char* name, int depth, double start_ms,
                    double duration_ms);

 private:
  static constexpr size_t kMaxRecords = 4096;

  // The span fast path reads these flags and locks mu_ only when one is
  // set; each is written under mu_.
  std::atomic<bool> clock_pinned_{false};
  std::atomic<bool> recording_{false};
  mutable std::mutex mu_;
  ClockFn clock_;  // Null = steady clock.
  std::vector<SpanRecord> records_;
};

class Counter;
class Histogram;

// One span call site: its name and the registry instruments its spans
// record into, resolved when the first span of the site closes. Sites are
// statics (VAQ_TRACE_SPAN declares one); a call site whose name varies at
// run time needs one site per name.
class SpanSite {
 public:
  // `name` must outlive the site (a string literal in practice).
  constexpr explicit SpanSite(const char* name) : name_(name) {}

  SpanSite(const SpanSite&) = delete;
  SpanSite& operator=(const SpanSite&) = delete;

  const char* name() const { return name_; }
  // Records one closed span into vaq_span_total / vaq_span_ms.
  void Record(double duration_ms);

 private:
  const char* name_;
  std::once_flag resolved_;
  Counter* total_ = nullptr;
  Histogram* ms_ = nullptr;
};

// RAII span of one site.
class Span {
 public:
  explicit Span(SpanSite* site);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanSite* site_;
  double start_ms_;
  int depth_;
};

}  // namespace obs
}  // namespace vaq

#define VAQ_TRACE_CONCAT_INNER_(a, b) a##b
#define VAQ_TRACE_CONCAT_(a, b) VAQ_TRACE_CONCAT_INNER_(a, b)
// Opens a span covering the rest of the enclosing scope. `name` must be a
// constant expression: the site is resolved once, whatever the caller.
#define VAQ_TRACE_SPAN(name)                                           \
  static constinit ::vaq::obs::SpanSite VAQ_TRACE_CONCAT_(             \
      vaq_trace_site_, __LINE__)(name);                                \
  ::vaq::obs::Span VAQ_TRACE_CONCAT_(vaq_trace_span_, __LINE__)(        \
      &VAQ_TRACE_CONCAT_(vaq_trace_site_, __LINE__))

#endif  // VAQ_OBS_TRACE_H_
