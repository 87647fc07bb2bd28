// Span-based wall-time tracing: the library's only clock.
//
//   StatusOr<VideoIndex> Ingestor::Ingest(...) const {
//     VAQ_TRACE_SPAN("ingest/total");
//     ...
//   }
//
// A span measures the steady-clock time between its construction and
// destruction and records it into the global registry's
// `vaq_wall_span_ms{span="<name>"}` histogram plus
// `vaq_span_total{span="<name>"}` counter. Each VAQ_TRACE_SPAN call site
// owns a static `SpanSite` that resolves those two instruments when a
// span of the site first closes, so later closes do no registry lookup.
//
// The counter counts events, so it is logical and deterministic. The
// histogram is a wall family (`IsWallFamily`): identity checks compare
// `ExcludeSnapshot` output, which leaves it out, and checkpoints do not
// carry it. No clock is ever pinned.
//
// What a span may time: a statement, a batch engine run or an ingest,
// never a per-video, per-clip or per-row step. Spans are always on, and
// an open and close costs about 0.1 us (two steady-clock reads, the
// counter and a histogram update; the `trace_span` row of
// bench_micro_kernels measures it), while one RVAQ run on one video
// takes 1-2 us and its phases less. A span inside such a step would be
// a measurable share of the statement it belongs to, paid once per
// video of the corpus.
#ifndef VAQ_OBS_TRACE_H_
#define VAQ_OBS_TRACE_H_

#include <chrono>
#include <mutex>

namespace vaq {
namespace obs {

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

  // Records one closed span into vaq_span_total / vaq_wall_span_ms.
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
  std::chrono::steady_clock::time_point start_;
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
