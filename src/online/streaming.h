// The online engine: Algorithm 2's per-clip query indicator over a push
// stream, with static (SVAQ, §3.1) or kernel-estimated (SVAQD, §3.3)
// critical values.
//
// A deployed monitoring system receives the stream clip by clip and must
// report result sequences *as they form* (§1: "query results have to be
// reported as the video streams"). `StreamingSvaqd` exposes exactly that
// contract:
//
//   StreamingSvaqd stream(query, layout, options, [](const auto& event) {
//     if (event.kind == SequenceEvent::Kind::kClosed) Alert(event.sequence);
//   });
//   while (camera.HasClip()) stream.PushClip(&detector, &recognizer);
//   stream.Finish();
//
// The query is a conjunction of disjunctive clauses (§2, footnotes 3-4):
// a clause fires on a clip when any of its literals' scan-statistic
// indicators fires, and the clip satisfies the query when every clause
// fires. A conjunctive QuerySpec is the CNF of unit clauses, objects
// first, so its predicates are evaluated in Algorithm 2's order.
// Evaluation short-circuits at both levels (a firing literal ends its
// clause, a failed clause ends the clip), and each distinct literal is
// counted at most once per clip against its own critical value.
//
// SvaqdOptions::adaptive chooses the algorithm. Off, every literal keeps
// its p0-derived critical value (SVAQ). On, each literal's kernel
// background estimator ingests the clip's counts and its critical value
// follows the estimate (SVAQD), and every probe_period-th clip is
// evaluated in full so literals that are usually short-circuited away
// stay fed. Svaq::Run and Svaqd::Run are loops over PushClip.
//
// Events fire with one-clip latency for closures (a sequence is known to
// have ended only when the first negative clip after it is seen, per
// Eq. 4's maximality requirement) and immediately for openings and
// extensions.
#ifndef VAQ_ONLINE_STREAMING_H_
#define VAQ_ONLINE_STREAMING_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "online/svaqd.h"
#include "video/cnf_query.h"

namespace vaq {
namespace online {

// A change in the set of result sequences.
struct SequenceEvent {
  enum class Kind {
    kOpened,    // A new sequence started at `sequence.lo` (== clip).
    kExtended,  // The open sequence grew to include `clip`.
    kClosed,    // The sequence [sequence.lo, sequence.hi] is final.
    kGap,       // `clip` had missing observations (fault injection):
                // indicators around it are degraded-confidence. Emitted
                // before the clip's open/extend/close event, if any.
  };
  Kind kind = Kind::kOpened;
  Interval sequence;
  ClipIndex clip = 0;  // The clip whose processing triggered the event.
};

class StreamingSvaqd {
 public:
  using Callback = std::function<void(const SequenceEvent&)>;

  // Layout of the SnapshotState blob, stored with each standing query's
  // blob by the serving layer. Layouts 1 and 2 are retired (DESIGN.md
  // §10).
  static constexpr uint32_t kBlobLayout = 3;

  // `layout` fixes the segmentation and the design horizon (its
  // num_frames bounds the stream; push at most NumClips() clips).
  StreamingSvaqd(QuerySpec query, VideoLayout layout, SvaqdOptions options,
                 Callback callback);
  StreamingSvaqd(CnfQuery query, VideoLayout layout, SvaqdOptions options,
                 Callback callback);
  ~StreamingSvaqd();

  StreamingSvaqd(const StreamingSvaqd&) = delete;
  StreamingSvaqd& operator=(const StreamingSvaqd&) = delete;

  // Processes the next clip of the stream (clip indices advance
  // implicitly) and returns its query indicator. `detector` is required
  // when the query has an object literal, `recognizer` when it has an
  // action literal. A rejected push changes nothing: kFailedPrecondition
  // after Finish(), kOutOfRange past the layout's clip count, and
  // kInvalidArgument for a missing model or, with fault injection, for a
  // model instance other than the first push's (the resilience state is
  // bound to it).
  StatusOr<bool> PushClip(detect::ObjectDetector* detector,
                          detect::ActionRecognizer* recognizer);

  // Skips the next clip without invoking any model: the caller (e.g. the
  // serving layer's cascade prefilter, src/cascade/) already knows the
  // clip cannot satisfy the query. Behaves like a clip whose query
  // indicator is false — an open sequence closes, the stream cursor and
  // the virtual clock advance — but performs no observation and no
  // adaptive update. Returns false, or the same errors as PushClip.
  StatusOr<bool> PushPrunedClip();

  // Ends the stream, closing any open sequence.
  void Finish();

  // Clips processed with at least one missing observation / lost
  // wholesale (nonzero only under fault injection).
  int64_t degraded_clips() const { return degraded_clips_; }
  int64_t dropped_clips() const { return dropped_clips_; }

  // Clips pushed so far; the next PushClip processes this index.
  ClipIndex next_clip() const { return next_clip_; }
  bool finished() const { return finished_; }
  // All sequences closed so far (plus the open one only after Finish()).
  const IntervalSet& sequences() const { return sequences_; }
  // Distinct literals in first-appearance order, and their current
  // critical values.
  std::vector<Literal> literals() const;
  std::vector<int64_t> kcrit() const;

  // Serializes the engine's complete mutable state — stream cursor, open
  // run, closed sequences, per-literal kernel estimators and critical
  // values, simulated clock, and the resilience wrappers' retry/breaker
  // state — as a ckpt::Serializer blob of layout kBlobLayout. Restoring it
  // on a freshly constructed engine with the identical (query, layout,
  // options) resumes the exact trajectory: pushing the remaining clips
  // yields bit-identical indicators, sequences and stats deltas.
  std::string SnapshotState() const;
  // kFailedPrecondition unless this engine is fresh (no clips pushed);
  // kCorruption / kInvalidArgument when the blob is damaged or shaped for
  // a different query.
  Status RestoreState(const std::string& blob);

 private:
  struct State;  // Per-literal and resilience state (internal).

  Status CheckCanPush() const;
  // Counts literal `i` on `clip` (all units missing when `dropped`).
  void Observe(size_t i, ClipIndex clip, bool dropped,
               detect::ObjectDetector* detector,
               detect::ActionRecognizer* recognizer);
  // Whether literal `i`'s indicator fires on the clip just observed.
  bool Fires(size_t i) const;
  // Carry-last tracking, background-estimator feeding and lazy
  // critical-value recomputation after a clip with indicator `positive`.
  void UpdateAdaptiveState(bool positive);
  // Closes the open run, if any, as ending at clip `last`; the event
  // reports clip `reported_at`.
  void CloseOpenRun(ClipIndex last, ClipIndex reported_at);

  VideoLayout layout_;
  SvaqdOptions options_;
  Callback callback_;
  std::unique_ptr<State> state_;
  IntervalSet sequences_;
  ClipIndex next_clip_ = 0;
  ClipIndex open_start_ = -1;  // Start of the currently open run, or -1.
  bool finished_ = false;
  int64_t degraded_clips_ = 0;
  int64_t dropped_clips_ = 0;
};

}  // namespace online
}  // namespace vaq

#endif  // VAQ_ONLINE_STREAMING_H_
