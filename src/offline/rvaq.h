// Algorithm RVAQ (§4.3): progressive top-K over result sequences.
//
// RVAQ computes P_q from the materialized individual sequences (Eq. 12),
// then repeatedly draws the highest- and lowest-scoring unprocessed clips
// from the TBClip iterator, refining an upper bound (Eq. 13) and a lower
// bound (Eq. 14) for every candidate sequence. Two bound summaries — the
// K-th highest lower bound B_lo^K and the highest upper bound among the
// other sequences B_up^¬K — drive early termination (Eq. 15) and the
// dynamic skip set: a sequence whose upper bound sinks below B_lo^K can
// never enter the top-K, and one whose lower bound exceeds B_up^¬K is
// certainly in it; either way its remaining clips stop being accessed.
#ifndef VAQ_OFFLINE_RVAQ_H_
#define VAQ_OFFLINE_RVAQ_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/interval.h"
#include "common/rng.h"
#include "offline/query_view.h"
#include "offline/tbclip.h"
#include "storage/access_counter.h"

namespace vaq {
namespace offline {

// Resolves, per video, the set of clips an approximate pre-filter (the
// cascade proxy tier, src/cascade/) could not rule out. nullptr means
// the video is unconstrained (scan everything); an EMPTY set means the
// whole video is pruned before any table is bound. Implementations must
// be usable concurrently from multiple shards.
class ClipFilterProvider {
 public:
  virtual ~ClipFilterProvider() = default;
  virtual const IntervalSet* SurvivingClips(
      const std::string& video) const = 0;
};

// Outcome of an adaptive identification pass over one video's candidate
// sequences (the WITH CONFIDENCE δ path, implemented by bai::SequenceArms).
struct IdentifyOutcome {
  // Parallel to the candidate vector handed to Identify(): true for arms
  // that survive into the exact bound loop. At least k entries must be
  // true.
  std::vector<bool> keep;
  int64_t pulls = 0;                // Sampled clip scores drawn in total.
  int64_t arms_eliminated = 0;      // Arms with keep == false.
  bool stopped = false;             // Confidence reached (vs pull budget).
  double stopping_statistic = 0.0;  // GLR value at termination.
  std::vector<int64_t> pulls_per_arm;  // Certificate detail, same order.
};

// Identifies a superset (>= k) of the top-k candidate sequences by
// sampling clip scores instead of scanning them. Implementations draw
// every pull through `source`, which charges real random accesses for
// unknown entries and caches what it reads — so sampling both pays the
// honest access cost and warms the exact re-ranking that follows.
// Must be usable concurrently from multiple shards (stateless per call;
// all randomness derives from `seed`).
class SequenceIdentifier {
 public:
  virtual ~SequenceIdentifier() = default;
  virtual IdentifyOutcome Identify(const std::vector<Interval>& candidates,
                                   int64_t k, uint64_t seed,
                                   ClipScoreSource* source) const = 0;
};

// Per-video seed for RvaqOptions::identifier_seed, derived from the
// video NAME, never from loop position — so shard layout, visit order
// and thread count cannot move any video's pull streams. Its one caller
// under src/ is offline::ScopeToVideo (repository.h), the per-video step
// every ranked statement runs, on one video or fanned out.
inline uint64_t PerVideoIdentifierSeed(uint64_t base,
                                       std::string_view video) {
  return MixSeed(base, HashBytes(video));
}

struct RvaqOptions {
  int64_t k = 5;
  // The dynamic skip mechanism of §4.3; disabling it yields the paper's
  // RVAQ-noSkip baseline (only non-P_q clips are skipped).
  bool use_skip = true;
  // Finalize exact scores (and exact ordering) of the K winners by direct
  // random accesses after the bound loop terminates. When false, winners
  // are ordered by their lower bounds (the paper's cheapest mode, which
  // also skips clips of confirmed winners).
  bool exact_scores = true;
  // When true (default), bound refinement uses exact scores from *both*
  // cursors for both bounds: a clip processed as top also tightens its
  // sequence's lower bound and vice versa. This is required for the §4.3
  // claim that the bounds "converge to the exact values" as the iterator
  // drains — with strictly one-sided accounting a clip drained from the
  // top never leaves the other bound's unprocessed mass and ties can be
  // mis-ranked at exhaustion. The literal one-sided bookkeeping of the
  // paper's notation is kept as an ablation (set to false).
  bool two_sided_bounds = true;
  // Cascade pre-filter hooks (both nullptr on the exact path, which
  // keeps recall-1.0 execution byte-identical to a build without the
  // cascade subsystem):
  //  * `clip_filter` constrains THIS video's run: candidate sequences
  //    with no surviving clip are dropped from the bound loop before
  //    any access is charged. Retained sequences keep their full
  //    extent, so their scores and bounds are byte-identical to an
  //    unfiltered run.
  //  * `prefilter` is the statement-scope resolver ScopeToVideo
  //    consults per video; it is how one plan ships across shards (each
  //    node resolves locally).
  const IntervalSet* clip_filter = nullptr;
  const ClipFilterProvider* prefilter = nullptr;
  // Adaptive-sampling hook (WITH CONFIDENCE δ, src/bai/). nullptr on the
  // exact path, which keeps δ-absent/δ=0 execution byte-identical to a
  // build without the subsystem: no pull, no metric, no extra field is
  // touched. When set, Rvaq::Run identifies a surviving superset of the
  // top-k AFTER the cascade pre-filter (proxy prune first, then sample)
  // and runs the exact bound loop on the survivors only.
  const SequenceIdentifier* identifier = nullptr;
  // Per-video stream seed for `identifier` (see PerVideoIdentifierSeed).
  // A statement's options carry the query-level base; ScopeToVideo
  // re-derives it per video.
  uint64_t identifier_seed = 0;
};

// One ranked result sequence.
struct RankedSequence {
  Interval clips;
  double lower_bound = 0.0;
  double upper_bound = 0.0;
  // Exact score when RvaqOptions::exact_scores (or the baseline computed
  // it); otherwise NaN.
  double exact_score = 0.0;
  bool has_exact = false;
};

// Outcome of a top-K run (RVAQ or a baseline).
struct TopKResult {
  std::vector<RankedSequence> top;  // Best first.
  IntervalSet pq;                   // All candidate sequences.
  storage::AccessCounter accesses;  // Table accesses charged to the run.
  int64_t iterations = 0;           // TBClip invocations (RVAQ only).
  // Candidate sequences dropped by RvaqOptions::clip_filter before the
  // bound loop (always 0 on the exact path).
  int64_t candidates_pruned = 0;
  // Adaptive-sampling certificate (all zero whenever
  // RvaqOptions::identifier is null — the exact path never writes them).
  int64_t bai_pulls = 0;
  int64_t bai_arms_eliminated = 0;
  bool bai_stopped = false;
  double bai_stopping_statistic = 0.0;
};

// The buffers of RVAQ runs, owned by one ranked statement. A statement
// runs RVAQ once per video; every run through the same workspace resets
// these buffers instead of reallocating them, so after the first video a
// run allocates only where its output outgrows an earlier one. The
// workspace holds no state across runs (every buffer is rewritten before
// it is read) and nothing is shared between workspaces: each statement
// owns its own, so concurrent statements never contend.
class RvaqWorkspace {
 public:
  RvaqWorkspace() = default;
  RvaqWorkspace(const RvaqWorkspace&) = delete;
  RvaqWorkspace& operator=(const RvaqWorkspace&) = delete;

  // Storage for the current video's bound tables (BindByName's output
  // form writes into it); a run may also use tables held elsewhere.
  QueryTables* tables() { return &tables_; }

 private:
  friend class Rvaq;

  // Bound-tracking state of one candidate sequence (§4.3 notation).
  struct SeqState {
    Interval clips;
    double s_up;   // f over top-processed clips.
    double s_lo;   // f over bottom-processed clips.
    int64_t l_up;  // Clips not yet top-processed.
    int64_t l_lo;  // Clips not yet bottom-processed.
    double b_up;
    double b_lo;
    bool decided;  // Confirmed winner or confirmed loser.
  };

  QueryTables tables_;
  // The run's result; `top` and `pq` keep their capacity across runs.
  TopKResult result_;
  IntervalSet pq_cover_;    // ComputePq scratch.
  IntervalSet pq_scratch_;  // ComputePq scratch.
  std::vector<Interval> candidates_;
  std::vector<SeqState> seqs_;
  std::vector<bool> skip_;
  ClipScoreSource source_;
  TbClipIterator iterator_;
  // Per bound-loop iteration: lower bounds, the by-lower-bound order and
  // membership of the current top-K.
  std::vector<double> lows_;
  std::vector<size_t> order_;
  std::vector<bool> in_topk_;
  // Finalization: the winners (indices into seqs_, by lower bound), their
  // output rows and the by-exact-score permutation of those rows.
  std::vector<size_t> winners_;
  std::vector<RankedSequence> rows_;
  std::vector<size_t> row_order_;
  ExactScoreScratch exact_;
};

class Rvaq {
 public:
  // `tables` and `scoring` must outlive the object.
  Rvaq(const QueryTables* tables, const ScoringModel* scoring,
       RvaqOptions options);

  // Runs the full algorithm. Resets the bound tables' access counters at
  // entry so `accesses` reflects this run only.
  TopKResult Run() const;

  // The same run through `workspace`'s buffers. The result lives in the
  // workspace and is valid until its next run.
  const TopKResult& Run(RvaqWorkspace* workspace) const;

 private:
  const QueryTables* tables_;
  const ScoringModel* scoring_;
  RvaqOptions options_;
};

}  // namespace offline
}  // namespace vaq

#endif  // VAQ_OFFLINE_RVAQ_H_
