// Algorithm SVAQD (§3.3): SVAQ with dynamic background-probability
// estimation.
//
// Each predicate carries an edge-corrected exponential-kernel rate
// estimator (Eq. 6 / KernelRateEstimator). After each processed clip the
// estimators ingest the clip's per-predicate positive-prediction counts,
// and the critical values are re-derived from the current estimates
// whenever they have drifted materially. This removes the dependence on
// the initial background probability, adapts to sudden rate changes
// (concept drift) and ignores gradual ones, as Figure 2 of the paper
// demonstrates. SVAQD is the online engine (online/streaming.h) with
// adaptation on.
#ifndef VAQ_ONLINE_SVAQD_H_
#define VAQ_ONLINE_SVAQD_H_

#include <cstdint>

#include "fault/fault_plan.h"
#include "online/svaq.h"
#include "video/cnf_query.h"

namespace vaq {
namespace online {

// What a failed (or dropped) observation contributes to a predicate's
// clip count. Each missing occurrence unit is filled with an expected
// positive probability; the predicate fires when
// observed_count + missing * fallback >= k_crit. A detector outage thus
// degrades F1 smoothly instead of hard-flipping every affected clip to
// negative (or fabricating positives).
enum class MissingObsPolicy {
  // Fallback 0: a missing unit never contributes. Conservative — recall
  // collapses during long outages, precision is protected.
  kAssumeNegative,
  // Fallback = the predicate's positive rate in the most recent clip with
  // successful observations. Tracks the local signal level; best when
  // outages are short relative to sequences.
  kCarryLast,
  // Fallback = the kernel estimator's current background rate (the same
  // p̂ that drives the critical values). The principled neutral choice:
  // a missing unit behaves like background, so outages neither open
  // spurious sequences nor veto clips whose observed units already carry
  // the evidence.
  kBackgroundPrior,
};

// Which clips feed the background estimators.
enum class UpdatePolicy {
  // Per-predicate signal suppression (the robust default): a predicate's
  // estimator ingests a clip only when that predicate's positive count is
  // below an eighth of the clip's occurrence units. Clips where the predicate is
  // plainly satisfied (count near the model's TPR) are excluded, so the
  // estimator converges to the model's false-positive rate — the
  // background probability Eq. 5 actually calls for — regardless of how
  // much of the stream satisfies the predicate, and regardless of the
  // initial p0 (a CFAR-style guard; see DESIGN.md).
  kSelfExcluding,
  // Only clips whose query indicator is 0 (current belief of background).
  kNegativeClipsOnly,
  // Every evaluated clip (the §3.3 text: smooth all observed events).
  // Appropriate when query-positive segments are rare.
  kAllClips,
  // Only clips whose query indicator is 1 (the literal condition printed
  // in Algorithm 3, line 7). Provided for fidelity and ablation.
  kPositiveClipsOnly,
};

struct SvaqdOptions {
  SvaqOptions base;
  // The switch between the two algorithms. true: SVAQD, the critical
  // values follow each predicate's kernel background estimate. false:
  // SVAQ, each predicate keeps the static critical value of its p0 for the
  // whole stream; the estimators never update (update_policy, burst_aware
  // and probe_period have no effect) and no clip is probed.
  bool adaptive = true;
  // Pseudo-observation weight of the initial probability (the prior washes
  // out as real observations accumulate).
  double prior_weight = 30;
  UpdatePolicy update_policy = UpdatePolicy::kSelfExcluding;
  // Calibrate critical values for Markov-dependent (bursty) prediction
  // noise instead of iid trials (§3.2 footnote 7). The burstiness is
  // estimated online from the overdispersion of background clip counts:
  // the design effect D = Var(count) / (w p (1-p)) of a two-state chain
  // is (1+rho)/(1-rho), so rho = (D-1)/(D+1); critical values then come
  // from scanstat::MarkovCriticalValue. Costs a little recall when noise
  // is truly iid, buys back precision when detectors flicker in bursts
  // (see bench_ablation_burst).
  bool burst_aware = false;
  // Every `probe_period`-th clip is evaluated without short-circuiting so
  // that predicates late in the evaluation order still accumulate
  // background observations (otherwise a predicate that is usually
  // short-circuited away would starve its estimator and keep its initial
  // p0 forever). Costs a bounded amount of extra inference; 0 disables
  // probing.
  int64_t probe_period = 8;

  // --- Fault injection & graceful degradation (see src/fault/) ----------
  // When non-null, every model call is routed through a detect::Resilient*
  // wrapper driven by this plan (deadlines, retries, circuit breaker; the
  // detect::k* constants in detect/resilient.h) and failed observations
  // are filled by `missing_policy`. Not owned; must outlive the engine.
  // Null (the default) keeps the original zero-overhead path — outputs
  // are bit-identical to a fault-free build.
  const fault::FaultPlan* fault_plan = nullptr;
  MissingObsPolicy missing_policy = MissingObsPolicy::kBackgroundPrior;
};

// SVAQD per Algorithm 3, over a whole (finite) video: pushes every clip
// of the layout through one StreamingSvaqd and collects the result.
class Svaqd {
 public:
  Svaqd(QuerySpec query, VideoLayout layout, SvaqdOptions options);
  // A general CNF query (§2, footnotes 3-4).
  Svaqd(CnfQuery query, VideoLayout layout, SvaqdOptions options);

  // `detector` is required when the query has an object predicate,
  // `recognizer` when it has an action predicate.
  OnlineResult Run(detect::ObjectDetector* detector,
                   detect::ActionRecognizer* recognizer) const;

  const SvaqdOptions& options() const { return options_; }

 private:
  CnfQuery query_;
  VideoLayout layout_;
  SvaqdOptions options_;
};

}  // namespace online
}  // namespace vaq

#endif  // VAQ_ONLINE_SVAQD_H_
