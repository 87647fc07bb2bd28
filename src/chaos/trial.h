// One chaos trial: reference run vs. tortured run, oracle verdicts.
//
// RunTrial executes the trial's phase twice. The *reference* run sees
// the scenario's environment faults (deterministic model degradation)
// but none of the schedule's adversarial events; the *chaos* run
// additionally suffers every schedule event — crash/recover cycles,
// torn advances, snapshot corruption, node kills, partitions — each of
// which the stack documents as result-transparent. The oracles check
// that documentation:
//
//   1. Byte-identity: described results and logical vaq_* metrics
//      (vaq_ckpt_* excluded — durability bookkeeping legitimately
//      differs) match the reference exactly.
//   2. Progress: the session ends having advanced exactly the planned
//      number of clips; recovery restores positions exactly (a torn
//      advance's WAL record counts once, on replay). The cluster gather
//      runs under a deterministic step-budget watchdog, so a hang or
//      livelock is a kDeadlineExceeded *failure*, not a test timeout.
//   3. Status hygiene: every operation returns OK, except a cluster
//      query under availability faults, which may return the documented
//      kUnavailable. Anything else — kInternal, kDeadlineExceeded, a
//      silent wrong answer — is a violation.
//   4. Recovery-counter consistency: each recovery increments
//      vaq_ckpt_recoveries_total exactly once; vaq_ckpt_corrupt_total
//      equals the snapshots the recovery actually rejected, and a
//      corrupted newest snapshot MUST be rejected (never silently
//      restored).
//
// Oracle breaches are reported as `violations` strings (stable text —
// shrinking compares them), not as error statuses; a non-OK RunTrial
// status means the harness itself could not run the trial.
#ifndef VAQ_CHAOS_TRIAL_H_
#define VAQ_CHAOS_TRIAL_H_

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "chaos/scenario.h"
#include "chaos/schedule.h"
#include "common/status.h"
#include "storage/catalog.h"
#include "synth/scenario.h"

namespace vaq {
namespace chaos {

struct TrialOptions {
  // The test-only injected bug: after every successful recovery the
  // session re-applies one extra clip advance without accounting for it
  // — exactly the double-apply a log-after-apply WAL would cause. The
  // byte-identity and progress oracles must catch it, and shrinking
  // must reduce any schedule that triggers it to a single crash event.
  bool canary = false;
};

struct TrialResult {
  int64_t trial = 0;
  Phase phase = Phase::kStanding;
  std::vector<std::string> violations;  // Empty = every oracle held.
  // Fault/event coverage accounting, merged across trials by RunChaos
  // and histogrammed by bench_chaos. Keys: "event.<kind>" (schedule
  // events executed), "event.skipped.<kind>", "env.<fault>" (scheduled
  // environment fault points inside the trial horizon), "net.*" /
  // "failovers" (observed transport faults).
  std::map<std::string, int64_t> coverage;

  bool failed() const { return !violations.empty(); }
};

// Cross-trial cache of ingested video indexes and generated scenarios.
// ChaosScenario(index, minutes) is a pure function and model seeds are
// drawn from a tiny set, so a 200-trial sweep touches a handful of
// distinct (index, minutes, model_seed) ingests; caching them is what
// keeps a sweep CI-sized. Not thread-safe.
class IndexCache {
 public:
  const synth::Scenario& Scenario(int index, int minutes);
  StatusOr<const storage::VideoIndex*> Index(int index, int minutes,
                                             uint64_t model_seed);

 private:
  std::map<std::pair<int, int>, synth::Scenario> scenarios_;
  std::map<std::tuple<int, int, uint64_t>, storage::VideoIndex> indexes_;
};

// Runs one trial. Resets the global metric registry (both runs start
// from a clean "process"); callers own no metric state across this
// call.
StatusOr<TrialResult> RunTrial(const TrialScenario& scenario,
                               const Schedule& schedule,
                               const TrialOptions& options,
                               IndexCache* cache);

}  // namespace chaos
}  // namespace vaq

#endif  // VAQ_CHAOS_TRIAL_H_
