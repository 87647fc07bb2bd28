// The chaos sweep driver: trials, shrinking, reproducers, replay.
//
// `RunChaos` executes N trials, each a pure function of (seed, trial):
// draw a scenario (chaos/scenario.h), draw a fault schedule
// (chaos/schedule.h), run the oracles (chaos/trial.h). The sweep stops
// at the first oracle violation, delta-debugs the offending schedule
// down to a 1-minimal reproducer (chaos/shrink.h), re-runs the minimal
// schedule to confirm it still fails with the same violations, and
// packages the whole thing as a ReplaySpec JSON document — paste it
// into `vaqctl chaos --replay repro.json` and the failure reproduces
// byte-identically on any machine, because nothing in a trial reads a
// wall clock or an OS RNG.
//
// `RunReplay` is the other direction: regenerate the scenario from the
// spec's (seed, trial), substitute its (possibly shrunk, possibly
// hand-edited) event list for the generated schedule, run once.
#ifndef VAQ_CHAOS_ENGINE_H_
#define VAQ_CHAOS_ENGINE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "chaos/scenario.h"
#include "chaos/schedule.h"
#include "chaos/trial.h"
#include "common/status.h"

namespace vaq {
namespace chaos {

struct ChaosOptions {
  int64_t trials = 20;
  uint64_t seed = 1;
  // Arm the injected canary bug (TrialOptions::canary) — the harness's
  // own acceptance test: the sweep MUST fail, shrink to a single crash
  // event and replay identically.
  bool canary = false;
  // Shrink a failing schedule before reporting (disable to see the raw
  // draw).
  bool shrink = true;
  // Progress callback for CLI output; null = silent.
  void (*progress)(const TrialResult&) = nullptr;
};

// One sweep's outcome. `failure` is empty when every trial passed.
struct ChaosReport {
  int64_t trials_run = 0;
  std::map<std::string, int64_t> trials_per_phase;  // Keyed by PhaseName.
  // Union of every trial's coverage counters (chaos/trial.h).
  std::map<std::string, int64_t> coverage;

  // First failing trial, when any.
  std::vector<std::string> failure;  // Its oracle violations.
  int64_t failed_trial = -1;
  Phase failed_phase = Phase::kStanding;
  int64_t original_events = 0;  // Schedule size before shrinking.
  int64_t shrink_runs = 0;      // Trials spent shrinking.
  ReplaySpec reproducer;        // Minimal schedule, ready to serialize.
  std::string replay_json;      // ReplayToJson(reproducer).
  // The minimal schedule re-run: true when its violations matched the
  // original failure's exactly (the reproducer is faithful).
  bool replay_confirmed = false;

  bool failed() const { return !failure.empty(); }
};

// Runs the sweep. A non-OK status means the harness itself broke (an
// ingest failed, a store call errored) — distinct from an oracle
// violation, which is reported through the ChaosReport.
StatusOr<ChaosReport> RunChaos(const ChaosOptions& options);

// Re-runs one trial from a reproducer spec. The report carries the
// trial's violations (if it still fails) and coverage; shrinking is not
// re-applied (the spec's event list is already the schedule of record).
StatusOr<ChaosReport> RunReplay(const ReplaySpec& spec,
                                const ChaosOptions& options);

}  // namespace chaos
}  // namespace vaq

#endif  // VAQ_CHAOS_ENGINE_H_
