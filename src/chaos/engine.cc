#include "chaos/engine.h"

#include <utility>

#include "chaos/shrink.h"

namespace vaq {
namespace chaos {
namespace {

void MergeCoverage(const TrialResult& trial, ChaosReport* report) {
  for (const auto& [key, count] : trial.coverage) {
    report->coverage[key] += count;
  }
}

}  // namespace

StatusOr<ChaosReport> RunChaos(const ChaosOptions& options) {
  ChaosReport report;
  IndexCache cache;
  const TrialOptions trial_options{.canary = options.canary};

  for (int64_t trial = 0; trial < options.trials; ++trial) {
    const TrialScenario scenario = MakeTrialScenario(options.seed, trial);
    const Schedule schedule = GenerateSchedule(scenario, options.seed);
    VAQ_ASSIGN_OR_RETURN(const TrialResult result,
                         RunTrial(scenario, schedule, trial_options, &cache));
    ++report.trials_run;
    ++report.trials_per_phase[PhaseName(scenario.phase)];
    MergeCoverage(result, &report);
    if (options.progress != nullptr) options.progress(result);
    if (!result.failed()) continue;

    // First failure: freeze it, shrink it, package the reproducer.
    report.failure = result.violations;
    report.failed_trial = trial;
    report.failed_phase = scenario.phase;
    report.original_events = static_cast<int64_t>(schedule.size());

    Schedule minimal = schedule;
    if (options.shrink && !schedule.empty()) {
      const ScheduleFails fails =
          [&](const Schedule& candidate) -> StatusOr<bool> {
        VAQ_ASSIGN_OR_RETURN(
            const TrialResult rerun,
            RunTrial(scenario, candidate, trial_options, &cache));
        return rerun.failed();
      };
      VAQ_ASSIGN_OR_RETURN(const ShrinkResult shrunk,
                           DdminSchedule(schedule, fails));
      minimal = shrunk.minimal;
      report.shrink_runs = shrunk.runs;
      if (minimal.size() != schedule.size()) {
        // The reported violations must describe the schedule we ship:
        // a subset of events can fail a *different* oracle than the
        // full draw did.
        VAQ_ASSIGN_OR_RETURN(
            const TrialResult minimal_run,
            RunTrial(scenario, minimal, trial_options, &cache));
        if (minimal_run.failed()) report.failure = minimal_run.violations;
      }
    }

    report.reproducer.seed = options.seed;
    report.reproducer.trial = trial;
    report.reproducer.canary = options.canary;
    report.reproducer.events = minimal;
    report.replay_json = ReplayToJson(report.reproducer);

    // Round-trip the reproducer through its own JSON and re-run it: the
    // emitted document — not the in-memory schedule — must reproduce the
    // exact violations, or the artifact we hand the user is worthless.
    VAQ_ASSIGN_OR_RETURN(const ReplaySpec parsed,
                         ReplayFromJson(report.replay_json));
    VAQ_ASSIGN_OR_RETURN(
        const TrialResult rerun,
        RunTrial(MakeTrialScenario(parsed.seed, parsed.trial), parsed.events,
                 trial_options, &cache));
    report.replay_confirmed = rerun.violations == report.failure;
    break;
  }
  return report;
}

StatusOr<ChaosReport> RunReplay(const ReplaySpec& spec,
                                const ChaosOptions& options) {
  ChaosReport report;
  IndexCache cache;
  const TrialOptions trial_options{.canary = spec.canary};

  const TrialScenario scenario = MakeTrialScenario(spec.seed, spec.trial);
  VAQ_ASSIGN_OR_RETURN(const TrialResult result,
                       RunTrial(scenario, spec.events, trial_options, &cache));
  report.trials_run = 1;
  ++report.trials_per_phase[PhaseName(scenario.phase)];
  MergeCoverage(result, &report);
  if (options.progress != nullptr) options.progress(result);
  if (result.failed()) {
    report.failure = result.violations;
    report.failed_trial = spec.trial;
    report.failed_phase = scenario.phase;
    report.original_events = static_cast<int64_t>(spec.events.size());
    report.reproducer = spec;
    report.replay_json = ReplayToJson(spec);
    report.replay_confirmed = true;  // This run IS the replay.
  }
  return report;
}

}  // namespace chaos
}  // namespace vaq
