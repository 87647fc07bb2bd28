// Resilience sweep: query quality and runtime versus injected
// detector/recognizer outage rate, for each missing-observation policy.
//
// Expectation (see DESIGN.md "Failure model & degradation policies"):
// under the background-prior policy, F1 degrades monotonically and
// smoothly as the outage rate rises from 0% to 20% — no crashes, no
// cliffs. Assume-negative loses recall fastest; carry-last sits between.
// The fault schedules are coupled across rates (same plan seed), so the
// sweep is monotone by construction at the fault level; the table shows
// it also holds at the F1 level.
#include <chrono>
#include <vector>

#include "bench/bench_util.h"
#include "eval/metrics.h"
#include "fault/fault_plan.h"
#include "online/svaqd.h"
#include "synth/scenario.h"

namespace vaq {
namespace {

const char* PolicyName(online::MissingObsPolicy policy) {
  switch (policy) {
    case online::MissingObsPolicy::kAssumeNegative:
      return "assume-negative";
    case online::MissingObsPolicy::kCarryLast:
      return "carry-last";
    case online::MissingObsPolicy::kBackgroundPrior:
      return "background-prior";
  }
  return "?";
}

synth::Scenario MakeScenario() {
  synth::ScenarioSpec spec;
  spec.name = "resilience_bench";
  spec.minutes = 12;
  spec.fps = 30;
  spec.seed = 2024;
  synth::ActionTrackSpec action;
  action.name = "running";
  action.duty = 0.3;
  action.mean_len_frames = 1000;
  spec.actions.push_back(action);
  synth::ObjectTrackSpec dog;
  dog.name = "dog";
  dog.background_duty = 0.06;
  dog.mean_len_frames = 700;
  dog.coupled_action = "running";
  dog.cover_action_prob = 0.9;
  spec.objects.push_back(dog);
  return synth::Scenario::FromSpec(spec, "running", {"dog"});
}

struct SweepPoint {
  double f1 = 0.0;
  double precision = 0.0;
  double recall = 0.0;
  double algo_ms = 0.0;
  int64_t degraded = 0;
  int64_t dropped = 0;
  int64_t faults = 0;
  int64_t retries = 0;
  int64_t fallbacks = 0;
  int64_t breaker_trips = 0;
};

}  // namespace
}  // namespace vaq

int main() {
  using namespace vaq;
  const synth::Scenario scenario = MakeScenario();
  const IntervalSet truth = scenario.TruthClips();
  const std::vector<double> rates = {0.0, 0.025, 0.05, 0.10, 0.15, 0.20};
  const std::vector<online::MissingObsPolicy> policies = {
      online::MissingObsPolicy::kAssumeNegative,
      online::MissingObsPolicy::kCarryLast,
      online::MissingObsPolicy::kBackgroundPrior,
  };
  const std::vector<uint64_t> model_seeds = {5, 6, 7};

  bench::TablePrinter table(
      "Resilience — F1 and runtime vs injected outage rate",
      {"outage_rate", "policy", "F1", "precision", "recall", "degraded",
       "dropped", "faults", "retries", "fallbacks", "breaker_trips",
       "algo_ms"});
  std::vector<double> prior_f1_by_rate;

  for (const double rate : rates) {
    fault::FaultSpec spec;
    spec.crash_rate = rate;
    spec.crash_len_units = 600;  // 20 s outage windows at 30 fps.
    spec.drop_clip_rate = rate / 8.0;
    // One plan seed for the whole sweep: raising the rate only adds
    // faults, so the sweep is monotone at the schedule level.
    const fault::FaultPlan plan(spec, 1);

    for (const online::MissingObsPolicy policy : policies) {
      SweepPoint avg;
      for (const uint64_t seed : model_seeds) {
        online::SvaqdOptions options;
        options.fault_plan = &plan;
        options.missing_policy = policy;
        detect::ModelBundle models =
            detect::ModelBundle::MaskRcnnI3d(scenario.truth(), seed);
        const auto start = std::chrono::steady_clock::now();
        const online::OnlineResult result =
            online::Svaqd(scenario.query(), scenario.layout(), options)
                .Run(models.detector.get(), models.recognizer.get());
        avg.algo_ms += std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count();
        const eval::F1Result f1 =
            eval::FrameLevelF1(result.sequences, truth, scenario.layout());
        avg.f1 += f1.f1;
        avg.precision += f1.precision;
        avg.recall += f1.recall;
        avg.degraded += result.degraded_clips;
        avg.dropped += result.dropped_clips;
        detect::ModelStats stats = result.detector_stats;
        stats += result.recognizer_stats;
        avg.faults += stats.faults_injected;
        avg.retries += stats.retries;
        avg.fallbacks += stats.fallbacks;
        avg.breaker_trips += stats.breaker_trips;
      }
      const double n = static_cast<double>(model_seeds.size());
      table.AddRow({bench::Fmt("%.3f", rate), PolicyName(policy),
                    bench::Fmt("%.4f", avg.f1 / n),
                    bench::Fmt("%.4f", avg.precision / n),
                    bench::Fmt("%.4f", avg.recall / n),
                    bench::Fmt(avg.degraded / static_cast<int64_t>(n)),
                    bench::Fmt(avg.dropped / static_cast<int64_t>(n)),
                    bench::Fmt(avg.faults / static_cast<int64_t>(n)),
                    bench::Fmt(avg.retries / static_cast<int64_t>(n)),
                    bench::Fmt(avg.fallbacks / static_cast<int64_t>(n)),
                    bench::Fmt(avg.breaker_trips / static_cast<int64_t>(n)),
                    bench::Fmt("%.1f", avg.algo_ms / n)});
      if (policy == online::MissingObsPolicy::kBackgroundPrior) {
        prior_f1_by_rate.push_back(avg.f1 / n);
      }
    }
  }
  table.Print();

  // Degradation-shape check for the background-prior policy: F1 should
  // fall (or hold) as the outage rate rises, without cliffs.
  bool monotone = true;
  double max_step = 0.0;
  for (size_t i = 1; i < prior_f1_by_rate.size(); ++i) {
    const double step = prior_f1_by_rate[i - 1] - prior_f1_by_rate[i];
    if (step < -1e-3) monotone = false;  // A rise beyond seed noise.
    if (step > max_step) max_step = step;
  }
  std::printf("background-prior F1 monotone non-increasing: %s "
              "(largest single-step drop %.4f)\n",
              monotone ? "yes" : "NO", max_step);
  return 0;
}
