// End-to-end observability: a seeded SVAQD run with fault injection must
// mirror its ModelStats / OnlineResult accounting into the global metric
// registry exactly, and two identical runs must export byte-identical
// Prometheus and JSON snapshots of every logical family, while the wall
// span histogram records real time next to them.
#include <gtest/gtest.h>

#include <string>

#include "detect/models.h"
#include "fault/fault_plan.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "online/svaqd.h"
#include "synth/scenario.h"

namespace vaq {
namespace online {
namespace {

const synth::Scenario& FaultScenario() {
  static const synth::Scenario* scenario = [] {
    synth::ScenarioSpec spec;
    spec.name = "obs_integration";
    spec.minutes = 6;
    spec.fps = 30;
    spec.seed = 808;
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
    return new synth::Scenario(
        synth::Scenario::FromSpec(spec, "running", {"dog"}));
  }();
  return *scenario;
}

fault::FaultSpec FaultySpec() {
  fault::FaultSpec spec;
  spec.crash_rate = 0.1;
  spec.crash_len_units = 600;
  spec.timeout_rate = 0.05;
  spec.nan_score_rate = 0.01;
  spec.drop_clip_rate = 0.02;
  return spec;
}

// Resets the global registry and performs one seeded faulty run.
OnlineResult RunSeeded() {
  obs::MetricRegistry::Global().Reset();
  const synth::Scenario& sc = FaultScenario();
  static const fault::FaultPlan* plan =
      new fault::FaultPlan(FaultySpec(), 21);
  SvaqdOptions options;
  options.fault_plan = plan;
  options.missing_policy = MissingObsPolicy::kBackgroundPrior;
  detect::ModelBundle models = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 5);
  return Svaqd(sc.query(), sc.layout(), options)
      .Run(models.detector.get(), models.recognizer.get());
}

int64_t CounterValue(const std::string& name, const obs::Labels& labels) {
  return obs::MetricRegistry::Global().GetCounter(name, labels)->value();
}

TEST(ObsIntegrationTest, RegistryMirrorsEngineAndModelAccounting) {
  const OnlineResult result = RunSeeded();
  ASSERT_GT(result.clips_processed, 0);
  ASSERT_GT(result.detector_stats.faults_injected, 0);

  EXPECT_EQ(CounterValue("vaq_clips_processed_total", {{"engine", "svaqd"}}),
            result.clips_processed);
  EXPECT_EQ(CounterValue("vaq_clips_degraded_total", {{"engine", "svaqd"}}),
            result.degraded_clips);
  EXPECT_EQ(CounterValue("vaq_clips_dropped_total", {{"engine", "svaqd"}}),
            result.dropped_clips);
  EXPECT_EQ(CounterValue("vaq_gap_policy_activations_total",
                         {{"engine", "svaqd"},
                          {"policy", "background_prior"}}),
            result.degraded_clips);

  // Model invocations, by labeled family.
  EXPECT_EQ(CounterValue("vaq_detector_inferences_total",
                         {{"model", "MaskRCNN"}}),
            result.detector_stats.inferences);
  EXPECT_EQ(CounterValue("vaq_recognizer_inferences_total",
                         {{"model", "I3D"}}),
            result.recognizer_stats.inferences);

  // Resilience wrappers: retries and breaker transitions per domain.
  EXPECT_EQ(CounterValue("vaq_model_retries_total",
                         {{"domain", "detector"}, {"model", "MaskRCNN"}}),
            result.detector_stats.retries);
  EXPECT_EQ(CounterValue("vaq_model_retries_total",
                         {{"domain", "recognizer"}, {"model", "I3D"}}),
            result.recognizer_stats.retries);
  EXPECT_EQ(CounterValue("vaq_breaker_transitions_total",
                         {{"domain", "detector"},
                          {"model", "MaskRCNN"},
                          {"to", "open"}}),
            result.detector_stats.breaker_trips);

  // Outcome-labeled call counters partition faults_injected exactly:
  // every injected fault was a timeout, an outage hit or a garbage score.
  const auto outcome = [](const char* domain, const char* model,
                          const char* kind) {
    return CounterValue("vaq_model_calls_total", {{"domain", domain},
                                                  {"model", model},
                                                  {"outcome", kind}});
  };
  EXPECT_EQ(outcome("detector", "MaskRCNN", "timeout") +
                outcome("detector", "MaskRCNN", "outage") +
                outcome("detector", "MaskRCNN", "invalid_score"),
            result.detector_stats.faults_injected);
  EXPECT_EQ(outcome("detector", "MaskRCNN", "abandoned") +
                outcome("detector", "MaskRCNN", "breaker_open"),
            result.detector_stats.failures);

  // Per-clip latency histogram saw every clip, in simulated time, and
  // the ladder reaches every clip's cost, retries included: no clip
  // lands above the top finite bound.
  obs::Histogram* clip_ms = obs::MetricRegistry::Global().GetHistogram(
      "vaq_clip_eval_simulated_ms", {{"engine", "svaqd"}});
  EXPECT_EQ(clip_ms->count(), result.clips_processed);
  EXPECT_EQ(clip_ms->bucket_count(obs::LatencyBucketsMs().size()), 0);
  EXPECT_DOUBLE_EQ(clip_ms->sum(), result.detector_stats.simulated_ms +
                                       result.recognizer_stats.simulated_ms);
}

TEST(ObsIntegrationTest, SeededRunsExportByteIdenticalSnapshots) {
  RunSeeded();
  const obs::Snapshot raw = obs::MetricRegistry::Global().TakeSnapshot();
  // The raw snapshot carries the run's wall time: the svaqd/run span.
  int64_t wall_spans = 0;
  for (const obs::Snapshot::Entry& entry : raw.entries) {
    if (entry.name == "vaq_wall_span_ms") wall_spans += entry.hist_count;
  }
  EXPECT_GT(wall_spans, 0);
  const obs::Snapshot s1 = obs::ExcludeSnapshot(raw, {});
  const std::string prom1 = obs::ExportPrometheus(s1);
  const std::string json1 = obs::ExportJson(s1);

  RunSeeded();
  const obs::Snapshot s2 =
      obs::ExcludeSnapshot(obs::MetricRegistry::Global().TakeSnapshot(), {});
  EXPECT_EQ(prom1, obs::ExportPrometheus(s2));
  EXPECT_EQ(json1, obs::ExportJson(s2));

  EXPECT_EQ(obs::JsonLintError(json1), "") << json1;
  EXPECT_NE(prom1.find("vaq_detector_inferences_total"), std::string::npos);
  EXPECT_NE(prom1.find("vaq_model_calls_total"), std::string::npos);
  EXPECT_NE(prom1.find("vaq_clip_eval_simulated_ms_bucket"),
            std::string::npos);
  EXPECT_NE(prom1.find("vaq_span_total{span=\"svaqd/run\"} 1"),
            std::string::npos);
  EXPECT_EQ(prom1.find("vaq_wall_"), std::string::npos);
}

}  // namespace
}  // namespace online
}  // namespace vaq
