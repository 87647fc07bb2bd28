// Elastic shard rebalancing determinism: split/merge churn may change
// transport topology, but never what a query returns. The oracle is
// byte-identity — described top lists and the layout-invariant logical
// vaq_* families (LayoutInvariantMetricPrefixes below) must match the
// static layout exactly, before, during and after rebalancing, for the
// same seed.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/coordinator.h"
#include "detect/models.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "offline/ingest.h"
#include "offline/repository.h"
#include "offline/scoring.h"
#include "tools/pipeline_setup.h"

namespace vaq {
namespace cluster {
namespace {

constexpr int kVideos = 4;
constexpr uint64_t kSeed = 515;
constexpr int64_t kK = 4;

// Metric-family prefixes whose values are shard-layout-invariant for a
// clean (fault-free) run: engine-level work happens exactly once per
// video per query no matter which shard owns the video, and per-query
// outcome counts (vaq_cluster_queries_total, vaq_cascade_plans_total)
// don't depend on the layout at all. Transport families
// (vaq_cluster_batches/net/answer_ms) and latency gauges built on
// answer_ms are deliberately absent — they measure the layout itself.
const std::vector<std::string>& LayoutInvariantMetricPrefixes() {
  static const std::vector<std::string> prefixes = {
      "vaq_bai_arms_eliminated_total",
      "vaq_bai_pulls_total",
      "vaq_bai_stops_total",
      "vaq_cascade_candidates_pruned_total",
      "vaq_cascade_plans_total",
      "vaq_cascade_videos_pruned_total",
      "vaq_clip_eval_simulated_ms",
      "vaq_clips_degraded_total",
      "vaq_clips_dropped_total",
      "vaq_clips_processed_total",
      "vaq_cluster_queries_total",
      "vaq_model_calls_total",
      "vaq_rvaq_iterations_total",
      "vaq_storage_accesses_total",
  };
  return prefixes;
}

const offline::Repository& DemoRepository() {
  static const offline::Repository* const repo = [] {
    auto* r = new offline::Repository();
    offline::PaperScoring scoring;
    for (int i = 0; i < kVideos; ++i) {
      synth::Scenario scenario = tools::DemoScenario(i);
      detect::ModelBundle models = detect::ModelBundle::MaskRcnnI3d(
          scenario.truth(), kSeed + static_cast<uint64_t>(i));
      offline::Ingestor ingestor(&scenario.vocab(), &scoring,
                                 offline::IngestOptions{});
      auto index = ingestor.Ingest(scenario.truth(), models);
      EXPECT_TRUE(index.ok()) << index.status().message();
      r->Add("vid" + std::to_string(i), std::move(*index));
    }
    return r;
  }();
  return *repo;
}

std::string Fmt(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string DescribeTop(
    const std::vector<offline::RepositoryRankedSequence>& top) {
  std::ostringstream os;
  for (const offline::RepositoryRankedSequence& entry : top) {
    os << entry.video << " " << entry.sequence.clips.ToString()
       << " lb=" << Fmt(entry.sequence.lower_bound)
       << " ub=" << Fmt(entry.sequence.upper_bound)
       << " exact=" << entry.sequence.has_exact << "/"
       << Fmt(entry.sequence.has_exact ? entry.sequence.exact_score : 0.0)
       << "\n";
  }
  return os.str();
}

struct QueryOut {
  std::string top;
  std::string invariant_metrics;
};

// One query against `coordinator` in a fresh registry epoch, rendered
// down to the comparison surface.
QueryOut QueryOnce(const Coordinator& coordinator) {
  DemoRepository();  // Ingest outside the measured epoch.
  obs::MetricRegistry::Global().Reset();
  offline::PaperScoring scoring;
  offline::RvaqOptions rvaq;
  rvaq.k = kK;
  auto result = coordinator.TopK("running", {"dog"}, scoring, rvaq);
  EXPECT_TRUE(result.ok()) << result.status().message();
  QueryOut out;
  if (result.ok()) out.top = DescribeTop(result->merged.top);
  out.invariant_metrics = obs::ExportPrometheus(
      obs::FilterSnapshot(obs::MetricRegistry::Global().TakeSnapshot(),
                          LayoutInvariantMetricPrefixes()));
  return out;
}

Coordinator MakeCoordinator(int shards) {
  ClusterOptions options;
  options.num_shards = shards;
  options.scheme = PartitionScheme::kRange;  // Splittable mid-run.
  return Coordinator(&DemoRepository(), options);
}

TEST(ClusterElastic, SplitAndMergeNeverChangeResultBytes) {
  const QueryOut ref = QueryOnce(MakeCoordinator(1));
  ASSERT_FALSE(ref.top.empty());

  Coordinator coordinator = MakeCoordinator(1);
  // Before, during and after: query between every layout change.
  EXPECT_EQ(QueryOnce(coordinator).top, ref.top);
  ASSERT_TRUE(coordinator.SplitShard(0).ok());
  EXPECT_EQ(coordinator.num_shards(), 2);
  QueryOut split_out = QueryOnce(coordinator);
  EXPECT_EQ(split_out.top, ref.top);
  EXPECT_EQ(split_out.invariant_metrics, ref.invariant_metrics);
  ASSERT_TRUE(coordinator.SplitShard(1).ok());
  EXPECT_EQ(coordinator.num_shards(), 3);
  split_out = QueryOnce(coordinator);
  EXPECT_EQ(split_out.top, ref.top);
  EXPECT_EQ(split_out.invariant_metrics, ref.invariant_metrics);
  ASSERT_TRUE(coordinator.MergeShards(0).ok());
  EXPECT_EQ(coordinator.num_shards(), 2);
  const QueryOut merged_out = QueryOnce(coordinator);
  EXPECT_EQ(merged_out.top, ref.top);
  EXPECT_EQ(merged_out.invariant_metrics, ref.invariant_metrics);
}

TEST(ClusterElastic, SplitGuardsItsPreconditions) {
  Coordinator coordinator = MakeCoordinator(4);  // One video per shard.
  EXPECT_EQ(coordinator.SplitShard(-1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(coordinator.SplitShard(4).code(), StatusCode::kInvalidArgument);
  // A single-video shard cannot split.
  EXPECT_EQ(coordinator.SplitShard(0).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(coordinator.MergeShards(3).code(),
            StatusCode::kInvalidArgument);  // No right neighbour.
}

// Nodes resolve their videos once per layout, so a repository that
// changes under a live coordinator is a FailedPrecondition: neither a
// stale index nor a silently ignored video.
TEST(ClusterElastic, RepositoryChangeNeedsANewCoordinator) {
  offline::PaperScoring scoring;
  offline::RvaqOptions rvaq;
  rvaq.k = kK;
  ClusterOptions options;
  options.num_shards = 2;
  options.scheme = PartitionScheme::kRange;
  for (const bool add : {true, false}) {
    SCOPED_TRACE(add ? "Add" : "Remove");
    offline::Repository repository;
    for (int i = 0; i < kVideos; ++i) {
      const std::string name = "vid" + std::to_string(i);
      repository.Add(name, *DemoRepository().Find(name));
    }
    Coordinator coordinator(&repository, options);
    EXPECT_FALSE(repository.Remove("absent"));  // Changes nothing.
    ASSERT_TRUE(coordinator.TopK("running", {"dog"}, scoring, rvaq).ok());
    if (add) {
      repository.Add("vid9", *DemoRepository().Find("vid0"));
    } else {
      ASSERT_TRUE(repository.Remove("vid1"));
    }
    EXPECT_EQ(coordinator.TopK("running", {"dog"}, scoring, rvaq)
                  .status()
                  .code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(coordinator.SplitShard(0).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(coordinator.MergeShards(0).code(),
              StatusCode::kFailedPrecondition);
    const Coordinator fresh(&repository, options);
    EXPECT_TRUE(fresh.TopK("running", {"dog"}, scoring, rvaq).ok());
  }
}

TEST(ClusterElastic, RebalanceOpsAreCounted) {
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  registry.Reset();
  Coordinator coordinator = MakeCoordinator(1);
  ASSERT_TRUE(coordinator.SplitShard(0).ok());
  ASSERT_TRUE(coordinator.MergeShards(0).ok());
  EXPECT_EQ(
      registry.GetCounter("vaq_cluster_rebalance_total", {{"op", "split"}})
          ->value(),
      1);
  EXPECT_EQ(
      registry.GetCounter("vaq_cluster_rebalance_total", {{"op", "merge"}})
          ->value(),
      1);
}

}  // namespace
}  // namespace cluster
}  // namespace vaq
