// Determinism of the serving runtime: for a fixed seed and workload the
// merged results and the logical metric families must be byte-identical
// no matter how many worker threads execute the queries. This is the
// load-bearing property of the per-stream sharding design (see
// src/serve/server.h and DESIGN.md §9), and the test that the VAQ_TSAN
// configuration replays under ThreadSanitizer.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/coordinator.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "tools/pipeline_setup.h"

namespace vaq {
namespace serve {
namespace {

constexpr int kStreams = 3;
constexpr int kQueries = 18;
constexpr uint64_t kSeed = 7;

struct RunOutput {
  std::vector<std::string> described;
  std::string logical_metrics;
  std::string detector_stats;
  std::string recognizer_stats;
  std::string accesses;
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t cache_bundles_created = 0;
  int64_t cache_bundle_reuses = 0;
};

// One full serving run: fleet + repository, fault injection on, mixed
// conjunctive / CNF / ranked workload, shared detection cache.
RunOutput RunWorkload(int threads) {
  obs::MetricRegistry::Global().Reset();
  const fault::FaultPlan plan(tools::DemoFaultSpec(), kSeed);
  ServeOptions options;
  options.threads = threads;
  options.queue_capacity = kQueries;
  options.share_detection_cache = true;
  options.fault_plan = &plan;
  Server server(options);
  EXPECT_TRUE(tools::RegisterDemoSources(&server, kStreams,
                                         /*with_repository=*/true, kSeed)
                  .ok());
  for (const std::string& sql :
       tools::DemoWorkload(kStreams, kQueries, /*with_repository=*/true)) {
    EXPECT_TRUE(server.Submit(sql).ok()) << sql;
  }
  const std::vector<ServedQuery> results = server.Drain();
  RunOutput out;
  for (const ServedQuery& q : results) {
    out.described.push_back(DescribeServedQuery(q));
  }
  out.logical_metrics = obs::ExportPrometheus(
      obs::FilterSnapshot(obs::MetricRegistry::Global().TakeSnapshot(),
                          LogicalMetricPrefixes()));
  const ServeStats stats = server.stats();
  out.detector_stats = stats.detector_stats.ToString();
  out.recognizer_stats = stats.recognizer_stats.ToString();
  out.accesses = stats.accesses.ToString();
  out.completed = stats.completed;
  out.failed = stats.failed;
  out.cache_bundles_created = stats.cache_bundles_created;
  out.cache_bundle_reuses = stats.cache_bundle_reuses;
  return out;
}

// Ranked statements over the cascade demo corpus: every video, its proxy
// set, and a 4-shard coordinator registered as "corpus". Exact, WITH
// RECALL and WITH CONFIDENCE statements on three videos and the corpus
// run in parallel on their own shards, sharing the session's planner;
// the coordinator runs one statement at a time on "repo/corpus".
RunOutput RunRankedWorkload(int threads) {
  static const StatusOr<tools::CascadeDemo> demo =
      tools::MakeCascadeDemo(/*num_videos=*/8, kSeed);
  EXPECT_TRUE(demo.ok()) << demo.status();
  if (!demo.ok()) return {};
  obs::MetricRegistry::Global().Reset();
  cluster::ClusterOptions cluster_options;
  cluster_options.num_shards = 4;
  cluster_options.proxy = &demo->proxies;
  cluster::Coordinator coordinator(&demo->repository, cluster_options);
  const std::vector<std::string> clauses = {
      "", " WITH RECALL 0.9", " WITH CONFIDENCE 0.05",
      " WITH RECALL 0.9 WITH CONFIDENCE 0.05"};
  const std::vector<std::string> sources = {"vid1", "corpus", "vid2",
                                            "vid5"};
  ServeOptions options;
  options.threads = threads;
  options.queue_capacity =
      static_cast<int>(clauses.size() * sources.size());
  Server server(options);
  for (const std::string& name : demo->videos) {
    server.RegisterRepository(name, *demo->repository.Find(name));
  }
  server.RegisterProxySet(&demo->proxies);
  server.RegisterRankedBackend("corpus", &coordinator);
  for (const std::string& clause : clauses) {
    for (const std::string& source : sources) {
      const std::string sql =
          "SELECT MERGE(clipID) AS Sequence, RANK(act, obj) FROM (PROCESS " +
          source +
          " PRODUCE clipID, obj USING ObjectTracker, act USING "
          "ActionRecognizer) WHERE act='running' AND obj.include('dog') "
          "ORDER BY RANK(act, obj) LIMIT 2" +
          clause;
      EXPECT_TRUE(server.Submit(sql).ok()) << sql;
    }
  }
  RunOutput out;
  for (const ServedQuery& q : server.Drain()) {
    EXPECT_TRUE(q.status.ok()) << q.sql << ": " << q.status;
    out.described.push_back(DescribeServedQuery(q));
  }
  std::vector<std::string> prefixes = LogicalMetricPrefixes();
  prefixes.insert(prefixes.end(), {"vaq_cascade_", "vaq_bai_"});
  out.logical_metrics = obs::ExportPrometheus(obs::FilterSnapshot(
      obs::MetricRegistry::Global().TakeSnapshot(), prefixes));
  const ServeStats stats = server.stats();
  out.accesses = stats.accesses.ToString();
  out.completed = stats.completed;
  out.failed = stats.failed;
  return out;
}

void ExpectIdentical(const RunOutput& a, const RunOutput& b) {
  ASSERT_EQ(a.described.size(), b.described.size());
  for (size_t i = 0; i < a.described.size(); ++i) {
    EXPECT_EQ(a.described[i], b.described[i]) << "query " << i;
  }
  EXPECT_EQ(a.logical_metrics, b.logical_metrics);
  EXPECT_EQ(a.detector_stats, b.detector_stats);
  EXPECT_EQ(a.recognizer_stats, b.recognizer_stats);
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.cache_bundles_created, b.cache_bundles_created);
  EXPECT_EQ(a.cache_bundle_reuses, b.cache_bundle_reuses);
}

TEST(ServeDeterminismTest, OneThreadAndEightThreadsAgreeByteForByte) {
  const RunOutput one = RunWorkload(1);
  const RunOutput eight = RunWorkload(8);
  ASSERT_EQ(one.described.size(), static_cast<size_t>(kQueries));
  EXPECT_EQ(one.completed, kQueries);
  EXPECT_EQ(one.failed, 0);
  ExpectIdentical(one, eight);
}

TEST(ServeDeterminismTest, InlineDrainMatchesWorkerPool) {
  const RunOutput inline_run = RunWorkload(0);
  const RunOutput pooled = RunWorkload(4);
  ExpectIdentical(inline_run, pooled);
}

TEST(ServeDeterminismTest, RepeatedRunsAreIdentical) {
  const RunOutput first = RunWorkload(8);
  const RunOutput second = RunWorkload(8);
  ExpectIdentical(first, second);
}

TEST(ServeDeterminismTest, RankedStatementsOverProxiesAndABackendAgree) {
  const RunOutput one = RunRankedWorkload(1);
  const RunOutput eight = RunRankedWorkload(8);
  ASSERT_EQ(one.described.size(), 16u);
  EXPECT_EQ(one.completed, 16);
  EXPECT_EQ(one.failed, 0);
  // WITH RECALL plans over the registered proxy set, not the exact
  // fallback of a server without one.
  EXPECT_NE(one.logical_metrics.find(
                "vaq_cascade_plans_total{mode=\"cascade\"} 8"),
            std::string::npos)
      << one.logical_metrics;
  // Each of those statements renders the plan it ran under.
  int rendered_cascades = 0;
  for (const std::string& described : one.described) {
    if (described.find(" cascade=cascade(") != std::string::npos) {
      ++rendered_cascades;
    }
  }
  EXPECT_EQ(rendered_cascades, 8);
  ExpectIdentical(one, eight);
}

TEST(ServeDeterminismTest, LogicalMetricsArePopulated) {
  const RunOutput run = RunWorkload(4);
  EXPECT_NE(run.logical_metrics.find("vaq_serve_queries_total"),
            std::string::npos);
  EXPECT_NE(run.logical_metrics.find("vaq_serve_cache_hits_total"),
            std::string::npos);
  EXPECT_NE(run.logical_metrics.find("vaq_serve_query_simulated_ms"),
            std::string::npos);
  // Timing-dependent families must be filtered out.
  EXPECT_EQ(run.logical_metrics.find("vaq_serve_queue_depth"),
            std::string::npos);
}

}  // namespace
}  // namespace serve
}  // namespace vaq
