// Determinism of the serving runtime: for a fixed seed and workload the
// merged results and the logical metric families must be byte-identical
// no matter how many worker threads execute the queries. This is the
// load-bearing property of the per-stream sharding design (see
// src/serve/server.h and DESIGN.md §9), and the test that the VAQ_TSAN
// configuration replays under ThreadSanitizer.
#include <cstdio>
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
  // Every floating-point sum the run reports, bit for bit: each logical
  // histogram's _sum and ServeStats::total_simulated_ms. The export
  // prints nine significant digits and ToString three decimals, which
  // hide a last-bit difference.
  std::string float_sums;
  std::string detector_stats;
  std::string recognizer_stats;
  std::string accesses;
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t cache_bundles_created = 0;
  int64_t cache_bundle_reuses = 0;
};

// Fills the rest of `out` from a drained server's stats and the global
// registry's families under `prefixes`.
void CaptureRun(const Server& server, const std::vector<std::string>& prefixes,
                RunOutput* out) {
  const obs::Snapshot logical = obs::FilterSnapshot(
      obs::MetricRegistry::Global().TakeSnapshot(), prefixes);
  out->logical_metrics = obs::ExportPrometheus(logical);
  const ServeStats stats = server.stats();
  const auto add_sum = [out](const std::string& what, double sum) {
    char bits[32];
    std::snprintf(bits, sizeof(bits), "%a", sum);
    out->float_sums += what + " " + bits + "\n";
  };
  for (const obs::Snapshot::Entry& entry : logical.entries) {
    if (entry.kind == obs::Snapshot::Kind::kHistogram) {
      add_sum(entry.name + "{" + obs::CanonicalLabels(entry.labels) + "}",
              entry.hist_sum);
    }
  }
  add_sum("total_simulated_ms", stats.total_simulated_ms);
  out->detector_stats = stats.detector_stats.ToString();
  out->recognizer_stats = stats.recognizer_stats.ToString();
  out->accesses = stats.accesses.ToString();
  out->completed = stats.completed;
  out->failed = stats.failed;
  out->cache_bundles_created = stats.cache_bundles_created;
  out->cache_bundle_reuses = stats.cache_bundle_reuses;
}

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
  CaptureRun(server, LogicalMetricPrefixes(), &out);
  return out;
}

// The cascade demo corpus, built once per process: eight videos whose
// ranked statements cost distinct fractional modeled ms.
const StatusOr<tools::CascadeDemo>& CascadeCorpus() {
  static const StatusOr<tools::CascadeDemo> demo =
      tools::MakeCascadeDemo(/*num_videos=*/8, kSeed);
  return demo;
}

// The ranked demo statement over `source`.
std::string RankedSql(const std::string& source,
                      const std::string& clause = "") {
  return "SELECT MERGE(clipID) AS Sequence, RANK(act, obj) FROM (PROCESS " +
         source +
         " PRODUCE clipID, obj USING ObjectTracker, act USING "
         "ActionRecognizer) WHERE act='running' AND obj.include('dog') "
         "ORDER BY RANK(act, obj) LIMIT 2" +
         clause;
}

// Tenant-tagged statements round-robin over the demo streams, the demo
// repository and three corpus videos, three tenants over seven shards:
// each tenant's statements run on parallel shards, and its latency
// histogram adds distinct fractional ranked costs to integral online
// ones, whose sum depends on the order of the additions.
RunOutput RunTenantWorkload(int threads) {
  const StatusOr<tools::CascadeDemo>& demo = CascadeCorpus();
  EXPECT_TRUE(demo.ok()) << demo.status();
  if (!demo.ok()) return {};
  // The ranked sources follow the streams: the demo repository, then
  // three corpus videos.
  const std::vector<std::string> ranked = {tools::kDemoRepositoryName, "vid1",
                                           "vid2", "vid3"};
  const int sources = kStreams + static_cast<int>(ranked.size());
  const int statements = 3 * sources;
  obs::MetricRegistry::Global().Reset();
  const fault::FaultPlan plan(tools::DemoFaultSpec(), kSeed);
  ServeOptions options;
  options.threads = threads;
  options.queue_capacity = statements;
  options.share_detection_cache = true;
  options.fault_plan = &plan;
  Server server(options);
  EXPECT_TRUE(tools::RegisterDemoSources(&server, kStreams,
                                         /*with_repository=*/true, kSeed)
                  .ok());
  for (size_t v = 1; v < ranked.size(); ++v) {
    server.RegisterRepository(ranked[v], *demo->repository.Find(ranked[v]));
  }
  // DemoWorkload's statement q runs on stream q % kStreams.
  const std::vector<std::string> online =
      tools::DemoWorkload(kStreams, kQueries, /*with_repository=*/false);
  for (int i = 0; i < statements; ++i) {
    const int source = i % sources;
    const std::string sql =
        source < kStreams
            ? online[static_cast<size_t>(i / sources * kStreams + source)]
            : RankedSql(ranked[static_cast<size_t>(source - kStreams)]);
    EXPECT_TRUE(server.Submit(sql, "t" + std::to_string(i % 3)).ok()) << sql;
  }
  RunOutput out;
  for (const ServedQuery& q : server.Drain()) {
    out.described.push_back(DescribeServedQuery(q));
  }
  CaptureRun(server, LogicalMetricPrefixes(), &out);
  return out;
}

// Ranked statements over the cascade demo corpus: every video, its proxy
// set, and a 4-shard coordinator registered as "corpus". Exact, WITH
// RECALL and WITH CONFIDENCE statements on three videos and the corpus
// run in parallel on their own shards, sharing the session's planner;
// the coordinator runs one statement at a time on "repo/corpus".
RunOutput RunRankedWorkload(int threads) {
  const StatusOr<tools::CascadeDemo>& demo = CascadeCorpus();
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
      const std::string sql = RankedSql(source, clause);
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
  CaptureRun(server, prefixes, &out);
  return out;
}

void ExpectIdentical(const RunOutput& a, const RunOutput& b) {
  ASSERT_EQ(a.described.size(), b.described.size());
  for (size_t i = 0; i < a.described.size(); ++i) {
    EXPECT_EQ(a.described[i], b.described[i]) << "query " << i;
  }
  EXPECT_EQ(a.logical_metrics, b.logical_metrics);
  EXPECT_EQ(a.float_sums, b.float_sums);
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

TEST(ServeDeterminismTest, TenantLatencyAgreesAcrossThreadCountsOnMixedShards) {
  const RunOutput reference = RunTenantWorkload(0);
  ASSERT_EQ(reference.described.size(), 21u);
  EXPECT_EQ(reference.failed, 0);
  // Both latency histograms are in the comparison, _sum lines included
  // (their bits are compared too), and each tenant's _count series is
  // named vaq_tenant_latency_ms_count.
  for (const char* line :
       {"vaq_serve_query_simulated_ms_sum{kind=\"online\"}",
        "vaq_serve_query_simulated_ms_sum{kind=\"ranked\"}",
        "vaq_tenant_latency_ms_sum{tenant=\"t0\"}",
        "vaq_tenant_latency_ms_sum{tenant=\"t1\"}",
        "vaq_tenant_latency_ms_sum{tenant=\"t2\"}",
        "vaq_tenant_latency_ms_count{tenant=\"t0\"} 7"}) {
    EXPECT_NE(reference.logical_metrics.find(line), std::string::npos)
        << line << "\n"
        << reference.logical_metrics;
  }
  for (const int threads : {1, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectIdentical(reference, RunTenantWorkload(threads));
  }
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
