// Per-query trace plumbing (obs/query_trace.h): tree shape and phase
// folding, the rendered profile format, Chrome trace export against the
// JSON linter, nearest-rank percentiles and the promlint-style exporter
// self-check.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/query_trace.h"

namespace vaq {
namespace obs {
namespace {

TEST(QueryTraceTest, ChildGetOrCreateFoldsRepeatedPhases) {
  QueryTrace trace("q1");
  const int a = trace.Child(0, "advance");
  EXPECT_EQ(trace.Child(0, "advance"), a);
  trace.AddMs(a, 1.5);
  trace.AddMs(a, 2.5);
  trace.AddStat(a, "clips", 1);
  trace.AddStat(a, "clips", 1);
  const std::vector<QueryTrace::Node> nodes = trace.snapshot();
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_DOUBLE_EQ(nodes[a].self_ms, 4.0);
  EXPECT_EQ(nodes[a].stats.at("clips"), 2);
  EXPECT_EQ(nodes[a].parent, 0);
  ASSERT_EQ(nodes[0].children.size(), 1u);
  EXPECT_EQ(nodes[0].children[0], a);
}

TEST(QueryTraceTest, RenderProfileIsDeterministicAndSelfDescribing) {
  QueryTrace trace("q1");
  const int online = trace.Child(0, "online");
  trace.AddMs(online, 12.34);
  trace.AddStat(online, "rows", 120);
  trace.AddStat(online, "seeks", 4);
  const int scan = trace.Child(online, "scan");
  trace.AddMs(scan, 1.0);
  EXPECT_EQ(trace.RenderProfile(),
            "q1  self=0.000ms total=13.340ms\n"
            "  online  self=12.340ms total=13.340ms rows=120 seeks=4\n"
            "    scan  self=1.000ms total=1.000ms\n");
  // Byte-identical on re-render: stats are sorted maps, children keep
  // creation order.
  EXPECT_EQ(trace.RenderProfile(), trace.RenderProfile());
}

TEST(QueryTraceTest, InactiveContextIsANoOp) {
  const QueryContext none;
  EXPECT_FALSE(none.active());
  const QueryContext child = none.Child("phase");
  EXPECT_FALSE(child.active());
  child.AddMs(5.0);           // Must not crash.
  child.AddStat("rows", 10);  // Must not crash.
}

TEST(QueryTraceTest, ScopedContextInstallsAndRestores) {
  QueryTrace trace("q1");
  EXPECT_FALSE(CurrentQueryContext().active());
  {
    ScopedQueryContext scoped(QueryContext{&trace, 0});
    EXPECT_TRUE(CurrentQueryContext().active());
    EXPECT_EQ(CurrentQueryContext().trace, &trace);
    {
      ScopedQueryContext inner(CurrentQueryContext().Child("inner"));
      EXPECT_EQ(CurrentQueryContext().node, trace.Child(0, "inner"));
    }
    EXPECT_EQ(CurrentQueryContext().node, 0);
  }
  EXPECT_FALSE(CurrentQueryContext().active());
}

// The cross-thread contract the serve layer relies on: the submitting
// thread mints one context per shard, workers grow disjoint subtrees
// under them, and the rendered profile is identical however the shards
// are scheduled onto threads.
TEST(QueryTraceTest, DisjointSubtreesRenderIdenticallyAcrossThreadCounts) {
  constexpr int kShards = 4;
  const auto run = [](int workers) {
    QueryTrace trace("q0");
    const QueryContext root{&trace, 0};
    std::vector<QueryContext> shard_ctx;
    for (int s = 0; s < kShards; ++s) {
      shard_ctx.push_back(root.Child("shard" + std::to_string(s)));
    }
    const auto work = [&shard_ctx](int s) {
      ScopedQueryContext scoped(shard_ctx[s]);
      const QueryContext& cur = CurrentQueryContext();
      cur.AddMs(1.5 * (s + 1));
      cur.Child("scan").AddStat("rows", 10 * (s + 1));
      cur.Child("scan").AddMs(0.5);
    };
    if (workers == 0) {
      for (int s = 0; s < kShards; ++s) work(s);
    } else {
      std::vector<std::thread> pool;
      for (int t = 0; t < workers; ++t) {
        pool.emplace_back([&work, t, workers] {
          for (int s = t; s < kShards; s += workers) work(s);
        });
      }
      for (std::thread& t : pool) t.join();
    }
    return trace.RenderProfile();
  };
  const std::string inline_profile = run(0);
  EXPECT_EQ(inline_profile, run(8));
  EXPECT_NE(inline_profile.find("shard3  self=6.000ms"), std::string::npos);
}

TEST(ChromeTraceTest, ExportPassesJsonLintAndLaysOutTheTimeline) {
  QueryTrace trace("q7");
  const int a = trace.Child(0, "execute");
  trace.AddMs(a, 2.0);
  trace.AddStat(a, "seeks", 3);
  const int b = trace.Child(a, "scan");
  trace.AddMs(b, 1.0);
  const std::string json = ExportChromeTrace({&trace});
  EXPECT_EQ(JsonLintError(json), "") << json;
  EXPECT_NE(json.find("\"name\":\"q7\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // "scan" starts after "execute"'s self time: ts = 2ms = 2000us.
  EXPECT_NE(json.find("\"name\":\"scan\",\"ph\":\"X\",\"ts\":2000.000"),
            std::string::npos);
  EXPECT_NE(json.find("\"seeks\":3"), std::string::npos);
  // Byte-identical across exports, and null traces are skipped.
  EXPECT_EQ(json, ExportChromeTrace({&trace}));
  EXPECT_EQ(JsonLintError(ExportChromeTrace({nullptr})), "");
}

TEST(PercentileTest, NearestRankEdgeCases) {
  EXPECT_DOUBLE_EQ(PercentileNearestRank({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank({42.0}, 0.5), 42.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank({42.0}, 0.999), 42.0);
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(samples, 0.5), 50.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(samples, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(samples, 0.999), 100.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(samples, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(samples, 1.0), 100.0);
}

TEST(PromLintTest, AcceptsTheExportersOwnOutput) {
  MetricRegistry& registry = MetricRegistry::Global();
  registry.GetCounter("vaq_promlint_total", {{"path", "unit"}})->Increment();
  registry.GetGauge("vaq_promlint_gauge", {})->Set(1.5);
  registry.GetHistogram("vaq_promlint_ms")->Observe(3.0);
  const std::string text = ExportPrometheus(registry.TakeSnapshot());
  EXPECT_EQ(PromLintError(text), "") << text;
}

TEST(PromLintTest, RejectsMalformedText) {
  // Missing trailing newline.
  EXPECT_NE(PromLintError("# TYPE vaq_x counter\nvaq_x 1"), "");
  // Sample for an undeclared family.
  EXPECT_NE(PromLintError("vaq_x 1\n"), "");
  // Unknown metric kind.
  EXPECT_NE(PromLintError("# TYPE vaq_x sometype\nvaq_x 1\n"), "");
  // Label name starting with a digit.
  EXPECT_NE(
      PromLintError("# TYPE vaq_x counter\nvaq_x{9bad=\"v\"} 1\n"), "");
  // Diagnostics carry a line number.
  EXPECT_EQ(PromLintError("vaq_x 1\n").rfind("line 1:", 0), 0u);
}

}  // namespace
}  // namespace obs
}  // namespace vaq
