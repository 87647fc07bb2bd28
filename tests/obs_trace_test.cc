// Span tracing under a simulated clock: nesting depths, deterministic
// durations driven by fault::SimClock, the registry mirror every closed
// span leaves behind, and cross-thread span parenting through
// obs::QueryContext (the serve worker-pool contract).
#include <gtest/gtest.h>

#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fault/sim_clock.h"
#include "obs/metrics.h"
#include "obs/query_trace.h"
#include "obs/trace.h"

namespace vaq {
namespace obs {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Global().SetClock([this] { return clock_.now_ms(); });
    Tracer::Global().SetRecording(true);
  }
  void TearDown() override {
    Tracer::Global().SetRecording(false);
    Tracer::Global().SetClock(nullptr);
  }
  fault::SimClock clock_;
};

TEST_F(TraceTest, NestedSpansRecordDepthAndSimulatedDurations) {
  {
    VAQ_TRACE_SPAN("outer");
    clock_.Advance(5.0);
    {
      VAQ_TRACE_SPAN("inner");
      clock_.Advance(2.0);
    }
    clock_.Advance(3.0);
  }
  const std::vector<SpanRecord> records = Tracer::Global().TakeRecords();
  ASSERT_EQ(records.size(), 2u);
  // Innermost closes first.
  EXPECT_EQ(records[0].name, "inner");
  EXPECT_EQ(records[0].depth, 1);
  EXPECT_DOUBLE_EQ(records[0].start_ms, 5.0);
  EXPECT_DOUBLE_EQ(records[0].duration_ms, 2.0);
  EXPECT_EQ(records[1].name, "outer");
  EXPECT_EQ(records[1].depth, 0);
  EXPECT_DOUBLE_EQ(records[1].start_ms, 0.0);
  EXPECT_DOUBLE_EQ(records[1].duration_ms, 10.0);
}

TEST_F(TraceTest, ClosedSpansMirrorIntoTheGlobalRegistry) {
  Counter* total = MetricRegistry::Global().GetCounter(
      "vaq_span_total", {{"span", "trace_test/mirror"}});
  const int64_t before = total->value();
  {
    VAQ_TRACE_SPAN("trace_test/mirror");
    clock_.Advance(1.0);
  }
  EXPECT_EQ(total->value(), before + 1);
  Histogram* ms = MetricRegistry::Global().GetHistogram(
      "vaq_span_ms", DefaultLatencyBucketsMs(),
      {{"span", "trace_test/mirror"}});
  EXPECT_GE(ms->count(), 1);
}

TEST_F(TraceTest, SiteResolvesItsInstrumentsOnItsFirstCloseOnly) {
  const int64_t before = MetricRegistry::Global().lookups();
  for (int i = 0; i < 3; ++i) {
    VAQ_TRACE_SPAN("trace_test/resolve_once");
    // Open spans register nothing: the family appears on first close.
    EXPECT_EQ(MetricRegistry::Global().lookups() - before, i == 0 ? 0 : 2);
  }
  // One counter and one histogram lookup, on the first close.
  EXPECT_EQ(MetricRegistry::Global().lookups() - before, 2);
}

TEST_F(TraceTest, TakeRecordsDrains) {
  { VAQ_TRACE_SPAN("once"); }
  EXPECT_EQ(Tracer::Global().TakeRecords().size(), 1u);
  EXPECT_TRUE(Tracer::Global().TakeRecords().empty());
}

TEST_F(TraceTest, SequentialSpansShareDepthZero) {
  { VAQ_TRACE_SPAN("first"); }
  { VAQ_TRACE_SPAN("second"); }
  const std::vector<SpanRecord> records = Tracer::Global().TakeRecords();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].depth, 0);
  EXPECT_EQ(records[1].depth, 0);
}

// Serve workers close spans concurrently, so a site's first close can
// happen on several threads at once: its instruments must resolve
// race-free (the TSan duplicate of this test checks that) and no close
// may be lost. No clock is pinned and recording is off, so every close
// takes the tracer's lock-free path.
TEST(SpanSiteTest, ConcurrentClosesAtOneFreshSiteAreAllCounted) {
  constexpr int kThreads = 8;
  constexpr int kClosesPerThread = 50;
  Counter* total = MetricRegistry::Global().GetCounter(
      "vaq_span_total", {{"span", "trace_test/concurrent"}});
  Histogram* ms = MetricRegistry::Global().GetHistogram(
      "vaq_span_ms", DefaultLatencyBucketsMs(),
      {{"span", "trace_test/concurrent"}});
  const int64_t total_before = total->value();
  const int64_t ms_before = ms->count();
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&start] {
      start.arrive_and_wait();
      for (int i = 0; i < kClosesPerThread; ++i) {
        VAQ_TRACE_SPAN("trace_test/concurrent");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(total->value() - total_before, kThreads * kClosesPerThread);
  EXPECT_EQ(ms->count() - ms_before, kThreads * kClosesPerThread);
}

// Cross-thread span parenting, the contract the serve worker pool is
// built on: the submitting thread mints the parent span (the query's
// root node), workers install per-shard child contexts with
// ScopedQueryContext and grow grandchildren under them. The resulting
// tree parents every worker-side node under the submitter's root, and
// the rendered profile is byte-identical whether the children run
// inline (threads=0) or on an 8-thread pool.
TEST(QueryContextParentingTest, ParentInSubmitterChildrenInWorkers) {
  constexpr int kChildren = 8;
  const auto run = [](int threads) {
    auto trace = std::make_unique<QueryTrace>("q1");
    const QueryContext root{trace.get(), 0};
    // Minted on the submitting thread, in deterministic order.
    std::vector<QueryContext> children;
    for (int c = 0; c < kChildren; ++c) {
      children.push_back(root.Child("worker" + std::to_string(c)));
    }
    const auto work = [&children](int c) {
      ScopedQueryContext scoped(children[c]);
      CurrentQueryContext().AddMs(0.25 * (c + 1));
      CurrentQueryContext().Child("model").AddStat("calls", c + 1);
    };
    if (threads == 0) {
      for (int c = 0; c < kChildren; ++c) work(c);
    } else {
      std::vector<std::thread> pool;
      for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&work, t, threads] {
          for (int c = t; c < kChildren; c += threads) work(c);
        });
      }
      for (std::thread& t : pool) t.join();
    }
    return trace;
  };

  const std::unique_ptr<QueryTrace> inline_trace = run(0);
  const std::unique_ptr<QueryTrace> pooled_trace = run(8);
  EXPECT_EQ(inline_trace->RenderProfile(), pooled_trace->RenderProfile());

  // Every worker-side node is parented under the submitter's root.
  const std::vector<QueryTrace::Node> nodes = pooled_trace->snapshot();
  ASSERT_EQ(nodes.size(), 1u + 2u * kChildren);
  ASSERT_EQ(nodes[0].children.size(), static_cast<size_t>(kChildren));
  for (int c = 0; c < kChildren; ++c) {
    const QueryTrace::Node& child = nodes[nodes[0].children[c]];
    EXPECT_EQ(child.name, "worker" + std::to_string(c));
    EXPECT_EQ(child.parent, 0);
    ASSERT_EQ(child.children.size(), 1u);
    const QueryTrace::Node& grandchild = nodes[child.children[0]];
    EXPECT_EQ(grandchild.name, "model");
    EXPECT_EQ(grandchild.stats.at("calls"), c + 1);
  }
}

}  // namespace
}  // namespace obs
}  // namespace vaq
