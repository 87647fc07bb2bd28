// MetricRegistry semantics: labeled families, concurrent counter updates,
// histogram bucket boundaries, the two exporters (Prometheus text and
// JSON, including the built-in JSON linter and the shared string escape),
// and RestoreSnapshot's refusal of a snapshot that does not fit the
// registry.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace vaq {
namespace obs {
namespace {

TEST(MetricRegistryTest, GetOrCreateReturnsStablePointers) {
  MetricRegistry registry;
  Counter* a = registry.GetCounter("hits", {{"model", "yolo"}});
  Counter* b = registry.GetCounter("hits", {{"model", "yolo"}});
  Counter* c = registry.GetCounter("hits", {{"model", "i3d"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(MetricRegistryTest, LabelOrderIsCanonicalized) {
  MetricRegistry registry;
  Counter* a = registry.GetCounter("x", {{"b", "2"}, {"a", "1"}});
  Counter* b = registry.GetCounter("x", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(a, b);
}

TEST(MetricRegistryTest, TwoThreadsBumpingOneFamilyLoseNothing) {
  MetricRegistry registry;
  constexpr int64_t kPerThread = 200000;
  auto bump = [&registry] {
    // Resolve inside the thread: registration itself must also be safe
    // under concurrency, not just the increments.
    Counter* counter =
        registry.GetCounter("vaq_detector_invocations", {{"model", "yolo"}});
    for (int64_t i = 0; i < kPerThread; ++i) counter->Increment();
  };
  std::thread t1(bump);
  std::thread t2(bump);
  t1.join();
  t2.join();
  EXPECT_EQ(registry.GetCounter("vaq_detector_invocations",
                                {{"model", "yolo"}})
                ->value(),
            2 * kPerThread);
}

TEST(MetricRegistryTest, GaugeSetAndAdd) {
  MetricRegistry registry;
  Gauge* g = registry.GetGauge("queue_depth");
  g->Set(4.0);
  EXPECT_DOUBLE_EQ(g->value(), 4.0);
  g->Add(-1.5);
  EXPECT_DOUBLE_EQ(g->value(), 2.5);
}

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h({1.0, 2.0, 4.0});
  for (const double v : {0.5, 1.0, 1.5, 2.0, 4.0, 5.0}) h.Observe(v);
  EXPECT_EQ(h.bucket_count(0), 2);  // 0.5, 1.0 (boundary is inclusive).
  EXPECT_EQ(h.bucket_count(1), 2);  // 1.5, 2.0.
  EXPECT_EQ(h.bucket_count(2), 1);  // 4.0.
  EXPECT_EQ(h.bucket_count(3), 1);  // 5.0 lands in +inf.
  EXPECT_EQ(h.count(), 6);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 5.0);
}

TEST(HistogramTest, RegistryRejectsNothingButSnapshotsCumulative) {
  MetricRegistry registry;
  Histogram* h = registry.GetHistogram("lat_ms", {1.0, 10.0});
  h->Observe(0.5);
  h->Observe(5.0);
  h->Observe(100.0);
  const Snapshot snapshot = registry.TakeSnapshot();
  ASSERT_EQ(snapshot.entries.size(), 1u);
  const std::string text = ExportPrometheus(snapshot);
  // Prometheus buckets are cumulative: le="1" 1, le="10" 2, le="+Inf" 3.
  EXPECT_NE(text.find("lat_ms_bucket{le=\"1\"} 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("lat_ms_bucket{le=\"10\"} 2"), std::string::npos)
      << text;
  EXPECT_NE(text.find("lat_ms_bucket{le=\"+Inf\"} 3"), std::string::npos)
      << text;
  EXPECT_NE(text.find("lat_ms_count 3"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE lat_ms histogram"), std::string::npos) << text;
}

TEST(ExportTest, PrometheusEmitsOneTypeLinePerFamily) {
  MetricRegistry registry;
  registry.GetCounter("calls", {{"outcome", "ok"}})->Increment(3);
  registry.GetCounter("calls", {{"outcome", "timeout"}})->Increment();
  registry.GetGauge("depth")->Set(2.0);
  const std::string text = ExportPrometheus(registry.TakeSnapshot());
  // One TYPE header covering both members of the `calls` family.
  size_t first = text.find("# TYPE calls counter");
  ASSERT_NE(first, std::string::npos) << text;
  EXPECT_EQ(text.find("# TYPE calls counter", first + 1), std::string::npos)
      << text;
  EXPECT_NE(text.find("calls{outcome=\"ok\"} 3"), std::string::npos) << text;
  EXPECT_NE(text.find("calls{outcome=\"timeout\"} 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE depth gauge"), std::string::npos) << text;
}

TEST(ExportTest, JsonExportPassesTheLinter) {
  MetricRegistry registry;
  registry.GetCounter("c", {{"k", "v with \"quotes\" and \\slashes\\"}})
      ->Increment();
  registry.GetGauge("g")->Set(1.5);
  registry.GetHistogram("h", {1.0})->Observe(2.0);
  const std::string json = ExportJson(registry.TakeSnapshot());
  EXPECT_EQ(JsonLintError(json), "") << json;
}

TEST(ExportTest, LinterRejectsMalformedDocuments) {
  EXPECT_EQ(JsonLintError("{\"a\":1}"), "");
  EXPECT_EQ(JsonLintError("[1,2,3]"), "");
  EXPECT_NE(JsonLintError("{"), "");
  EXPECT_NE(JsonLintError("{\"a\":}"), "");
  EXPECT_NE(JsonLintError("{\"a\":1,}"), "");
  EXPECT_NE(JsonLintError("[1 2]"), "");
  EXPECT_NE(JsonLintError("{\"a\":1} trailing"), "");
  EXPECT_NE(JsonLintError("\"unterminated"), "");
}

TEST(ExportTest, EscapeJsonPinsEveryEscapeClass) {
  // The one escape behind the metrics JSON export, the Chrome trace
  // export and JSON log lines.
  struct Case {
    std::string in;
    std::string want;
  };
  const std::vector<Case> cases = {
      {"say \"hi\"", "say \\\"hi\\\""},
      {"a\\b", "a\\\\b"},
      {"line\nnext", "line\\nnext"},
      {"col\tcol", "col\\tcol"},
      {"cr\r", "cr\\r"},
      {"\x01", "\\u0001"},
      {"\x1f", "\\u001f"},
      // UTF-8 multibyte sequences pass through byte for byte.
      {"caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x8e\xac",
       "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x8e\xac"},
  };
  for (const Case& c : cases) {
    const std::string escaped = EscapeJson(c.in);
    EXPECT_EQ(escaped, c.want) << c.in;
    EXPECT_EQ(JsonLintError("\"" + escaped + "\""), "") << escaped;
  }
}

TEST(ExportTest, ResetZeroesValuesButKeepsFamilies) {
  MetricRegistry registry;
  Counter* c = registry.GetCounter("n");
  c->Increment(7);
  registry.Reset();
  EXPECT_EQ(c->value(), 0);
  const Snapshot snapshot = registry.TakeSnapshot();
  ASSERT_EQ(snapshot.entries.size(), 1u);
  EXPECT_EQ(snapshot.entries[0].counter_value, 0);
}

TEST(ExportTest, SnapshotOrderIsDeterministic) {
  MetricRegistry registry;
  registry.GetCounter("z_metric");
  registry.GetCounter("a_metric", {{"m", "2"}});
  registry.GetCounter("a_metric", {{"m", "1"}});
  const Snapshot snapshot = registry.TakeSnapshot();
  ASSERT_EQ(snapshot.entries.size(), 3u);
  EXPECT_EQ(snapshot.entries[0].name, "a_metric");
  EXPECT_EQ(snapshot.entries[0].labels[0].second, "1");
  EXPECT_EQ(snapshot.entries[1].labels[0].second, "2");
  EXPECT_EQ(snapshot.entries[2].name, "z_metric");
}

Snapshot::Entry HistogramEntry(const std::string& name,
                               std::vector<double> bounds) {
  Snapshot::Entry entry;
  entry.name = name;
  entry.kind = Snapshot::Kind::kHistogram;
  entry.bucket_counts.assign(bounds.size() + 1, 0);
  entry.bucket_counts[0] = 1;
  entry.hist_count = 1;
  entry.hist_sum = 0.5;
  entry.bounds = std::move(bounds);
  return entry;
}

// A snapshot written by a build whose family changed kind or buckets is
// refused with a Status before any instrument is written: the entry that
// would have restored cleanly, listed first, is left alone too.
TEST(RestoreSnapshotTest, ShapeMismatchIsAStatusAndWritesNothing) {
  MetricRegistry& registry = MetricRegistry::Global();
  Counter* counter = registry.GetCounter("vaq_restore_a_total");
  counter->Reset();
  counter->Increment(5);
  Histogram* histogram =
      registry.GetHistogram("vaq_x_ms", DefaultLatencyBucketsMs());
  Snapshot::Entry fine;
  fine.name = "vaq_restore_a_total";
  fine.counter_value = 9;
  Snapshot::Entry as_counter;
  as_counter.name = "vaq_x_ms";
  const std::vector<Snapshot> refused = {
      {{fine, HistogramEntry("vaq_x_ms", {1, 2})}},  // Other buckets.
      {{fine, as_counter}},                          // Other kind.
      {{fine, HistogramEntry("vaq_restore_new_ms", {2, 1})}},  // Unsorted.
      // Two entries disagreeing over one instrument nobody registered.
      {{fine, HistogramEntry("vaq_restore_new_ms", {1}),
        HistogramEntry("vaq_restore_new_ms", {1, 2})}},
  };
  for (size_t i = 0; i < refused.size(); ++i) {
    const int64_t histogram_count = histogram->count();
    const Status status = RestoreSnapshot(refused[i]);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << i;
    EXPECT_EQ(counter->value(), 5) << i;
    EXPECT_EQ(histogram->count(), histogram_count) << i;
  }
  for (const Snapshot::Entry& entry : registry.TakeSnapshot().entries) {
    EXPECT_NE(entry.name, "vaq_restore_new_ms");
  }
}

}  // namespace
}  // namespace obs
}  // namespace vaq
