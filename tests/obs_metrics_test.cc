// MetricRegistry semantics: labeled families, concurrent counter updates,
// the one histogram ladder and its bucket boundaries, the two exporters
// (Prometheus text and
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

TEST(HistogramTest, LadderRisesAtMostFiveTimesPerBucketTo1e7Ms) {
  // A quantile read from the buckets is within 5x, and one served
  // online statement's modeled cost (up to 937,800 ms on the demo
  // stream) lands below the top bound, not in +Inf.
  const std::vector<double>& bounds = LatencyBucketsMs();
  ASSERT_EQ(bounds.size(), 17u);
  EXPECT_EQ(bounds.front(), 0.1);
  EXPECT_EQ(bounds.back(), 1e7);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]) << i;
    EXPECT_LE(bounds[i], 5 * bounds[i - 1]) << i;
  }
}

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  const size_t top = LatencyBucketsMs().size() - 1;  // The 1e7 ms bucket.
  Histogram h;
  for (const double v : {0.05, 0.1, 0.3, 0.5, 1.0, 9e6, 1e7, 2e7}) {
    h.Observe(v);
  }
  EXPECT_EQ(h.bucket_count(0), 2);  // 0.05, 0.1 (boundary is inclusive).
  EXPECT_EQ(h.bucket_count(1), 2);  // 0.3, 0.5.
  EXPECT_EQ(h.bucket_count(2), 1);  // 1.0.
  EXPECT_EQ(h.bucket_count(top), 2);      // 9e6, 1e7.
  EXPECT_EQ(h.bucket_count(top + 1), 1);  // 2e7 lands in +inf.
  EXPECT_EQ(h.count(), 8);
  EXPECT_DOUBLE_EQ(h.sum(), 0.05 + 0.1 + 0.3 + 0.5 + 1.0 + 9e6 + 1e7 + 2e7);
}

TEST(HistogramTest, RegistryRejectsNothingButSnapshotsCumulative) {
  MetricRegistry registry;
  Histogram* h = registry.GetHistogram("lat_ms");
  EXPECT_EQ(registry.GetHistogram("lat_ms"), h);
  h->Observe(0.5);
  h->Observe(5.0);
  h->Observe(2e7);
  const Snapshot snapshot = registry.TakeSnapshot();
  ASSERT_EQ(snapshot.entries.size(), 1u);
  EXPECT_EQ(snapshot.entries[0].bounds, LatencyBucketsMs());
  const std::string text = ExportPrometheus(snapshot);
  // Prometheus buckets are cumulative: le="0.5" 1, le="5" 2, and 2 up to
  // the top bound; le="+Inf" 3.
  EXPECT_NE(text.find("lat_ms_bucket{le=\"0.1\"} 0"), std::string::npos)
      << text;
  EXPECT_NE(text.find("lat_ms_bucket{le=\"0.5\"} 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("lat_ms_bucket{le=\"5\"} 2"), std::string::npos)
      << text;
  EXPECT_NE(text.find("lat_ms_bucket{le=\"10000000\"} 2"),
            std::string::npos)
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
  registry.GetHistogram("h")->Observe(2.0);
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

// A histogram entry with one observation of 0.05 ms, over `bounds`.
Snapshot::Entry HistogramEntry(
    const std::string& name,
    std::vector<double> bounds = LatencyBucketsMs()) {
  Snapshot::Entry entry;
  entry.name = name;
  entry.kind = Snapshot::Kind::kHistogram;
  entry.bucket_counts.assign(bounds.size() + 1, 0);
  entry.bucket_counts[0] = 1;
  entry.hist_count = 1;
  entry.hist_sum = 0.05;
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
  Histogram* histogram = registry.GetHistogram("vaq_x_ms");
  Snapshot::Entry fine;
  fine.name = "vaq_restore_a_total";
  fine.counter_value = 9;
  Snapshot::Entry as_counter;
  as_counter.name = "vaq_x_ms";
  Snapshot::Entry new_as_counter;
  new_as_counter.name = "vaq_restore_new_ms";
  // The ladder before it reached the modeled range: what a checkpoint
  // from an older build carries.
  const std::vector<double> older_ladder = {0.1, 0.5, 1,    5,    10,   50,
                                            100, 500, 1000, 5000, 10000};
  Snapshot::Entry count_short = HistogramEntry("vaq_restore_new_ms");
  count_short.bucket_counts.pop_back();
  const std::vector<Snapshot> refused = {
      {{fine, HistogramEntry("vaq_x_ms", {1, 2})}},  // Other buckets.
      {{fine, as_counter}},                          // Other kind.
      // An instrument nobody registered, over the older ladder.
      {{fine, HistogramEntry("vaq_restore_new_ms", older_ladder)}},
      // Over the ladder, with as many counts as bounds.
      {{fine, count_short}},
      // Two entries disagreeing over one instrument nobody registered.
      {{fine, HistogramEntry("vaq_restore_new_ms"), new_as_counter}},
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
