// A ranked statement records its spans once, whatever the corpus size.
//
// An always-on span costs about a tenth of a microsecond (the trace_span
// row of bench_micro_kernels), and one video's RVAQ run takes 1-2 us, so
// a span per video would be a measurable share of the statement it
// belongs to. obs/trace.h states the rule: a span times a statement, a
// batch engine run or an ingest, never a per-video, per-clip or per-row
// step. This test counts the vaq_span_total events of one corpus
// statement through Repository::TopK and a 2-shard Coordinator::TopK,
// over 2 and over 16 videos, and requires the same count at both sizes,
// the statement's own span (corpus/topk, at either entry point) among it
// once.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/coordinator.h"
#include "obs/metrics.h"
#include "offline/repository.h"
#include "tools/pipeline_setup.h"

namespace vaq {
namespace {

// Total vaq_span_total events recorded so far, over every span name.
int64_t SpanEvents() {
  int64_t events = 0;
  for (const obs::Snapshot::Entry& entry :
       obs::MetricRegistry::Global().TakeSnapshot().entries) {
    if (entry.name == "vaq_span_total") events += entry.counter_value;
  }
  return events;
}

// Events of `span` alone.
int64_t SpanEvents(const std::string& span) {
  return obs::MetricRegistry::Global()
      .GetCounter("vaq_span_total", {{"span", span}})
      ->value();
}

struct StatementSpans {
  int64_t repository = 0;  // Every span of one Repository::TopK.
  int64_t cluster = 0;     // Every span of one Coordinator::TopK.
};

// Spans of one corpus statement ("running" + "dog", LIMIT 5) over a
// `videos`-video demo corpus, through each entry point.
void CountStatementSpans(int videos, StatementSpans* out) {
  StatusOr<tools::CascadeDemo> demo = tools::MakeCascadeDemo(videos, 11);
  ASSERT_TRUE(demo.ok()) << demo.status();
  cluster::ClusterOptions cluster_options;
  cluster_options.num_shards = 2;
  const cluster::Coordinator coordinator(&demo->repository, cluster_options);
  const offline::PaperScoring scoring;
  offline::RvaqOptions options;
  options.k = 5;

  int64_t statement = SpanEvents("corpus/topk");
  int64_t before = SpanEvents();
  StatusOr<offline::RepositoryTopKResult> single =
      demo->repository.TopK("running", {"dog"}, scoring, options);
  out->repository = SpanEvents() - before;
  ASSERT_TRUE(single.ok()) << single.status();
  ASSERT_EQ(single->videos_queried, videos);
  EXPECT_EQ(SpanEvents("corpus/topk") - statement, 1);

  statement = SpanEvents("corpus/topk");
  before = SpanEvents();
  StatusOr<cluster::ClusterTopKResult> clustered =
      coordinator.TopK("running", {"dog"}, scoring, options);
  out->cluster = SpanEvents() - before;
  ASSERT_TRUE(clustered.ok()) << clustered.status();
  ASSERT_EQ(clustered->merged.videos_queried, videos);
  EXPECT_EQ(SpanEvents("corpus/topk") - statement, 1);
}

TEST(RankedSpansTest, CorpusStatementSpansDoNotGrowWithVideos) {
  StatementSpans small;
  StatementSpans large;
  ASSERT_NO_FATAL_FAILURE(CountStatementSpans(2, &small));
  ASSERT_NO_FATAL_FAILURE(CountStatementSpans(16, &large));
  EXPECT_EQ(large.repository, small.repository);
  EXPECT_EQ(large.cluster, small.cluster);
}

}  // namespace
}  // namespace vaq
