// Warm ranked statements allocate a small constant per video.
//
// A ranked statement runs RVAQ on every video of the repository. Every
// per-video buffer (bound tables, P_q, candidate states, the skip set,
// the clip score cache, both TBClip sides, the exact-score columns)
// lives in one statement-scoped offline::RvaqWorkspace that is reset,
// not reallocated, between videos. The cluster gather sends typed
// messages, serves batches as index ranges into shard runs that keep
// their storage, and sizes its per-statement scratch once, so it
// allocates no more than the single-node loop plus a few buffers per
// shard — nothing per message. This test replaces the global operator
// new, counts the calls made on the test thread inside Repository::TopK
// and a 4-shard Coordinator::TopK, and requires at most kMaxPerVideo of
// them per video, and of the coordinator at most kMaxPerShard per shard
// beyond Repository::TopK's, at LIMIT 1 and LIMIT 7, exact and with a
// WITH RECALL 0.9 prefilter (built outside the counted region).
//
// A warm WITH RECALL statement is a plan lookup: Session and Coordinator
// each hold a planner that plans a (concepts, τ) once, so a repeated
// statement neither re-plans nor rebuilds the surviving sets. The second
// test counts whole statements through Session::Execute (one video) and
// Coordinator::ExecuteRanked (the corpus); re-planning per statement
// costs several allocations per video on top of the bounds below.
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "cascade/planner.h"
#include "cluster/coordinator.h"
#include "offline/repository.h"
#include "query/parser.h"
#include "query/session.h"
#include "tools/pipeline_setup.h"

namespace {

thread_local bool counting = false;
int64_t allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  if (counting) ++allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace vaq {
namespace {

constexpr int kVideos = 16;
constexpr int kShards = 4;
constexpr int64_t kMaxPerVideo = 8;
// The gather's own buffers measured -4 to +4 allocations per statement
// over Repository::TopK; a string-encoded wire measured +21 to +27.
constexpr int64_t kMaxPerShard = 2;
// Whole warm WITH RECALL 0.9 statements at LIMIT 5. These measured 50
// and 112 allocations; re-planning per statement measured 229 and 292.
constexpr int64_t kMaxWarmVideoStatement = 80;
constexpr int64_t kMaxWarmCorpusStatement = 160;

// Allocations `fn` performs on this thread.
template <typename Fn>
int64_t CountAllocations(Fn&& fn) {
  const int64_t before = allocations;
  counting = true;
  fn();
  counting = false;
  return allocations - before;
}

TEST(RvaqAllocTest, WarmRankedStatementsAllocateAFewTimesPerVideo) {
  StatusOr<tools::CascadeDemo> demo = tools::MakeCascadeDemo(kVideos, 11);
  ASSERT_TRUE(demo.ok()) << demo.status();
  cluster::ClusterOptions cluster_options;
  cluster_options.num_shards = kShards;
  cluster_options.proxy = &demo->proxies;
  const cluster::Coordinator coordinator(&demo->repository, cluster_options);
  const offline::PaperScoring scoring;
  const cascade::Planner planner(&demo->proxies);
  StatusOr<cascade::CascadePlan> plan = planner.Plan("running", {"dog"}, 0.9);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_TRUE(plan->use_cascade);
  const cascade::PlanFilters filters(&demo->proxies, *plan);

  for (const int64_t k : {int64_t{1}, int64_t{7}}) {
    for (const bool recall : {false, true}) {
      SCOPED_TRACE("LIMIT " + std::to_string(k) +
                   (recall ? " WITH RECALL 0.9" : " exact"));
      offline::RvaqOptions options;
      options.k = k;
      if (recall) options.prefilter = &filters;
      const std::vector<std::string> objects = {"dog"};
      // Warm-up: metric handles resolve and static state initializes.
      ASSERT_TRUE(
          demo->repository.TopK("running", objects, scoring, options).ok());
      ASSERT_TRUE(coordinator.TopK("running", objects, scoring, options).ok());

      StatusOr<offline::RepositoryTopKResult> single =
          Status::Internal("not run");
      const int64_t single_allocs = CountAllocations([&] {
        single = demo->repository.TopK("running", objects, scoring, options);
      });
      ASSERT_TRUE(single.ok()) << single.status();
      ASSERT_EQ(single->videos_queried + single->videos_pruned, kVideos);
      ASSERT_FALSE(single->top.empty());

      StatusOr<cluster::ClusterTopKResult> clustered =
          Status::Internal("not run");
      const int64_t cluster_allocs = CountAllocations([&] {
        clustered = coordinator.TopK("running", objects, scoring, options);
      });
      ASSERT_TRUE(clustered.ok()) << clustered.status();
      ASSERT_EQ(clustered->merged.top.size(), single->top.size());

      EXPECT_LE(single_allocs, kMaxPerVideo * kVideos)
          << "Repository::TopK: " << single_allocs << " allocations over "
          << kVideos << " videos";
      EXPECT_LE(cluster_allocs, kMaxPerVideo * kVideos)
          << "Coordinator::TopK: " << cluster_allocs << " allocations over "
          << kVideos << " videos";
      EXPECT_LE(cluster_allocs, single_allocs + kMaxPerShard * kShards)
          << "Coordinator::TopK: " << cluster_allocs << " allocations, "
          << "Repository::TopK: " << single_allocs;
      std::printf("LIMIT %lld %s: Repository::TopK %.2f, "
                  "Coordinator::TopK %.2f allocations per video\n",
                  static_cast<long long>(k), recall ? "recall" : "exact",
                  static_cast<double>(single_allocs) / kVideos,
                  static_cast<double>(cluster_allocs) / kVideos);
    }
  }
}

std::string RecallSql(const std::string& video) {
  return "SELECT MERGE(clipID) AS Sequence, RANK(act, obj) FROM (PROCESS " +
         video +
         " PRODUCE clipID, obj USING ObjectTracker, act USING "
         "ActionRecognizer) WHERE act='running' AND obj.include('dog') "
         "ORDER BY RANK(act, obj) LIMIT 5 WITH RECALL 0.9";
}

TEST(RvaqAllocTest, WarmRecallStatementsDoNotReplan) {
  StatusOr<tools::CascadeDemo> demo = tools::MakeCascadeDemo(kVideos, 11);
  ASSERT_TRUE(demo.ok()) << demo.status();
  cluster::ClusterOptions cluster_options;
  cluster_options.num_shards = 4;
  cluster_options.proxy = &demo->proxies;
  cluster::Coordinator coordinator(&demo->repository, cluster_options);
  query::Session session;
  for (const std::string& name : demo->videos) {
    session.RegisterRepository(name, *demo->repository.Find(name));
  }
  session.RegisterProxySet(&demo->proxies);
  StatusOr<query::QueryStatement> single = query::Parse(RecallSql("vid3"));
  StatusOr<query::QueryStatement> corpus = query::Parse(RecallSql("corpus"));
  ASSERT_TRUE(single.ok() && corpus.ok());

  // Warm-up: each planner plans the statement's (concepts, τ) once.
  StatusOr<query::QueryResult> video_result = session.Execute(*single);
  ASSERT_TRUE(video_result.ok()) << video_result.status();
  ASSERT_NE(video_result->cascade_plan.find("cascade("), std::string::npos);
  StatusOr<query::QueryResult> corpus_result =
      coordinator.ExecuteRanked(*corpus, {});
  ASSERT_TRUE(corpus_result.ok()) << corpus_result.status();
  ASSERT_NE(corpus_result->cascade_plan.find("cascade("), std::string::npos);

  const int64_t video_allocs = CountAllocations(
      [&] { video_result = session.Execute(*single); });
  ASSERT_TRUE(video_result.ok()) << video_result.status();
  const int64_t corpus_allocs = CountAllocations(
      [&] { corpus_result = coordinator.ExecuteRanked(*corpus, {}); });
  ASSERT_TRUE(corpus_result.ok()) << corpus_result.status();
  ASSERT_FALSE(corpus_result->ranked.empty());

  EXPECT_LE(video_allocs, kMaxWarmVideoStatement)
      << "Session::Execute, one video: " << video_allocs << " allocations";
  EXPECT_LE(corpus_allocs, kMaxWarmCorpusStatement)
      << "Coordinator::ExecuteRanked over " << kVideos
      << " videos: " << corpus_allocs << " allocations";
  std::printf("WITH RECALL 0.9: Session::Execute (one video) %lld, "
              "Coordinator::ExecuteRanked (corpus) %lld allocations\n",
              static_cast<long long>(video_allocs),
              static_cast<long long>(corpus_allocs));
}

}  // namespace
}  // namespace vaq
