// Warm ranked statements allocate a small constant per video.
//
// A ranked statement runs RVAQ on every video of the repository. Every
// per-video buffer (bound tables, P_q, candidate states, the skip set,
// the clip score cache, both TBClip sides, the exact-score columns)
// lives in one statement-scoped offline::RvaqWorkspace that is reset,
// not reallocated, between videos; the cluster gather serves batches as
// index ranges into the shard run. This test replaces the global
// operator new, counts the calls made on the test thread inside
// Repository::TopK and a 4-shard Coordinator::TopK, and requires at most
// kMaxPerVideo of them per video, at LIMIT 1 and LIMIT 7, exact and with
// a WITH RECALL 0.9 prefilter (built outside the counted region).
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "cascade/planner.h"
#include "cluster/coordinator.h"
#include "offline/repository.h"
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
constexpr int64_t kMaxPerVideo = 8;

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
  cluster_options.num_shards = 4;
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
      std::printf("LIMIT %lld %s: Repository::TopK %.2f, "
                  "Coordinator::TopK %.2f allocations per video\n",
                  static_cast<long long>(k), recall ? "recall" : "exact",
                  static_cast<double>(single_allocs) / kVideos,
                  static_cast<double>(cluster_allocs) / kVideos);
    }
  }
}

}  // namespace
}  // namespace vaq
