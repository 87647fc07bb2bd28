#include "offline/repository.h"

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "detect/models.h"
#include "offline/baselines.h"
#include "offline/ingest.h"
#include "synth/scenario.h"

namespace vaq {
namespace offline {
namespace {

synth::Scenario MakeVideo(const char* name, uint64_t seed,
                          const char* action) {
  synth::ScenarioSpec spec;
  spec.name = name;
  spec.minutes = 5;
  spec.fps = 30;
  spec.seed = seed;
  synth::ActionTrackSpec a;
  a.name = action;
  a.duty = 0.25;
  a.mean_len_frames = 700;
  spec.actions.push_back(a);
  for (const char* object : {"cup", "person"}) {
    synth::ObjectTrackSpec o;
    o.name = object;
    o.background_duty = 0.08;
    o.mean_len_frames = 600;
    o.coupled_action = action;
    o.cover_action_prob = 0.88;
    spec.objects.push_back(o);
  }
  return synth::Scenario::FromSpec(spec, action, {"cup"});
}

// Three videos: two support "smoking", one only "dancing".
struct Fixture {
  PaperScoring scoring;
  Repository repo;
  std::map<std::string, synth::Scenario> scenarios;

  Fixture() {
    AddVideo("vid_a", MakeVideo("vid_a", 1, "smoking"));
    AddVideo("vid_b", MakeVideo("vid_b", 2, "smoking"));
    AddVideo("vid_c", MakeVideo("vid_c", 3, "dancing"));
  }

  void AddVideo(const std::string& name, synth::Scenario scenario) {
    detect::ModelBundle models =
        detect::ModelBundle::MaskRcnnI3d(scenario.truth(), 7);
    Ingestor ingestor(&scenario.vocab(), &scoring, IngestOptions{});
    repo.Add(name, std::move(ingestor.Ingest(scenario.truth(), models)).value());
    scenarios.emplace(name, std::move(scenario));
  }
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

TEST(RepositoryTest, BasicAccessors) {
  Fixture& f = GetFixture();
  EXPECT_EQ(f.repo.num_videos(), 3u);
  EXPECT_EQ(f.repo.VideoNames(),
            (std::vector<std::string>{"vid_a", "vid_b", "vid_c"}));
  EXPECT_NE(f.repo.Find("vid_a"), nullptr);
  EXPECT_EQ(f.repo.Find("nope"), nullptr);
}

TEST(RepositoryTest, GlobalTopKMatchesPerVideoBruteForce) {
  Fixture& f = GetFixture();
  RvaqOptions options;
  options.k = 5;
  auto global = f.repo.TopK("smoking", {"cup"}, f.scoring, options);
  ASSERT_TRUE(global.ok()) << global.status();
  EXPECT_EQ(global->videos_queried, 2);
  EXPECT_EQ(global->videos_skipped, 1);  // vid_c has no "smoking".
  ASSERT_EQ(global->top.size(), 5u);

  // Reference: brute-force every supporting video and merge.
  std::vector<std::pair<double, std::string>> reference;
  for (const char* name : {"vid_a", "vid_b"}) {
    auto tables = BindByName(*f.repo.Find(name), "smoking", {"cup"});
    ASSERT_TRUE(tables.ok());
    const TopKResult all = PqTraverse(
        *tables, f.scoring, std::numeric_limits<int64_t>::max() / 2);
    for (const RankedSequence& seq : all.top) {
      reference.emplace_back(seq.exact_score, name);
    }
  }
  std::sort(reference.rbegin(), reference.rend());
  for (size_t i = 0; i < global->top.size(); ++i) {
    EXPECT_DOUBLE_EQ(global->top[i].sequence.exact_score,
                     reference[i].first)
        << i;
    EXPECT_EQ(global->top[i].video, reference[i].second) << i;
  }
}

TEST(RepositoryTest, ResultsInterleaveVideos) {
  // With two statistically identical videos, the global top-10 should mix
  // both sources.
  Fixture& f = GetFixture();
  RvaqOptions options;
  options.k = 10;
  auto global = f.repo.TopK("smoking", {"cup"}, f.scoring, options);
  ASSERT_TRUE(global.ok());
  bool saw_a = false;
  bool saw_b = false;
  for (const auto& entry : global->top) {
    saw_a |= entry.video == "vid_a";
    saw_b |= entry.video == "vid_b";
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);
  // Scores are non-increasing.
  for (size_t i = 1; i < global->top.size(); ++i) {
    EXPECT_GE(global->top[i - 1].sequence.exact_score,
              global->top[i].sequence.exact_score);
  }
}

TEST(RepositoryTest, QueryNoVideoSupports) {
  Fixture& f = GetFixture();
  RvaqOptions options;
  options.k = 3;
  auto result = f.repo.TopK("flying", {"cup"}, f.scoring, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->videos_queried, 0);
  EXPECT_EQ(result->videos_skipped, 3);
  EXPECT_TRUE(result->top.empty());
}

TEST(RepositoryTest, RemoveExcludesVideoFromQueries) {
  // A fresh repository built from two copies; removing one halves the
  // candidate pool.
  Fixture& f = GetFixture();
  Repository repo;
  repo.Add("x", *f.repo.Find("vid_a"));
  repo.Add("y", *f.repo.Find("vid_b"));
  RvaqOptions options;
  options.k = 50;
  auto both = repo.TopK("smoking", {"cup"}, f.scoring, options);
  ASSERT_TRUE(both.ok());
  const uint64_t generation = repo.generation();
  EXPECT_TRUE(repo.Remove("y"));
  EXPECT_EQ(repo.generation(), generation + 1);
  EXPECT_FALSE(repo.Remove("y"));
  EXPECT_EQ(repo.generation(), generation + 1);  // Nothing was dropped.
  auto one = repo.TopK("smoking", {"cup"}, f.scoring, options);
  ASSERT_TRUE(one.ok());
  EXPECT_LT(one->candidate_sequences, both->candidate_sequences);
  for (const auto& entry : one->top) EXPECT_EQ(entry.video, "x");
}

// The k-winner merge keeps exactly what a stable sort by descending
// score, truncated to k, keeps — whatever order the candidates are
// offered in, with heavy ties.
TEST(RankedMergeTest, KeepsWhatStableSortThenTruncateKeeps) {
  Rng rng(20261018);
  for (int trial = 0; trial < 500; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(0, 60));
    const int64_t k = rng.UniformInt(0, 12);
    std::vector<double> scores;
    for (int i = 0; i < n; ++i) {
      scores.push_back(trial % 2 == 0
                           ? static_cast<double>(rng.UniformInt(0, 3))
                           : rng.UniformDouble(0, 1));
    }
    std::vector<int> expected(static_cast<size_t>(n));
    std::iota(expected.begin(), expected.end(), 0);
    std::stable_sort(expected.begin(), expected.end(), [&](int a, int b) {
      return scores[static_cast<size_t>(a)] > scores[static_cast<size_t>(b)];
    });
    if (static_cast<int64_t>(expected.size()) > k) {
      expected.resize(static_cast<size_t>(k));
    }

    std::vector<int> offers(static_cast<size_t>(n));
    std::iota(offers.begin(), offers.end(), 0);
    for (size_t i = offers.size(); i > 1; --i) {
      std::swap(offers[i - 1],
                offers[static_cast<size_t>(rng.UniformInt(0, i - 1))]);
    }
    RankedMerge<int> merge(k);
    for (const int position : offers) {
      merge.Offer(scores[static_cast<size_t>(position)],
                  static_cast<uint64_t>(position), [&] { return position; });
    }
    EXPECT_EQ(merge.full(), k > 0 && n >= k) << "trial " << trial;
    if (merge.full()) {
      EXPECT_EQ(merge.worst_score(),
                scores[static_cast<size_t>(expected.back())]);
    }
    EXPECT_EQ(merge.Take(), expected) << "trial " << trial;
  }
}

TEST(RepositoryTest, EmptyRepositoryFails) {
  Repository empty;
  PaperScoring scoring;
  EXPECT_EQ(empty.TopK("smoking", {}, scoring, RvaqOptions{})
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(RepositoryTest, CatalogRoundTrip) {
  Fixture& f = GetFixture();
  const std::string dir =
      (std::filesystem::temp_directory_path() / "vaq_repo_cat").string();
  std::filesystem::remove_all(dir);
  const storage::Catalog catalog(dir);
  for (const std::string& name : f.repo.VideoNames()) {
    ASSERT_TRUE(catalog.Save(name, *f.repo.Find(name)).ok());
  }
  Repository reloaded;
  ASSERT_TRUE(reloaded.AddFromCatalog(catalog).ok());
  EXPECT_EQ(reloaded.num_videos(), 3u);

  RvaqOptions options;
  options.k = 4;
  auto a = f.repo.TopK("smoking", {"cup"}, f.scoring, options);
  auto b = reloaded.TopK("smoking", {"cup"}, f.scoring, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->top.size(), b->top.size());
  for (size_t i = 0; i < a->top.size(); ++i) {
    EXPECT_EQ(a->top[i].video, b->top[i].video);
    EXPECT_DOUBLE_EQ(a->top[i].sequence.exact_score,
                     b->top[i].sequence.exact_score);
  }
}

}  // namespace
}  // namespace offline
}  // namespace vaq
