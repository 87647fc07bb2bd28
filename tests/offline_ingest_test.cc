#include "offline/ingest.h"

#include <filesystem>

#include <gtest/gtest.h>

#include "eval/metrics.h"
#include "offline/baselines.h"
#include "offline/rvaq.h"
#include "synth/scenario.h"

namespace vaq {
namespace offline {
namespace {

// One shared small scenario + ingestion (building it is the expensive
// part; the assertions are cheap).
struct Fixture {
  synth::Scenario scenario;
  detect::ModelBundle models;
  PaperScoring scoring;
  storage::VideoIndex index;

  Fixture()
      : scenario(MakeScenario()),
        models(detect::ModelBundle::MaskRcnnI3d(scenario.truth(), 17)) {
    Ingestor ingestor(&scenario.vocab(), &scoring, IngestOptions{});
    index = std::move(ingestor.Ingest(scenario.truth(), models)).value();
  }

  static synth::Scenario MakeScenario() {
    synth::ScenarioSpec spec;
    spec.name = "ingest_test";
    spec.minutes = 6;
    spec.fps = 30;
    spec.seed = 99;
    synth::ActionTrackSpec action;
    action.name = "smoking";
    action.duty = 0.18;
    action.mean_len_frames = 500;
    spec.actions.push_back(action);
    for (const char* name : {"cup", "wine glass", "tv"}) {
      synth::ObjectTrackSpec obj;
      obj.name = name;
      obj.background_duty = 0.06;
      obj.mean_len_frames = 500;
      if (std::string(name) != "tv") {
        obj.coupled_action = "smoking";
        obj.cover_action_prob = 0.9;
      }
      spec.objects.push_back(obj);
    }
    return synth::Scenario::FromSpec(spec, "smoking", {"cup", "wine glass"});
  }
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

TEST(IngestTest, CoversEveryVocabularyType) {
  const Fixture& f = GetFixture();
  EXPECT_EQ(f.index.objects.size(),
            static_cast<size_t>(f.scenario.vocab().num_object_types()));
  EXPECT_EQ(f.index.actions.size(),
            static_cast<size_t>(f.scenario.vocab().num_action_types()));
  EXPECT_EQ(f.index.num_clips, f.scenario.layout().NumClips());
  for (const storage::TypeIndex& t : f.index.objects) {
    EXPECT_EQ(t.table.num_rows(), f.index.num_clips);
    EXPECT_FALSE(t.type_name.empty());
  }
}

TEST(IngestTest, ScoresAreNonNegativeAndSignalBearing) {
  const Fixture& f = GetFixture();
  const storage::TypeIndex* cup = f.index.FindObjectByName("cup");
  ASSERT_NE(cup, nullptr);
  double max_score = 0;
  for (int64_t c = 0; c < f.index.num_clips; ++c) {
    const double s = cup->table.PeekScore(c);
    EXPECT_GE(s, 0.0);
    max_score = std::max(max_score, s);
  }
  EXPECT_GT(max_score, 1.0);  // Real detections accumulated somewhere.
}

TEST(IngestTest, HighScoringClipsAreWhereTheObjectIs) {
  const Fixture& f = GetFixture();
  const storage::TypeIndex* cup = f.index.FindObjectByName("cup");
  ASSERT_NE(cup, nullptr);
  const IntervalSet truth_clips = f.scenario.layout().FramesToClips(
      f.scenario.truth().ObjectFrames(
          f.scenario.vocab().FindObjectType("cup")));
  // The top-20 scoring clips should overwhelmingly be truth clips.
  int in_truth = 0;
  for (int64_t rank = 0; rank < 20; ++rank) {
    if (truth_clips.Contains(cup->table.SortedRow(rank).clip)) ++in_truth;
  }
  cup->table.ResetCounter();
  EXPECT_GE(in_truth, 18);
}

TEST(IngestTest, IndividualSequencesTrackTypeTruth) {
  const Fixture& f = GetFixture();
  const storage::TypeIndex* action = f.index.FindActionByName("smoking");
  ASSERT_NE(action, nullptr);
  const IntervalSet truth_clips = f.scenario.layout().FramesToClips(
      f.scenario.truth().ActionFrames(
          f.scenario.vocab().FindActionType("smoking")));
  const auto f1 =
      eval::FrameLevelF1(action->sequences, truth_clips, f.scenario.layout());
  EXPECT_GT(f1.f1, 0.85) << f1.ToString();
}

TEST(IngestTest, PqApproximatesQueryTruth) {
  const Fixture& f = GetFixture();
  auto tables =
      QueryTables::Bind(f.index, f.scenario.query(), f.scenario.vocab());
  ASSERT_TRUE(tables.ok());
  const IntervalSet pq = tables->ComputePq();
  const auto f1 = eval::FrameLevelF1(pq, f.scenario.TruthClips(),
                                     f.scenario.layout());
  EXPECT_GT(f1.f1, 0.8) << f1.ToString();
}

TEST(IngestTest, BindFailsForUnknownTypes) {
  const Fixture& f = GetFixture();
  Vocabulary other;
  other.AddObjectType("ghost");
  QuerySpec spec;
  spec.objects = {static_cast<ObjectTypeId>(99)};
  EXPECT_FALSE(QueryTables::Bind(f.index, spec, f.scenario.vocab()).ok());
}

TEST(IngestTest, RvaqOverIngestedIndexMatchesBruteForce) {
  const Fixture& f = GetFixture();
  auto tables =
      QueryTables::Bind(f.index, f.scenario.query(), f.scenario.vocab());
  ASSERT_TRUE(tables.ok());
  const TopKResult expected = PqTraverse(*tables, f.scoring, 3);
  RvaqOptions options;
  options.k = 3;
  const TopKResult rvaq = Rvaq(&tables.value(), &f.scoring, options).Run();
  ASSERT_EQ(rvaq.top.size(), expected.top.size());
  for (size_t i = 0; i < rvaq.top.size(); ++i) {
    EXPECT_EQ(rvaq.top[i].clips, expected.top[i].clips);
    EXPECT_DOUBLE_EQ(rvaq.top[i].exact_score, expected.top[i].exact_score);
  }
}

TEST(IngestTest, InertFaultPlanMatchesFaultFreeIndex) {
  const Fixture& f = GetFixture();
  // A zero-rate plan is inert: the ingest succeeds and matches the
  // fault-free fixture index.
  fault::FaultSpec none;
  const fault::FaultPlan inert(none, /*seed=*/7);
  IngestOptions clean_options;
  clean_options.fault_plan = &inert;
  Ingestor clean(&f.scenario.vocab(), &f.scoring, clean_options);
  detect::ModelBundle models =
      detect::ModelBundle::MaskRcnnI3d(f.scenario.truth(), 17);
  const auto clean_result = clean.Ingest(f.scenario.truth(), models);
  ASSERT_TRUE(clean_result.ok()) << clean_result.status();
  EXPECT_EQ(clean_result->num_clips, f.index.num_clips);
  for (size_t t = 0; t < f.index.objects.size(); ++t) {
    EXPECT_EQ(clean_result->objects[t].sequences,
              f.index.objects[t].sequences);
  }
}

TEST(IngestTest, CatalogRoundTripPreservesQueryResults) {
  const Fixture& f = GetFixture();
  const std::string dir =
      (std::filesystem::temp_directory_path() / "vaq_ingest_cat").string();
  std::filesystem::remove_all(dir);
  const storage::Catalog catalog(dir);
  ASSERT_TRUE(catalog.Save("test_video", f.index).ok());
  auto loaded = catalog.Load("test_video");
  ASSERT_TRUE(loaded.ok());
  auto original_tables =
      QueryTables::Bind(f.index, f.scenario.query(), f.scenario.vocab());
  auto loaded_tables =
      QueryTables::Bind(*loaded, f.scenario.query(), f.scenario.vocab());
  ASSERT_TRUE(loaded_tables.ok());
  RvaqOptions options;
  options.k = 3;
  const TopKResult a =
      Rvaq(&original_tables.value(), &f.scoring, options).Run();
  const TopKResult b = Rvaq(&loaded_tables.value(), &f.scoring, options).Run();
  ASSERT_EQ(a.top.size(), b.top.size());
  for (size_t i = 0; i < a.top.size(); ++i) {
    EXPECT_EQ(a.top[i].clips, b.top[i].clips);
    EXPECT_DOUBLE_EQ(a.top[i].exact_score, b.top[i].exact_score);
  }
}

}  // namespace
}  // namespace offline
}  // namespace vaq
