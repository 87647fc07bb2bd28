// Edge-path coverage across modules: odd layouts, CNF query corner
// configurations, catalog overwrite semantics.
#include <filesystem>

#include <gtest/gtest.h>

#include "detect/models.h"
#include "online/streaming.h"
#include "online/svaqd.h"
#include "storage/catalog.h"
#include "synth/generator.h"

namespace vaq {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const char* name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

TEST(CatalogEdgeTest, SaveOverwritesExistingVideo) {
  const storage::Catalog catalog(TempDir("vaq_misc_overwrite"));
  storage::VideoIndex first;
  first.video_id = 1;
  first.num_clips = 4;
  storage::TypeIndex t;
  t.type_id = 0;
  t.type_name = "car";
  t.table = std::move(storage::ScoreTable::Build(
                          {{0, 1.0}, {1, 2.0}, {2, 3.0}, {3, 4.0}}))
                .value();
  first.objects.push_back(std::move(t));
  ASSERT_TRUE(catalog.Save("v", first).ok());

  storage::VideoIndex second = std::move(first);
  second.video_id = 99;
  ASSERT_TRUE(catalog.Save("v", second).ok());
  auto loaded = catalog.Load("v");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->video_id, 99);
}

TEST(VideoLayoutEdgeTest, SingleClipVideo) {
  const VideoLayout layout(7, 10, 10);  // Shorter than one shot.
  EXPECT_EQ(layout.NumShots(), 1);
  EXPECT_EQ(layout.NumClips(), 1);
  EXPECT_EQ(layout.ShotFrameRange(0), Interval(0, 6));
  EXPECT_EQ(layout.ClipFrameRange(0), Interval(0, 6));
}

TEST(CnfEngineEdgeTest, SingleLiteralActionOnlyQuery) {
  synth::ScenarioSpec spec;
  spec.minutes = 3;
  spec.seed = 12;
  synth::ActionTrackSpec action;
  action.name = "spin";
  action.duty = 0.3;
  action.mean_len_frames = 800;
  spec.actions.push_back(action);
  Vocabulary vocab;
  const synth::GroundTruth truth = synth::Generate(spec, vocab);
  detect::ModelBundle models = detect::ModelBundle::Ideal(truth, 1);
  auto cnf = CnfQuery::FromNames(vocab, {{"act:spin"}});
  ASSERT_TRUE(cnf.ok());
  online::SvaqdOptions options;
  options.probe_period = 0;  // No probing needed: single literal.
  online::StreamingSvaqd engine(*cnf, truth.layout(), options, nullptr);
  for (ClipIndex c = 0; c < truth.layout().NumClips(); ++c) {
    ASSERT_TRUE(
        engine.PushClip(/*detector=*/nullptr, models.recognizer.get()).ok());
  }
  engine.Finish();
  EXPECT_GT(engine.sequences().TotalLength(), 0);
  EXPECT_EQ(engine.literals().size(), 1u);
}

TEST(CnfEngineEdgeTest, RepeatedLiteralAcrossClausesEvaluatedOnce) {
  synth::ScenarioSpec spec;
  spec.minutes = 3;
  spec.seed = 13;
  synth::ActionTrackSpec action;
  action.name = "spin";
  spec.actions.push_back(action);
  synth::ObjectTrackSpec obj;
  obj.name = "car";
  obj.background_duty = 0.3;
  obj.mean_len_frames = 600;
  spec.objects.push_back(obj);
  Vocabulary vocab;
  const synth::GroundTruth truth = synth::Generate(spec, vocab);
  detect::ModelBundle models = detect::ModelBundle::MaskRcnnI3d(truth, 1);
  // "car" appears in both clauses; type_queries must not double per clip.
  auto cnf = CnfQuery::FromNames(
      vocab, {{"obj:car"}, {"obj:car", "act:spin"}});
  ASSERT_TRUE(cnf.ok());
  online::SvaqdOptions options;
  options.base.short_circuit = false;
  const online::OnlineResult result =
      online::Svaqd(*cnf, truth.layout(), options)
          .Run(models.detector.get(), models.recognizer.get());
  // Every frame is queried for "car" exactly once (plus action shots for
  // the second clause when reached).
  EXPECT_LE(models.detector->stats().type_queries,
            truth.layout().num_frames());
  EXPECT_EQ(result.clips_processed, truth.layout().NumClips());
}

TEST(VocabularyEdgeTest, ObjectAndActionNamespacesAreSeparate) {
  Vocabulary vocab;
  const ObjectTypeId obj = vocab.AddObjectType("running");
  const ActionTypeId act = vocab.AddActionType("running");
  EXPECT_EQ(obj, 0);
  EXPECT_EQ(act, 0);  // Same dense id in a different space: no clash.
  EXPECT_EQ(vocab.ObjectTypeName(obj), vocab.ActionTypeName(act));
}

}  // namespace
}  // namespace vaq
