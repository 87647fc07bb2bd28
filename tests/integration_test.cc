// Cross-module integration: the full paper pipeline, end to end.
#include <filesystem>

#include <gtest/gtest.h>

#include "eval/metrics.h"
#include "offline/ingest.h"
#include "offline/repository.h"
#include "query/session.h"
#include "storage/catalog.h"
#include "synth/scenario.h"

namespace vaq {
namespace {

namespace fs = std::filesystem;

const synth::Scenario& SharedScenario() {
  static const synth::Scenario* scenario =
      new synth::Scenario(synth::Scenario::YouTube(4));  // Drinking beer.
  return *scenario;
}

TEST(IntegrationTest, OnlineResultAndOfflinePqAgree) {
  // The online engine evaluates the conjunction directly; the offline
  // ingestion evaluates each type independently and intersects (Eq. 12).
  // Run both over the same video and models: they must report nearly the
  // same frames.
  const synth::Scenario& sc = SharedScenario();
  detect::ModelBundle m1 = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 55);
  online::Svaqd engine(sc.query(), sc.layout(), online::SvaqdOptions{});
  const online::OnlineResult online_result =
      engine.Run(m1.detector.get(), m1.recognizer.get());

  detect::ModelBundle m2 = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 55);
  offline::PaperScoring scoring;
  offline::Ingestor ingestor(&sc.vocab(), &scoring, offline::IngestOptions{});
  const storage::VideoIndex index =
      std::move(ingestor.Ingest(sc.truth(), m2)).value();
  auto tables = offline::QueryTables::Bind(index, sc.query(), sc.vocab());
  ASSERT_TRUE(tables.ok());
  const IntervalSet pq = tables->ComputePq();

  const eval::F1Result agreement =
      eval::FrameLevelF1(online_result.sequences, pq, sc.layout());
  EXPECT_GT(agreement.f1, 0.9) << agreement.ToString();
  // And both track the annotated ground truth.
  EXPECT_GT(eval::FrameLevelF1(pq, sc.TruthClips(), sc.layout()).f1, 0.85);
}

TEST(IntegrationTest, DeterministicAcrossRuns) {
  const synth::Scenario& sc = SharedScenario();
  IntervalSet first;
  IntervalSet second;
  for (IntervalSet* out : {&first, &second}) {
    detect::ModelBundle models =
        detect::ModelBundle::MaskRcnnI3d(sc.truth(), 999);
    online::Svaqd engine(sc.query(), sc.layout(), online::SvaqdOptions{});
    *out = engine.Run(models.detector.get(), models.recognizer.get())
               .sequences;
  }
  EXPECT_EQ(first, second);
  // A different model seed gives a (generally) different answer.
  detect::ModelBundle other = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 1);
  online::Svaqd engine(sc.query(), sc.layout(), online::SvaqdOptions{});
  const IntervalSet third =
      engine.Run(other.detector.get(), other.recognizer.get()).sequences;
  EXPECT_FALSE(third == first);
}

TEST(IntegrationTest, CatalogRoundTripToRvaq) {
  // Ingest -> persist -> load into a fresh catalog object, the way a
  // restarted process would -> answer the query from the loaded tables;
  // results and access counts must match the in-memory run exactly.
  const synth::Scenario& sc = SharedScenario();
  detect::ModelBundle models =
      detect::ModelBundle::MaskRcnnI3d(sc.truth(), 55);
  offline::PaperScoring scoring;
  offline::Ingestor ingestor(&sc.vocab(), &scoring, offline::IngestOptions{});
  const storage::VideoIndex index =
      std::move(ingestor.Ingest(sc.truth(), models)).value();

  const std::string dir =
      (fs::temp_directory_path() / "vaq_integration_catalog").string();
  fs::remove_all(dir);
  ASSERT_TRUE(storage::Catalog(dir).Save("beer", index).ok());
  auto loaded = storage::Catalog(dir).Load("beer");
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  auto memory_tables =
      offline::QueryTables::Bind(index, sc.query(), sc.vocab());
  auto disk_tables =
      offline::QueryTables::Bind(loaded.value(), sc.query(), sc.vocab());
  ASSERT_TRUE(memory_tables.ok());
  ASSERT_TRUE(disk_tables.ok());

  offline::RvaqOptions options;
  options.k = 4;
  const offline::TopKResult expected =
      offline::Rvaq(&memory_tables.value(), &scoring, options).Run();
  const offline::TopKResult actual =
      offline::Rvaq(&disk_tables.value(), &scoring, options).Run();
  ASSERT_FALSE(expected.top.empty());
  ASSERT_EQ(actual.top.size(), expected.top.size());
  for (size_t i = 0; i < actual.top.size(); ++i) {
    EXPECT_EQ(actual.top[i].clips, expected.top[i].clips);
    EXPECT_EQ(actual.top[i].exact_score, expected.top[i].exact_score);
  }
  EXPECT_EQ(actual.pq, expected.pq);
  EXPECT_EQ(actual.accesses.ToString(), expected.accesses.ToString());
}

TEST(IntegrationTest, SqlMatchesDirectEngineCalls) {
  const synth::Scenario& sc = SharedScenario();
  query::Session session;
  session.RegisterStream("video", sc, /*model_seed=*/55);
  auto sql_result = session.Execute(
      "SELECT MERGE(clipID) FROM video "
      "WHERE act='drinking beer' AND obj.include('bottle', 'chair')");
  ASSERT_TRUE(sql_result.ok()) << sql_result.status();

  detect::ModelBundle models =
      detect::ModelBundle::MaskRcnnI3d(sc.truth(), 55);
  online::Svaqd engine(sc.query(), sc.layout(), online::SvaqdOptions{});
  const online::OnlineResult direct =
      engine.Run(models.detector.get(), models.recognizer.get());
  EXPECT_EQ(sql_result->sequences, direct.sequences);
}

TEST(IntegrationTest, RepositorySqlAndTopKAgree) {
  const synth::Scenario& sc = SharedScenario();
  detect::ModelBundle models =
      detect::ModelBundle::MaskRcnnI3d(sc.truth(), 55);
  offline::PaperScoring scoring;
  offline::Ingestor ingestor(&sc.vocab(), &scoring, offline::IngestOptions{});
  storage::VideoIndex index =
      std::move(ingestor.Ingest(sc.truth(), models)).value();

  offline::Repository repo;
  repo.Add("video", index);
  offline::RvaqOptions options;
  options.k = 3;
  auto repo_top =
      repo.TopK("drinking beer", {"bottle", "chair"}, scoring, options);
  ASSERT_TRUE(repo_top.ok());

  query::Session session;
  session.RegisterRepository("video", std::move(index));
  auto sql = session.Execute(
      "SELECT MERGE(clipID), RANK(act, obj) FROM video "
      "WHERE act='drinking beer' AND obj.include('bottle', 'chair') "
      "ORDER BY RANK(act, obj) LIMIT 3");
  ASSERT_TRUE(sql.ok()) << sql.status();
  ASSERT_EQ(sql->ranked.size(), repo_top->top.size());
  for (size_t i = 0; i < sql->ranked.size(); ++i) {
    EXPECT_EQ(sql->ranked[i].clips, repo_top->top[i].sequence.clips);
    EXPECT_DOUBLE_EQ(sql->ranked[i].exact_score,
                     repo_top->top[i].sequence.exact_score);
  }
}

}  // namespace
}  // namespace vaq
