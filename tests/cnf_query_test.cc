#include "video/cnf_query.h"

#include <gtest/gtest.h>

#include "detect/models.h"
#include "eval/metrics.h"
#include "offline/baselines.h"
#include "offline/ingest.h"
#include "offline/rvaq.h"
#include "online/svaqd.h"
#include "query/session.h"
#include "synth/scenario.h"

namespace vaq {
namespace {

// A scenario with two actions and several objects so disjunctions have
// something to range over.
const synth::Scenario& CnfScenario() {
  static const synth::Scenario* scenario = [] {
    synth::ScenarioSpec spec;
    spec.name = "cnf_test";
    spec.minutes = 8;
    spec.fps = 30;
    spec.seed = 321;
    for (const char* action : {"jumping", "waving"}) {
      synth::ActionTrackSpec a;
      a.name = action;
      a.duty = 0.22;
      a.mean_len_frames = 1100;
      spec.actions.push_back(a);
    }
    int i = 0;
    for (const char* object : {"car", "truck", "human"}) {
      synth::ObjectTrackSpec o;
      o.name = object;
      o.background_duty = 0.08;
      o.mean_len_frames = 800;
      o.coupled_action = (i++ % 2 == 0) ? "jumping" : "waving";
      o.cover_action_prob = 0.85;
      spec.objects.push_back(o);
    }
    return new synth::Scenario(
        synth::Scenario::FromSpec(spec, "jumping", {"car"}));
  }();
  return *scenario;
}

TEST(CnfQueryTest, FromConjunctiveLiftsToSingletonClauses) {
  const synth::Scenario& sc = CnfScenario();
  const CnfQuery cnf = CnfQuery::FromConjunctive(sc.query());
  ASSERT_EQ(cnf.num_clauses(), 2);
  EXPECT_EQ(cnf.clauses[0].literals[0],
            Literal::Object(sc.query().objects[0]));
  EXPECT_EQ(cnf.clauses[1].literals[0], Literal::Action(sc.query().action));
}

TEST(CnfQueryTest, FromNamesAndToString) {
  const synth::Scenario& sc = CnfScenario();
  auto cnf = CnfQuery::FromNames(
      sc.vocab(), {{"obj:car", "obj:truck"}, {"act:jumping"}});
  ASSERT_TRUE(cnf.ok()) << cnf.status();
  EXPECT_EQ(cnf->num_clauses(), 2);
  EXPECT_EQ(cnf->ToString(sc.vocab()),
            "(obj=car OR obj=truck) AND act=jumping");
  EXPECT_FALSE(CnfQuery::FromNames(sc.vocab(), {{"obj:ghost"}}).ok());
  EXPECT_FALSE(CnfQuery::FromNames(sc.vocab(), {{"car"}}).ok());
  EXPECT_FALSE(CnfQuery::FromNames(sc.vocab(), {{}}).ok());
  EXPECT_FALSE(CnfQuery::FromNames(sc.vocab(), {}).ok());
}

TEST(CnfQueryTest, DistinctLiteralsDeduplicates) {
  const synth::Scenario& sc = CnfScenario();
  auto cnf = CnfQuery::FromNames(sc.vocab(), {{"obj:car", "obj:truck"},
                                              {"obj:car", "act:jumping"}});
  ASSERT_TRUE(cnf.ok());
  EXPECT_EQ(cnf->DistinctLiterals().size(), 3u);
}

// ---------------------------------------------------------------------------
// Online CNF queries (the one online engine over general CNF).
// ---------------------------------------------------------------------------

TEST(CnfEngineTest, ConjunctiveCnfMatchesSvaqd) {
  // A conjunctive query lifted to CNF must produce the same sequences and
  // model calls as the QuerySpec form: the lift keeps Algorithm 2's
  // objects-before-action order, so the estimator observation streams
  // coincide too.
  const synth::Scenario& sc = CnfScenario();
  detect::ModelBundle m1 = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 9);
  const online::OnlineResult expected =
      online::Svaqd(sc.query(), sc.layout(), online::SvaqdOptions{})
          .Run(m1.detector.get(), m1.recognizer.get());

  detect::ModelBundle m2 = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 9);
  const online::OnlineResult actual =
      online::Svaqd(CnfQuery::FromConjunctive(sc.query()), sc.layout(),
                    online::SvaqdOptions{})
          .Run(m2.detector.get(), m2.recognizer.get());
  EXPECT_EQ(actual.sequences, expected.sequences);
  EXPECT_EQ(actual.detector_stats.type_queries,
            expected.detector_stats.type_queries);
  EXPECT_EQ(actual.recognizer_stats.type_queries,
            expected.recognizer_stats.type_queries);
}

TEST(CnfEngineTest, DisjunctionWithIdealModelsMatchesClauseSemantics) {
  const synth::Scenario& sc = CnfScenario();
  detect::ModelBundle models = detect::ModelBundle::Ideal(sc.truth(), 9);
  auto cnf = CnfQuery::FromNames(sc.vocab(),
                                 {{"act:jumping", "act:waving"}});
  ASSERT_TRUE(cnf.ok());
  // Zero prior + noise-free models pin every k_crit at 1 from the first
  // clip, making the clause semantics exactly checkable.
  online::SvaqdOptions options;
  options.base.p0_object = 1e-9;
  options.base.p0_action = 1e-9;
  options.prior_weight = 0;
  const online::OnlineResult result =
      online::Svaqd(*cnf, sc.layout(), options)
          .Run(models.detector.get(), models.recognizer.get());
  // With ideal models and k_crit = 1, a clip fires iff either action has
  // at least one (half-covered) truth shot in it.
  const ActionTypeId jumping = sc.vocab().FindActionType("jumping");
  const ActionTypeId waving = sc.vocab().FindActionType("waving");
  const IntervalSet jump_shots = sc.truth().ActionShots(jumping);
  const IntervalSet wave_shots = sc.truth().ActionShots(waving);
  for (ClipIndex c = 0; c < sc.layout().NumClips(); ++c) {
    const Interval shots = sc.layout().ClipShotRange(c);
    bool expected = false;
    for (ShotIndex s = shots.lo; s <= shots.hi && !expected; ++s) {
      expected = jump_shots.Contains(s) || wave_shots.Contains(s);
    }
    EXPECT_EQ(result.clip_indicator[static_cast<size_t>(c)], expected)
        << "clip " << c;
  }
}

TEST(CnfEngineTest, MultipleActionsConjunction) {
  // Footnote 3: both actions must be present.
  const synth::Scenario& sc = CnfScenario();
  detect::ModelBundle models = detect::ModelBundle::Ideal(sc.truth(), 9);
  auto cnf = CnfQuery::FromNames(sc.vocab(),
                                 {{"act:jumping"}, {"act:waving"}});
  ASSERT_TRUE(cnf.ok());
  const online::OnlineResult both =
      online::Svaqd(*cnf, sc.layout(), online::SvaqdOptions{})
          .Run(models.detector.get(), models.recognizer.get());

  detect::ModelBundle m2 = detect::ModelBundle::Ideal(sc.truth(), 9);
  auto only_jump = CnfQuery::FromNames(sc.vocab(), {{"act:jumping"}});
  const online::OnlineResult jump =
      online::Svaqd(*only_jump, sc.layout(), online::SvaqdOptions{})
          .Run(m2.detector.get(), m2.recognizer.get());
  // Conjunction is a subset of each conjunct.
  EXPECT_EQ(both.sequences.Intersect(jump.sequences), both.sequences);
  EXPECT_LE(both.sequences.TotalLength(), jump.sequences.TotalLength());
}

TEST(CnfEngineTest, DisjunctionIsSupersetOfEachDisjunct) {
  const synth::Scenario& sc = CnfScenario();
  auto disjunction =
      CnfQuery::FromNames(sc.vocab(), {{"obj:car", "obj:truck"}});
  detect::ModelBundle m1 = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 5);
  const online::OnlineResult either =
      online::Svaqd(*disjunction, sc.layout(), online::SvaqdOptions{})
          .Run(m1.detector.get(), m1.recognizer.get());

  auto car_only = CnfQuery::FromNames(sc.vocab(), {{"obj:car"}});
  detect::ModelBundle m2 = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 5);
  const online::OnlineResult car =
      online::Svaqd(*car_only, sc.layout(), online::SvaqdOptions{})
          .Run(m2.detector.get(), m2.recognizer.get());
  // Every clip matching "car" also matches "car OR truck" (same models,
  // same seeds, adaptive thresholds estimated from the same counts).
  EXPECT_EQ(car.sequences.Intersect(either.sequences), car.sequences);
}

TEST(CnfEngineTest, StaticModeHonorsInitialCriticalValues) {
  const synth::Scenario& sc = CnfScenario();
  detect::ModelBundle models = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 5);
  online::SvaqdOptions options;
  options.adaptive = false;
  options.base.p0_object = 0.9;  // Hostile: k_crit = never.
  options.base.p0_action = 0.9;
  const online::OnlineResult result =
      online::Svaqd(CnfQuery::FromConjunctive(sc.query()), sc.layout(),
                    options)
          .Run(models.detector.get(), models.recognizer.get());
  EXPECT_TRUE(result.sequences.empty());  // Static mode cannot recover.
}

// ---------------------------------------------------------------------------
// Offline CNF.
// ---------------------------------------------------------------------------

struct OfflineCnfFixture {
  const synth::Scenario& scenario = CnfScenario();
  offline::PaperScoring paper_scoring;
  offline::CnfScoring cnf_scoring;
  storage::VideoIndex index;

  OfflineCnfFixture() {
    detect::ModelBundle models =
        detect::ModelBundle::MaskRcnnI3d(scenario.truth(), 31);
    offline::Ingestor ingestor(&scenario.vocab(), &paper_scoring,
                               offline::IngestOptions{});
    index = std::move(ingestor.Ingest(scenario.truth(), models)).value();
  }
};

OfflineCnfFixture& GetOfflineCnf() {
  static OfflineCnfFixture* fixture = new OfflineCnfFixture();
  return *fixture;
}

TEST(OfflineCnfTest, BindCnfSharesTablesAcrossClauses) {
  OfflineCnfFixture& f = GetOfflineCnf();
  auto cnf = CnfQuery::FromNames(
      f.scenario.vocab(),
      {{"obj:car", "obj:truck"}, {"obj:car", "act:jumping"}});
  ASSERT_TRUE(cnf.ok());
  auto tables =
      offline::QueryTables::BindCnf(f.index, *cnf, f.scenario.vocab());
  ASSERT_TRUE(tables.ok()) << tables.status();
  EXPECT_EQ(tables->num_tables(), 3);  // car, truck, jumping — car shared.
  ASSERT_EQ(tables->schema.clauses.size(), 2u);
  EXPECT_EQ(tables->schema.clauses[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(tables->schema.clauses[1], (std::vector<int>{0, 2}));
}

TEST(OfflineCnfTest, PqIsClausewiseIntersectionOfUnions) {
  OfflineCnfFixture& f = GetOfflineCnf();
  auto cnf = CnfQuery::FromNames(
      f.scenario.vocab(), {{"obj:car", "obj:truck"}, {"act:jumping"}});
  ASSERT_TRUE(cnf.ok());
  auto tables =
      offline::QueryTables::BindCnf(f.index, *cnf, f.scenario.vocab());
  ASSERT_TRUE(tables.ok());
  IntervalSet clause;
  clause.AssignUnion(*tables->sequences[0], *tables->sequences[1]);
  EXPECT_EQ(tables->ComputePq(), clause.Intersect(*tables->sequences[2]));
}

TEST(OfflineCnfTest, RvaqMatchesBruteForceOnCnfQuery) {
  OfflineCnfFixture& f = GetOfflineCnf();
  auto cnf = CnfQuery::FromNames(
      f.scenario.vocab(),
      {{"obj:car", "obj:truck"}, {"act:jumping", "act:waving"}});
  ASSERT_TRUE(cnf.ok());
  auto tables =
      offline::QueryTables::BindCnf(f.index, *cnf, f.scenario.vocab());
  ASSERT_TRUE(tables.ok());
  for (int64_t k : {1, 3, 5}) {
    const offline::TopKResult expected =
        offline::PqTraverse(*tables, f.cnf_scoring, k);
    offline::RvaqOptions options;
    options.k = k;
    const offline::TopKResult rvaq =
        offline::Rvaq(&tables.value(), &f.cnf_scoring, options).Run();
    ASSERT_EQ(rvaq.top.size(), expected.top.size()) << "k=" << k;
    for (size_t i = 0; i < rvaq.top.size(); ++i) {
      EXPECT_DOUBLE_EQ(rvaq.top[i].exact_score, expected.top[i].exact_score)
          << "k=" << k << " i=" << i;
    }
  }
}

TEST(OfflineCnfTest, SessionExecutesCnfStatements) {
  OfflineCnfFixture& f = GetOfflineCnf();
  query::Session session;
  session.RegisterStream("stream", f.scenario, 7);
  session.RegisterRepository("repo", f.index);

  auto online_result = session.Execute(
      "SELECT MERGE(clipID) FROM stream "
      "WHERE (obj='car' OR obj='truck') AND act='jumping'");
  ASSERT_TRUE(online_result.ok()) << online_result.status();
  EXPECT_TRUE(online_result->online);
  EXPECT_GT(online_result->sequences.TotalLength(), 0);

  auto offline_result = session.Execute(
      "SELECT MERGE(clipID), RANK(act, obj) FROM repo "
      "WHERE (obj='car' OR obj='truck') AND act='jumping' "
      "ORDER BY RANK(act, obj) LIMIT 3");
  ASSERT_TRUE(offline_result.ok()) << offline_result.status();
  EXPECT_FALSE(offline_result->online);
  EXPECT_GE(offline_result->ranked.size(), 1u);
  EXPECT_LE(offline_result->ranked.size(), 3u);

  // Multiple actions (footnote 3) through SQL.
  auto both_actions = session.Execute(
      "SELECT MERGE(clipID) FROM stream "
      "WHERE act='jumping' AND act='waving'");
  ASSERT_TRUE(both_actions.ok()) << both_actions.status();
}

}  // namespace
}  // namespace vaq
