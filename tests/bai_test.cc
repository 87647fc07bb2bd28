// The best-arm-identification subsystem (src/bai/) and its wiring
// through the query session and the cluster path.
//
// The load-bearing guarantees under test:
//
//  * bai::RandomVariables mints per-arm streams that never perturb each
//    other and folds pulls with Welford's accumulator;
//  * bai::TopKIdentifier identifies a separated top-k with a confident
//    GLR stop, exhausts its budget (keeping every non-eliminated arm)
//    on inseparable arms, freezes fully-sampled finite-support arms,
//    and hands exact ties to exact evaluation instead of spinning;
//  * a statement without WITH CONFIDENCE (or with confidence_delta == 0
//    at the AST level) is byte-identical to the exact path on every
//    surface — results, access accounting, the full metric snapshot;
//  * WITH CONFIDENCE δ > 0 runs identification deterministically, mints
//    the vaq_bai_* counters, surfaces a certificate, composes with
//    WITH RECALL, and still returns the exact top-k on the demo corpus;
//  * a cluster trial with confidence holds every chaos oracle — the
//    coordinator's per-shard identification agrees with the single-node
//    reference byte for byte (modulo the documented certificate token).
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bai/random_variables.h"
#include "bai/sequence_arms.h"
#include "bai/top_k_identifier.h"
#include "cascade/proxy_index.h"
#include "chaos/schedule.h"
#include "chaos/scenario.h"
#include "chaos/trial.h"
#include "common/rng.h"
#include "detect/model_profile.h"
#include "detect/models.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "offline/ingest.h"
#include "offline/scoring.h"
#include "query/session.h"
#include "tools/pipeline_setup.h"

namespace vaq {
namespace bai {
namespace {

// --- RandomVariables ----------------------------------------------------

TEST(RandomVariablesTest, WelfordStatisticsAndPrivateStreams) {
  RandomVariables rvs(3, /*seed=*/7);
  rvs.Record(0, 2.0);
  rvs.Record(0, 4.0);
  rvs.Record(0, 6.0);
  EXPECT_EQ(rvs.Count(0), 3);
  EXPECT_DOUBLE_EQ(rvs.Mean(0), 4.0);
  EXPECT_DOUBLE_EQ(rvs.Variance(0), 4.0);  // Unbiased: ((2²+0+2²))/2.
  EXPECT_EQ(rvs.Count(1), 0);
  EXPECT_EQ(rvs.total_pulls(), 3);

  // Streams are private and derived only from (seed, arm): two banks
  // with the same seed agree arm by arm, and sibling heads differ.
  RandomVariables again(3, /*seed=*/7);
  EXPECT_EQ(rvs.stream(1).Next(), again.stream(1).Next());
  RandomVariables fresh(3, /*seed=*/7);
  EXPECT_NE(fresh.stream(0).Next(), fresh.stream(1).Next());
}

// --- TopKIdentifier -----------------------------------------------------

TEST(TopKIdentifierTest, IdentifiesSeparatedGaussianArms) {
  IdentifyOptions options;
  options.k = 2;
  options.delta = 0.05;
  const TopKIdentifier identifier(options);
  const TopKOutcome outcome = identifier.Identify(
      8, /*seed=*/11, [](int64_t arm, Rng& rng) {
        return static_cast<double>(arm) + 0.3 * rng.Normal();
      });
  EXPECT_TRUE(outcome.certificate.stopped);
  ASSERT_EQ(outcome.top.size(), 2u);
  EXPECT_EQ(outcome.top[0], 7);
  EXPECT_EQ(outcome.top[1], 6);
  // A confident stop keeps exactly the identified top-k.
  int64_t kept = 0;
  for (const bool k : outcome.keep) kept += k ? 1 : 0;
  EXPECT_EQ(kept, 2);
  EXPECT_TRUE(outcome.keep[6]);
  EXPECT_TRUE(outcome.keep[7]);
  EXPECT_GE(outcome.certificate.stopping_statistic,
            outcome.certificate.threshold);
}

TEST(TopKIdentifierTest, DeterministicPerSeed) {
  IdentifyOptions options;
  options.k = 2;
  const TopKIdentifier identifier(options);
  const auto sampler = [](int64_t arm, Rng& rng) {
    return static_cast<double>(arm % 4) + 0.5 * rng.Normal();
  };
  const TopKOutcome a = identifier.Identify(6, /*seed=*/21, sampler);
  const TopKOutcome b = identifier.Identify(6, /*seed=*/21, sampler);
  EXPECT_EQ(a.top, b.top);
  EXPECT_EQ(a.keep, b.keep);
  EXPECT_EQ(a.certificate.pulls, b.certificate.pulls);
  EXPECT_EQ(a.certificate.total_pulls, b.certificate.total_pulls);
  EXPECT_EQ(a.certificate.stopped, b.certificate.stopped);
  EXPECT_DOUBLE_EQ(a.certificate.stopping_statistic,
                   b.certificate.stopping_statistic);
}

TEST(TopKIdentifierTest, InseparableArmsExhaustBudgetAndKeepAll) {
  // Every arm pulls the same constant: gaps are exactly zero, so the GLR
  // statistic never clears the threshold and the run must end on the
  // pull budget with every arm still in play for exact evaluation.
  IdentifyOptions options;
  options.k = 2;
  options.max_pulls_per_arm = 8;
  const TopKIdentifier identifier(options);
  const TopKOutcome outcome = identifier.Identify(
      6, /*seed=*/3, [](int64_t, Rng&) { return 5.0; });
  EXPECT_FALSE(outcome.certificate.stopped);
  EXPECT_LE(outcome.certificate.total_pulls, 8 * 6);
  for (const bool kept : outcome.keep) EXPECT_TRUE(kept);
  // Ties order by arm index.
  ASSERT_EQ(outcome.top.size(), 2u);
  EXPECT_EQ(outcome.top[0], 0);
  EXPECT_EQ(outcome.top[1], 1);
}

TEST(TopKIdentifierTest, FiniteSupportFreezesAndCertifies) {
  // Each arm cycles a 3-value support centered on its index; after 3
  // pulls its mean is exact, the arm freezes, and frozen pairs with a
  // positive gap certify outright — the run stops without spending the
  // budget a with-replacement sampler would need for the 0.4-wide gaps.
  IdentifyOptions options;
  options.k = 1;
  const TopKIdentifier identifier(options);
  std::vector<int64_t> cursor(4, 0);
  const std::vector<int64_t> support = {3, 3, 3, 3};
  const TopKOutcome outcome = identifier.Identify(
      4, /*seed=*/5,
      [&](int64_t arm, Rng&) {
        static const double offsets[3] = {0.2, -0.2, 0.0};
        const double value =
            static_cast<double>(arm) + offsets[cursor[arm] % 3];
        ++cursor[arm];
        return value;
      },
      support);
  EXPECT_TRUE(outcome.certificate.stopped);
  ASSERT_EQ(outcome.top.size(), 1u);
  EXPECT_EQ(outcome.top[0], 3);
  for (int64_t arm = 0; arm < 4; ++arm) {
    EXPECT_LE(outcome.certificate.pulls[arm], 3) << "arm " << arm;
  }
}

TEST(TopKIdentifierTest, FrozenTieKeepsBothForExactResolution) {
  // Arms 0 and 1 are exact ties once frozen; no number of pulls can
  // separate them, so the identifier must hand both to exact evaluation
  // (a budget-style epilogue) instead of spinning, while the clearly
  // worse arm 2 is still eliminated.
  IdentifyOptions options;
  options.k = 1;
  const TopKIdentifier identifier(options);
  const std::vector<int64_t> support = {2, 2, 2};
  const TopKOutcome outcome = identifier.Identify(
      3, /*seed=*/9,
      [](int64_t arm, Rng&) { return arm == 2 ? 0.0 : 1.0; }, support);
  EXPECT_FALSE(outcome.certificate.stopped);
  EXPECT_TRUE(outcome.keep[0]);
  EXPECT_TRUE(outcome.keep[1]);
  EXPECT_FALSE(outcome.keep[2]);
  EXPECT_EQ(outcome.certificate.total_pulls, 6);
}

TEST(TopKIdentifierTest, FewerArmsThanKKeepsAllWithoutPulling) {
  IdentifyOptions options;
  options.k = 5;
  const TopKIdentifier identifier(options);
  const TopKOutcome outcome = identifier.Identify(
      3, /*seed=*/1, [](int64_t, Rng&) -> double {
        ADD_FAILURE() << "no pull should be drawn";
        return 0.0;
      });
  EXPECT_TRUE(outcome.certificate.stopped);
  EXPECT_EQ(outcome.certificate.total_pulls, 0);
  EXPECT_EQ(outcome.top, (std::vector<int64_t>{0, 1, 2}));
  for (const bool kept : outcome.keep) EXPECT_TRUE(kept);
}

TEST(CertificateRenderTest, DeterministicSummaries) {
  EXPECT_EQ(RenderCertificate(0.05, 119, 3, true, 7.25),
            "bai{delta=0.05 pulls=119 eliminated=3 stopped=1 stat=7.2500}");
  EXPECT_EQ(RenderAggregateCertificate(0.1, 117, 28, 4),
            "bai{delta=0.1 pulls=117 eliminated=28 stops=4}");
}

// --- Query-session wiring ----------------------------------------------

// The BAI demo scenario (18-minute video, ~8 candidate sequences) at
// LIMIT 1, so identification engages — it only runs when there are more
// candidate sequences than k, and the 6-minute demo video merges to a
// single candidate at this query.
constexpr char kRankedSql[] =
    "SELECT MERGE(clipID) AS Sequence, RANK(act, obj) "
    "FROM (PROCESS vid0 PRODUCE clipID, obj USING ObjectTracker, "
    "act USING ActionRecognizer) "
    "WHERE act='running' AND obj.include('dog') "
    "ORDER BY RANK(act, obj) LIMIT 1";

std::string DescribeRanked(const query::QueryResult& result) {
  std::string out = result.accesses.ToString();
  for (const offline::RankedSequence& s : result.ranked) {
    out += "\n" + s.clips.ToString() +
           " lb=" + std::to_string(s.lower_bound) +
           " ub=" + std::to_string(s.upper_bound);
  }
  return out;
}

struct SessionRun {
  std::string described;
  std::string metrics;  // Every logical family: ExcludeSnapshot(..., {}).
  std::string certificate;
  int64_t pulls = 0;
  std::vector<std::string> top_clips;
  std::string profile;
};

SessionRun RunSessionStatement(const std::string& sql,
                               bool with_proxy = false) {
  obs::MetricRegistry::Global().Reset();
  synth::Scenario scenario = tools::BaiDemoScenario(0);
  const detect::ModelBundle models =
      detect::ModelBundle::MaskRcnnI3d(scenario.truth(), 21);
  offline::PaperScoring scoring;
  offline::Ingestor ingestor(&scenario.vocab(), &scoring,
                             offline::IngestOptions{});
  StatusOr<storage::VideoIndex> index =
      ingestor.Ingest(scenario.truth(), models);
  EXPECT_TRUE(index.ok());

  query::Session session;
  session.RegisterRepository("vid0", std::move(index).value());
  cascade::ProxySet proxies;
  if (with_proxy) {
    proxies.emplace("vid0",
                    cascade::BuildProxyIndex(
                        "vid0", scenario, detect::ModelProfile::ProxyCnn(),
                        21));
    session.RegisterProxySet(&proxies);
  }
  const StatusOr<query::QueryResult> result = session.Execute(sql);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  SessionRun run;
  if (result.ok()) {
    run.described = DescribeRanked(result.value());
    run.certificate = result.value().bai_certificate;
    run.pulls = result.value().bai_pulls;
    run.profile = result.value().profile_text;
    for (const offline::RankedSequence& s : result.value().ranked) {
      run.top_clips.push_back(s.clips.ToString());
    }
  }
  run.metrics = obs::ExportPrometheus(
      obs::ExcludeSnapshot(obs::MetricRegistry::Global().TakeSnapshot(), {}));
  return run;
}

TEST(BaiSessionTest, ConfidenceAbsentIsByteIdenticalToExactPath) {
  // The exact path must not know src/bai/ exists: no certificate, no
  // pulls, no vaq_bai_* families in the snapshot, and two runs agree
  // byte for byte.
  const SessionRun first = RunSessionStatement(kRankedSql);
  const SessionRun second = RunSessionStatement(kRankedSql);
  EXPECT_FALSE(first.described.empty());
  EXPECT_EQ(first.described, second.described);
  EXPECT_EQ(first.metrics, second.metrics);
  EXPECT_TRUE(first.certificate.empty());
  EXPECT_EQ(first.pulls, 0);
  EXPECT_EQ(first.metrics.find("vaq_bai_"), std::string::npos);
}

TEST(BaiSessionTest, ConfidenceIdentifiesDeterministicallyAndMatchesExact) {
  const SessionRun exact = RunSessionStatement(kRankedSql);
  const std::string sql = std::string(kRankedSql) + " WITH CONFIDENCE 0.05";
  const SessionRun sampled = RunSessionStatement(sql);
  // Identification ran: pulls were drawn, the certificate is rendered,
  // and the counters exist.
  EXPECT_GT(sampled.pulls, 0);
  EXPECT_EQ(sampled.certificate.rfind("bai{", 0), 0u)
      << sampled.certificate;
  EXPECT_NE(sampled.metrics.find("vaq_bai_pulls_total"), std::string::npos);
  // The exact re-rank of the survivors returns the exact top-k.
  EXPECT_EQ(sampled.top_clips, exact.top_clips);
  // Deterministic per statement: certificate, results and the full
  // snapshot reproduce.
  const SessionRun again = RunSessionStatement(sql);
  EXPECT_EQ(sampled.described, again.described);
  EXPECT_EQ(sampled.metrics, again.metrics);
  EXPECT_EQ(sampled.certificate, again.certificate);
}

TEST(BaiSessionTest, ConfidenceComposesWithRecall) {
  const std::string sql = std::string(kRankedSql) +
                          " WITH RECALL 0.9 WITH CONFIDENCE 0.1";
  const SessionRun first = RunSessionStatement(sql, /*with_proxy=*/true);
  // Both subsystems ran: the cascade planned (vaq_cascade_*) and the
  // sampler certified (certificate present even when the proxy prune
  // leaves fewer candidates than k+1 — the certificate then records
  // zero pulls).
  EXPECT_NE(first.metrics.find("vaq_cascade_plans_total"),
            std::string::npos);
  EXPECT_EQ(first.certificate.rfind("bai{", 0), 0u) << first.certificate;
  const SessionRun second = RunSessionStatement(sql, /*with_proxy=*/true);
  EXPECT_EQ(first.described, second.described);
  EXPECT_EQ(first.metrics, second.metrics);
}

TEST(BaiSessionTest, ExplainAnalyzeShowsBaiPhaseOnlyWhenSampling) {
  const SessionRun sampled = RunSessionStatement(
      "EXPLAIN ANALYZE " + std::string(kRankedSql) + " WITH CONFIDENCE 0.05");
  EXPECT_NE(sampled.profile.find("bai"), std::string::npos)
      << sampled.profile;
  const SessionRun exact =
      RunSessionStatement("EXPLAIN ANALYZE " + std::string(kRankedSql));
  EXPECT_FALSE(exact.profile.empty());
  EXPECT_EQ(exact.profile.find("bai"), std::string::npos) << exact.profile;
}

// --- Cluster path -------------------------------------------------------

TEST(BaiClusterTest, ClusterConfidenceTrialHoldsEveryChaosOracle) {
  // A fault-free cluster trial with WITH CONFIDENCE: the coordinator
  // runs per-shard identification while the single-node reference
  // identifies over the same videos with the same base seed, and the
  // chaos byte-identity oracle (relaxed only over the documented
  // certificate token) plus the status and progress oracles must all
  // hold — per-shard identification cannot change what is served.
  chaos::TrialScenario scenario;
  scenario.trial = 1;
  scenario.phase = chaos::Phase::kCluster;
  scenario.minutes = 1;
  scenario.num_videos = 2;
  scenario.num_shards = 2;
  scenario.num_replicas = 1;
  scenario.batch_size = 2;
  scenario.k = 2;
  scenario.confidence = 0.05;
  chaos::IndexCache cache;
  const StatusOr<chaos::TrialResult> result = chaos::RunTrial(
      scenario, chaos::Schedule{}, chaos::TrialOptions{}, &cache);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->violations.empty())
      << result->violations.front();
  EXPECT_EQ(result->coverage.count("bai.cluster_trials"), 1u);
}

}  // namespace
}  // namespace bai
}  // namespace vaq
