// Ranked-statement golden.
//
// Pins what a ranked statement observably produces, whichever executor
// answers it, to tests/golden/ranked_statements.txt: the status text,
// the EXPLAIN ANALYZE profile tree, every ranked row (bounds and exact
// scores at full precision), the access accounting, the rendered cascade
// plan, the adaptive-sampling certificate, and the vaq_cascade_*,
// vaq_bai_*, vaq_session_statements_total and vaq_cluster_queries_total
// families the statement leaves behind.
//
// The corpus is tools::MakeCascadeDemo(8, 11). One Session holds every
// video, the demo proxy set and a 4-shard coordinator registered as
// "corpus", so a statement over one video runs the single-video step and
// a statement over "corpus" runs the scatter-gather. Each of the two is
// run exact, WITH RECALL 0.9, WITH CONFIDENCE 0.05 and with both clauses.
// Further cases: a CNF statement on each side, a missing type, vid5 at
// WITH RECALL 0.1 (the proxy rules out every clip of vid5, so the video
// is answered without binding and renders neither a ranked nor a bai
// node), the corpus at that τ, a served ranked statement over vid2 and
// over "corpus", and two standing WITH RECALL 0.9 admissions (a
// conjunction and a CNF one).
// LIMIT 2 leaves more candidates than winners in most videos, so
// WITH CONFIDENCE samples.
//
// A failure names the case and the first line that moved. Regenerate
// only alongside an intended, documented output change:
//   VAQ_REGEN_GOLDEN=1 ./ranked_statements_test
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/coordinator.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "query/session.h"
#include "serve/server.h"
#include "tools/pipeline_setup.h"

#ifndef VAQ_GOLDEN_DIR
#error "VAQ_GOLDEN_DIR must point at tests/golden"
#endif

namespace vaq {
namespace {

constexpr int kVideos = 8;
constexpr uint64_t kSeed = 11;

std::string RankedSql(const std::string& video, const std::string& where,
                      const std::string& suffix) {
  return "EXPLAIN ANALYZE SELECT MERGE(clipID) AS Sequence, RANK(act, obj) "
         "FROM (PROCESS " +
         video +
         " PRODUCE clipID, obj USING ObjectTracker, act USING "
         "ActionRecognizer) WHERE " +
         where + " ORDER BY RANK(act, obj) LIMIT 2" + suffix;
}

constexpr char kConjunction[] = "act='running' AND obj.include('dog')";
constexpr char kCnf[] = "(obj='dog' OR obj='car') AND act='running'";

std::string Format(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

// The families a ranked statement may touch, as Prometheus text.
std::string StatementMetrics() {
  return obs::ExportPrometheus(obs::FilterSnapshot(
      obs::MetricRegistry::Global().TakeSnapshot(),
      {"vaq_cascade_", "vaq_bai_", "vaq_session_statements_total",
       "vaq_cluster_queries_total"}));
}

void RenderResult(const query::QueryResult& result, std::string* out) {
  *out += "online: " + std::to_string(result.online) + "\n";
  *out += "cascade_plan: " + result.cascade_plan + "\n";
  *out += "bai_certificate: " + result.bai_certificate + "\n";
  *out += "bai: pulls=" + std::to_string(result.bai_pulls) +
          " arms_eliminated=" + std::to_string(result.bai_arms_eliminated) +
          "\n";
  *out += "clips_pruned: " + std::to_string(result.clips_pruned) + "\n";
  *out += "accesses: " + result.accesses.ToString() + "\n";
  *out += "sequences: " + result.sequences.ToString() + "\n";
  for (const offline::RankedSequence& row : result.ranked) {
    *out += "row " + row.clips.ToString() +
            Format(" lb=%.17g", row.lower_bound) +
            Format(" ub=%.17g", row.upper_bound) +
            Format(" exact=%.17g", row.exact_score) +
            " has_exact=" + std::to_string(row.has_exact) + "\n";
  }
  *out += "profile:\n" + result.profile_text;
}

std::string Render() {
  StatusOr<tools::CascadeDemo> demo = tools::MakeCascadeDemo(kVideos, kSeed);
  EXPECT_TRUE(demo.ok()) << demo.status();
  if (!demo.ok()) return "";

  cluster::ClusterOptions cluster_options;
  cluster_options.num_shards = 4;
  cluster_options.proxy = &demo->proxies;
  cluster::Coordinator coordinator(&demo->repository, cluster_options);
  query::Session session;
  for (const std::string& name : demo->videos) {
    session.RegisterRepository(name, *demo->repository.Find(name));
  }
  session.RegisterProxySet(&demo->proxies);
  session.RegisterRankedBackend("corpus", &coordinator);

  struct Case {
    std::string label;
    std::string sql;
  };
  std::vector<Case> cases;
  const std::vector<std::pair<std::string, std::string>> clauses = {
      {"exact", ""},
      {"recall", " WITH RECALL 0.9"},
      {"confidence", " WITH CONFIDENCE 0.05"},
      {"recall+confidence", " WITH RECALL 0.9 WITH CONFIDENCE 0.05"}};
  for (const std::string video : {"vid2", "corpus"}) {
    for (const auto& [label, suffix] : clauses) {
      cases.push_back({video + " " + label,
                       RankedSql(video, kConjunction, suffix)});
    }
  }
  cases.push_back({"vid2 cnf", RankedSql("vid2", kCnf, "")});
  cases.push_back(
      {"vid2 cnf recall", RankedSql("vid2", kCnf, " WITH RECALL 0.9")});
  cases.push_back({"corpus cnf", RankedSql("corpus", kCnf, "")});
  cases.push_back({"vid2 missing type",
                   RankedSql("vid2", "act='running' AND obj.include('cat')",
                             " WITH RECALL 0.9")});
  cases.push_back({"corpus missing type",
                   RankedSql("corpus", "act='running' AND obj.include('cat')",
                             "")});
  cases.push_back({"vid5 pruned whole",
                   RankedSql("vid5", kConjunction, " WITH RECALL 0.1")});
  cases.push_back({"vid5 pruned whole with confidence",
                   RankedSql("vid5", kConjunction,
                             " WITH RECALL 0.1 WITH CONFIDENCE 0.05")});
  cases.push_back({"corpus recall 0.1",
                   RankedSql("corpus", kConjunction,
                             " WITH RECALL 0.1 WITH CONFIDENCE 0.05")});

  std::string out;
  for (const Case& c : cases) {
    obs::MetricRegistry::Global().Reset();
    out += "[" + c.label + "]\n" + c.sql + "\n";
    const StatusOr<query::QueryResult> result = session.Execute(c.sql);
    out += "status: " + result.status().ToString() + "\n";
    if (result.ok()) RenderResult(*result, &out);
    out += "metrics:\n" + StatementMetrics();
  }

  // Served ranked statements. The server runs them through its session's
  // dispatch step, over the same proxy set and coordinator, so they plan,
  // prune and answer as the session's do; the profile hangs under the
  // served query's own trace ("q0", then "execute").
  for (const std::string video : {"vid2", "corpus"}) {
    obs::MetricRegistry::Global().Reset();
    serve::ServeOptions options;
    options.threads = 0;
    options.trace_queries = true;
    serve::Server server(options);
    server.RegisterRepository("vid2", *demo->repository.Find("vid2"));
    server.RegisterProxySet(&demo->proxies);
    server.RegisterRankedBackend("corpus", &coordinator);
    const std::string sql =
        RankedSql(video, kConjunction, " WITH RECALL 0.9 WITH CONFIDENCE 0.05")
            .substr(std::string("EXPLAIN ANALYZE ").size());
    out += "[served " + video + " recall+confidence]\n" + sql + "\n";
    const StatusOr<int64_t> id = server.Submit(sql);
    EXPECT_TRUE(id.ok()) << id.status();
    for (const serve::ServedQuery& served : server.Drain()) {
      out += "status: " + served.status.ToString() + "\n";
      out += "simulated_ms: " + Format("%.17g", served.simulated_ms) + "\n";
      query::QueryResult result = served.result;
      if (served.trace != nullptr) {
        result.profile_text = served.trace->RenderProfile();
      }
      RenderResult(result, &out);
    }
    out += "metrics:\n" + StatementMetrics();
  }

  // Standing WITH RECALL admissions over the stream variant of vid1: a
  // conjunction the proxy tier prunes, and a CNF statement that falls
  // back to the exact path.
  for (const auto& [label, where] :
       {std::pair{"standing cam1 recall", kConjunction},
        std::pair{"standing cam1 cnf recall", kCnf}}) {
    obs::MetricRegistry::Global().Reset();
    serve::ServeOptions options;
    options.threads = 0;
    options.trace_queries = true;
    serve::Server server(options);
    server.RegisterStream("cam1", tools::DemoScenario(1), kSeed + 1);
    const std::string sql =
        std::string("SELECT MERGE(clipID) AS Sequence FROM (PROCESS cam1 "
                    "PRODUCE clipID, obj USING ObjectDetector, act USING "
                    "ActionRecognizer) WHERE ") +
        where + " WITH RECALL 0.9";
    out += "[" + std::string(label) + "]\n" + sql + "\n";
    const StatusOr<int64_t> id = server.AddStandingQuery(sql);
    out += "admit: " + id.status().ToString() + "\n";
    for (int i = 0; i < 48; ++i) {
      EXPECT_TRUE(server.AdvanceStream("cam1").ok()) << "advance " << i;
    }
    for (const serve::ServedQuery& standing : server.FinishStanding()) {
      out += "status: " + standing.status.ToString() + "\n";
      query::QueryResult result = standing.result;
      if (standing.trace != nullptr) {
        result.profile_text = standing.trace->RenderProfile();
      }
      RenderResult(result, &out);
    }
    out += "metrics:\n" + StatementMetrics();
  }
  return out;
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(RankedStatementsTest, MatchesGolden) {
  const std::string path =
      std::string(VAQ_GOLDEN_DIR) + "/ranked_statements.txt";
  const std::string actual = Render();
  if (std::getenv("VAQ_REGEN_GOLDEN") != nullptr) {
    std::ofstream(path, std::ios::binary) << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path;
  std::stringstream expected;
  expected << in.rdbuf();

  const std::vector<std::string> want = Lines(expected.str());
  const std::vector<std::string> got = Lines(actual);
  std::string section;
  for (size_t i = 0; i < want.size() && i < got.size(); ++i) {
    if (!want[i].empty() && want[i][0] == '[') section = want[i];
    ASSERT_EQ(got[i], want[i]) << "first difference in " << section
                               << " (golden line " << i + 1 << ")";
  }
  EXPECT_EQ(got.size(), want.size());
}

}  // namespace
}  // namespace vaq
