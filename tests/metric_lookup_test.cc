// Warm query paths do no metric-registry lookup.
//
// A registry lookup copies and sorts its labels, renders a canonical
// label string and searches a map under the registry mutex, so every
// call site on a per-query, per-video, per-message or per-advance path
// resolves its instruments once, on first use (obs/metrics.h). This test
// runs every ranked form once through a Session and once through a
// two-shard Coordinator, and advances every standing stream once, to let
// each site resolve; repeating all of it must then perform no lookup.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/coordinator.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "query/session.h"
#include "serve/server.h"
#include "tools/pipeline_setup.h"

namespace vaq {
namespace {

std::string RankedSql(const std::string& video, const char* with) {
  return "SELECT MERGE(clipID) AS Sequence, RANK(act, obj) FROM (PROCESS " +
         video +
         " PRODUCE clipID, obj USING ObjectTracker, act USING "
         "ActionRecognizer) WHERE act='running' AND obj.include('dog') "
         "ORDER BY RANK(act, obj) LIMIT 3" +
         with;
}

TEST(MetricLookupTest, WarmRankedQueriesAndAdvancesDoNoRegistryLookups) {
  StatusOr<tools::CascadeDemo> demo = tools::MakeCascadeDemo(3, 11);
  ASSERT_TRUE(demo.ok()) << demo.status();
  cluster::ClusterOptions cluster_options;
  cluster_options.num_shards = 2;
  cluster_options.proxy = &demo->proxies;
  cluster::Coordinator coordinator(&demo->repository, cluster_options);
  query::Session session;
  for (const std::string& name : demo->videos) {
    session.RegisterRepository(name, *demo->repository.Find(name));
  }
  session.RegisterProxySet(&demo->proxies);
  session.RegisterRankedBackend("corpus", &coordinator);
  std::vector<std::string> statements;
  for (const std::string video : {"vid0", "corpus"}) {
    for (const char* with : {"", " WITH RECALL 0.9", " WITH CONFIDENCE 0.05"}) {
      statements.push_back(RankedSql(video, with));
    }
  }

  const fault::FaultPlan plan(tools::DemoFaultSpec(), 3);
  tools::StandingDemoSpec spec;
  spec.fault_plan = &plan;
  StatusOr<std::unique_ptr<serve::Server>> server =
      tools::MakeStandingDemoServer(spec);
  ASSERT_TRUE(server.ok()) << server.status();
  ASSERT_TRUE(tools::AdmitStandingDemoWorkload(server->get(), spec).ok());

  const auto run_all = [&] {
    for (const std::string& sql : statements) {
      const StatusOr<query::QueryResult> result = session.Execute(sql);
      ASSERT_TRUE(result.ok()) << sql << ": " << result.status();
      ASSERT_FALSE(result->ranked.empty()) << sql;
    }
    for (int s = 0; s < spec.num_streams; ++s) {
      ASSERT_TRUE((*server)->AdvanceStream("cam" + std::to_string(s)).ok());
    }
  };
  run_all();  // Warm-up: every call site resolves its instruments.
  if (HasFatalFailure()) return;
  const obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  const int64_t before = registry.lookups();
  run_all();
  EXPECT_EQ(registry.lookups() - before, 0);
}

}  // namespace
}  // namespace vaq
