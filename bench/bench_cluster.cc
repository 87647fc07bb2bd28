// Sharded scatter–gather scaling sweep: modeled answer time of the
// repository-wide ranked query across shard counts and replica counts
// (src/cluster/), checked against the single-node RVAQ reference.
//
// Time is reported on the simulated timeline — the coordinator's virtual
// clock integrates per-shard modeled scan cost (the same 5 ms seek /
// 0.01 ms row disk model as the offline benches) plus simulated network
// latency — so the sweep is reproducible on any machine. Replicas are
// passive followers here (no failover is staged), so they must change
// neither the answer nor the gather schedule, only the node count.
//
// Expectation (ISSUE acceptance criteria): the merged top-k is identical
// to single-node RVAQ for every configuration, and the modeled
// scatter–gather speedup at 8 shards is >= 3x. Both are asserted here;
// the process exits nonzero if either fails.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cluster/coordinator.h"
#include "detect/models.h"
#include "offline/ingest.h"
#include "offline/repository.h"
#include "offline/scoring.h"
#include "tools/pipeline_setup.h"

namespace vaq {
namespace {

constexpr int kVideos = 16;
constexpr uint64_t kSeed = 7;
constexpr int64_t kK = 5;
const char kAction[] = "running";

struct ConfigResult {
  int shards = 0;
  int replicas = 0;
  bool identical = false;
  double answer_ms = 0.0;
  double single_node_ms = 0.0;
  double speedup = 0.0;
  int64_t batches_consumed = 0;
  int64_t batches_pruned = 0;
  int64_t failovers = 0;
  int64_t net_messages = 0;
};

std::string DescribeTop(
    const std::vector<offline::RepositoryRankedSequence>& top) {
  std::string out;
  for (const offline::RepositoryRankedSequence& entry : top) {
    char line[160];
    std::snprintf(line, sizeof(line), "%s %s %.17g\n", entry.video.c_str(),
                  entry.sequence.clips.ToString().c_str(),
                  offline::RankedMergeScore(entry.sequence));
    out += line;
  }
  return out;
}

int Run() {
  offline::PaperScoring scoring;
  offline::Repository repository;
  for (int i = 0; i < kVideos; ++i) {
    synth::Scenario scenario = tools::DemoScenario(i);
    detect::ModelBundle models = detect::ModelBundle::MaskRcnnI3d(
        scenario.truth(), kSeed + static_cast<uint64_t>(i));
    offline::Ingestor ingestor(&scenario.vocab(), &scoring,
                               offline::IngestOptions{});
    auto index = ingestor.Ingest(scenario.truth(), models);
    if (!index.ok()) {
      std::fprintf(stderr, "ingest failed: %s\n",
                   index.status().ToString().c_str());
      return 1;
    }
    repository.Add("vid" + std::to_string(i), std::move(index.value()));
  }

  offline::RvaqOptions rvaq;
  rvaq.k = kK;
  auto single = repository.TopK(kAction, {"dog"}, scoring, rvaq);
  if (!single.ok()) {
    std::fprintf(stderr, "single-node RVAQ failed: %s\n",
                 single.status().ToString().c_str());
    return 1;
  }
  const std::string reference = DescribeTop(single.value().top);

  bench::TablePrinter table(
      "Cluster scatter-gather scaling (modeled)",
      {"shards", "replicas", "identical", "answer_ms", "single_node_ms",
       "speedup", "batches", "pruned", "net_msgs"});
  std::vector<ConfigResult> rows;
  for (const int shards : {1, 2, 4, 8}) {
    for (const int replicas : {0, 1}) {
      cluster::ClusterOptions options;
      options.num_shards = shards;
      options.num_replicas = replicas;
      cluster::Coordinator coordinator(&repository, options);
      auto clustered = coordinator.TopK(kAction, {"dog"}, scoring, rvaq);
      if (!clustered.ok()) {
        std::fprintf(stderr, "cluster TopK failed: %s\n",
                     clustered.status().ToString().c_str());
        return 1;
      }
      const cluster::ClusterTopKResult& r = clustered.value();
      ConfigResult row;
      row.shards = shards;
      row.replicas = replicas;
      row.identical = DescribeTop(r.merged.top) == reference;
      row.answer_ms = r.answer_ms;
      row.single_node_ms = r.single_node_ms;
      row.speedup = r.answer_ms > 0 ? r.single_node_ms / r.answer_ms : 0.0;
      row.batches_consumed = r.batches_consumed;
      row.batches_pruned = r.batches_pruned;
      row.failovers = r.failovers;
      row.net_messages = r.net.messages;
      rows.push_back(row);
      table.AddRow({bench::Fmt(static_cast<int64_t>(shards)),
                    bench::Fmt(static_cast<int64_t>(replicas)),
                    row.identical ? "yes" : "NO",
                    bench::Fmt("%.1f", row.answer_ms),
                    bench::Fmt("%.1f", row.single_node_ms),
                    bench::Fmt("%.2f", row.speedup),
                    bench::Fmt(row.batches_consumed),
                    bench::Fmt(row.batches_pruned),
                    bench::Fmt(row.net_messages)});
    }
  }
  table.Print();

  bool all_identical = true;
  double speedup_8 = 0.0;
  for (const ConfigResult& r : rows) {
    all_identical = all_identical && r.identical && r.failovers == 0;
    if (r.shards == 8 && r.replicas == 0) speedup_8 = r.speedup;
  }
  const bool speedup_ok = speedup_8 >= 3.0;

  std::printf("top-k identical to single-node RVAQ in every config: %s\n",
              all_identical ? "ok" : "FAIL");
  std::printf("modeled speedup @8 shards: %.2fx (require >= 3.00x): %s\n",
              speedup_8, speedup_ok ? "ok" : "FAIL");
  return (all_identical && speedup_ok) ? 0 : 1;
}

}  // namespace
}  // namespace vaq

int main() { return vaq::Run(); }
