// Whole-stack chaos scenarios.
//
// A chaos *trial* torture-tests one randomly drawn slice of the stack:
// a repository/stream shape, a query mix, a cluster layout or a
// checkpoint cadence — all derived as a pure function of (sweep seed,
// trial index), so any trial from any 200-trial nightly sweep can be
// regenerated from two integers. The scenario describes the *benign*
// world: which streams exist, which queries run, which environment
// fault rates (model timeouts, dropped clips, …) both the reference run
// and the chaos run share identically. The *adversarial* part — crash
// points, node kills, partitions, corruption — lives in the schedule
// (chaos/schedule.h) and is applied to the chaos run only.
//
// Scenarios are deliberately small (1–2 minute streams, 18–36 clips):
// the value of a chaos sweep is trials × diversity, not minutes of one
// video, and 200 trials must fit a CI job.
#ifndef VAQ_CHAOS_SCENARIO_H_
#define VAQ_CHAOS_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/partition.h"
#include "fault/fault_plan.h"
#include "synth/scenario.h"

namespace vaq {
namespace chaos {

// Which front door the trial drives.
enum class Phase {
  kStanding = 0,  // Durable standing queries: crash/recover/corrupt.
  kCluster = 1,   // Scatter–gather ranked: kills/partitions/failover.
  kServe = 2,     // Batch serving: thread-count determinism under faults.
};

const char* PhaseName(Phase phase);

// The chaos-owned scenario family, structured like the demo family
// (tools::DemoScenarioSpec: "running" + coupled "dog", index > 0 adds
// an uncoupled "car") but `minutes` long. Pure function of its
// arguments; the same (index, minutes) is byte-identical forever, which
// is what lets trials share ingested indexes through an IndexCache.
synth::Scenario ChaosScenario(int index, int minutes);

// One trial's drawn configuration.
struct TrialScenario {
  int64_t trial = 0;
  Phase phase = Phase::kStanding;
  int minutes = 1;  // Length of every stream/video in the trial.

  // Standing + serve.
  int num_streams = 1;
  int num_queries = 2;
  uint64_t model_seed = 1;  // Base; stream/video i uses model_seed + i.

  // Standing.
  int64_t advances = 8;  // Total round-robin clip advances.
  int64_t snapshot_every_clips = 5;

  // Serve.
  int threads = 2;          // Chaos-side worker count (reference runs 0).
  bool with_repository = false;  // Mix ranked statements into the batch.
  // When > 0, submissions are tenant-tagged round-robin over "t0".."tN-1"
  // through the multi-tenant front door (Submit(sql, tenant)), with
  // quotas sized to fit the workload — sheds are scheduling-dependent at
  // threads > 0, so chaos trials exercise the tagged path and its
  // vaq_tenant_* accounting, not the shed path (tests/traffic_test.cc
  // covers shedding at threads = 0). 0 keeps the legacy untagged path.
  int tenants = 0;

  // Cascade (all phases). Below 1.0, part of the workload carries a
  // WITH RECALL clause — standing queries plan proxy cascades over their
  // streams, ranked serve statements exercise the exact fallback — and
  // cluster trials pre-filter both the single-node reference and the
  // coordinator run through one shared proxy plan, so every oracle
  // (byte-identity, status hygiene, recovery accounting) covers the
  // cascade subsystem. Exactly 1.0 keeps the trial on the exact path.
  double recall = 1.0;

  // Cluster.
  int num_videos = 2;
  int num_shards = 2;
  int num_replicas = 1;
  cluster::PartitionScheme scheme = cluster::PartitionScheme::kHash;
  int batch_size = 2;
  int64_t k = 3;
  // Elastic layout churn before the chaos queries run: 0 = static,
  // 1 = split the first splittable shard, 2 = split then merge an
  // adjacent pair back. The merged-vs-reference oracle then checks
  // result bytes are layout-invariant under faults.
  int rebalance = 0;

  // Adaptive sampling (ranked work only). Above 0, ranked serve
  // statements carry a WITH CONFIDENCE clause and cluster trials run
  // per-shard best-arm identification at this delta, under the same
  // oracles as the exact path. The byte-identity oracle is relaxed over
  // exactly one documented surface — the " bai=bai{...}" certificate
  // token DescribeServedQuery appends — and nothing else; survivors are
  // re-ranked exactly, so result bytes themselves must still match.
  double confidence = 0.0;

  // Environment fault rates, shared byte-identically by the reference
  // and chaos runs (standing/serve); for cluster trials the rates drive
  // net drops/dups and rate-based node outages in the chaos run only
  // (the single-node reference never touches the network).
  fault::FaultSpec env;
  uint64_t env_seed = 1;
};

// Draws trial `trial` of sweep `seed`. Pure: independent of any other
// trial and of the schedule generator's randomness, so a replay spec
// can regenerate the scenario from (seed, trial) alone.
TrialScenario MakeTrialScenario(uint64_t seed, int64_t trial);

// The standing/serve workload over the trial's streams "s0".."sN-1":
// conjunctive, object-only and (on streams that carry "car") CNF online
// statements, plus ranked top-k statements against repository "lib"
// when `with_repository`. Mirrors tools::DemoWorkload's shapes at chaos
// scale. When `scenario.recall` < 1.0, a deterministic subset of the
// statements (every ranked statement and every odd-numbered online one,
// CNF included — the exact-fallback path) carries a matching WITH
// RECALL clause.
std::vector<std::string> ChaosWorkload(const TrialScenario& scenario);

// The repository name serve-phase trials register.
inline constexpr char kChaosRepositoryName[] = "lib";

}  // namespace chaos
}  // namespace vaq

#endif  // VAQ_CHAOS_SCENARIO_H_
