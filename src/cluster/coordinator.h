// Scatter–gather ranked execution over a sharded repository.
//
// The coordinator partitions an offline::Repository into N shards
// (cluster::PartitionNames), places one primary Node per shard plus R
// follower replicas, and answers a conjunctive ranked query with the
// classic threshold-algorithm merge over per-shard sorted streams:
//
//   1. Scatter: the query is sent to every shard primary over the
//      simulated network. A node runs shard-local RVAQ (once) and
//      serves its candidate stream — per-video winners sorted by
//      descending merge score — in fixed-size batches, each stamped
//      with the shard's remaining upper bound (the best score still
//      unsent).
//   2. Gather: the coordinator pipelines one outstanding fetch per
//      shard, folds arriving entries into a global top-k heap, and
//      tracks each shard's bound.
//   3. Stop: gathering ends when the k-th best consumed score STRICTLY
//      exceeds every remaining bound — strict, so a tied candidate can
//      never be pruned — and every shard has reported at least one
//      batch (bounds start at +infinity, which enforces this). Unsent
//      batches are pruned; the result is provably complete.
//
// The merged result is byte-identical to Repository::TopK by
// construction: each consumed candidate enters the same
// offline::RankedMerge at its single-node position — (video name,
// per-video rank), as integer ranks — so the merge keeps the winners the
// single-node loop keeps, and only those are copied out. And
// because a clean run executes each per-video RVAQ exactly once across
// the whole cluster, every logical vaq_* metric lands on the single-node
// value too; only the vaq_cluster_* transport families differ by layout.
//
// Failover: if an expected batch does not arrive within 50 ms of
// virtual time (`kFailoverTimeoutMs`; the shard's host is inside a
// fault-plan outage window, rate-drawn or a staged kill), the coordinator
// re-points the fetch at the next follower replica. Batches are a pure
// function of (shard, batch index), so the replica resumes mid-stream
// with no hand-off state and the final result is unchanged; the replica
// honestly re-executes its shard scan, which is visible in engine
// metrics but never in results.
//
// Times are virtual (fault::SimClock): a node's reply is ready
// `modeled_ms` (its shard's modeled disk time) after the query arrives,
// so `answer_ms` reflects the parallel schedule — max over shards, not
// sum — which is where the scatter–gather speedup shows up. Each
// statement's answer_ms lands in one histogram, vaq_cluster_answer_ms,
// over the registry's one bucket ladder (obs::LatencyBucketsMs); its
// quantiles are read from the buckets.
#ifndef VAQ_CLUSTER_COORDINATOR_H_
#define VAQ_CLUSTER_COORDINATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cascade/planner.h"
#include "cluster/net.h"
#include "cluster/node.h"
#include "cluster/partition.h"
#include "common/status.h"
#include "obs/query_trace.h"
#include "offline/repository.h"
#include "offline/scoring.h"
#include "query/session.h"

namespace vaq {
namespace cluster {

// The coordinator's host id on the simulated network.
inline constexpr int kCoordinatorHost = -1;

struct ClusterOptions {
  int num_shards = 2;  // Initial layout; elastic split/merge may change it.
  int num_replicas = 0;  // Follower replicas per shard.
  PartitionScheme scheme = PartitionScheme::kHash;
  int batch_size = 4;    // Candidates per gather batch.
  // Drives node outages (FaultSpec::node_outage_rate and kNode windows:
  // a staged kill such as `vaqctl cluster --kill-node` is one window) and
  // network faults. Not owned; may be null (no faults).
  const fault::FaultPlan* fault_plan = nullptr;
  // Deterministic watchdog: abort the gather with kDeadlineExceeded
  // after this many scheduler events (timer fires + deliveries). 0
  // disables. A bound on *events*, not wall time, so a livelocked
  // gather trips it identically on every machine — this is how the
  // chaos harness turns "hang" into a reproducible failure instead of
  // a test timeout.
  int64_t max_steps = 0;
  // Ingest-time proxy tier (src/cascade/) consulted when a ranked
  // statement carries WITH RECALL < 1.0: the coordinator plans the
  // cascade once and ships the thresholds with the scatter, so every
  // shard prefilters locally. Not owned; null disables (approximate
  // statements then run the exact path). Keys are repository video
  // names; thresholds are layout-independent, so the surviving set
  // never depends on the shard count. The coordinator builds its
  // planner over this set at construction and plans each
  // (concepts, τ) once, so the set must not change while the
  // coordinator lives: after changing it, construct a new coordinator.
  const cascade::ProxySet* proxy = nullptr;
};

struct ClusterTopKResult {
  // Byte-identical to the single-node Repository::TopK outcome.
  offline::RepositoryTopKResult merged;
  double answer_ms = 0.0;       // Virtual time the query completed.
  double single_node_ms = 0.0;  // Modeled sequential (1-node) scan time.
  double max_shard_ms = 0.0;    // Slowest shard's modeled scan time.
  int64_t batches_consumed = 0;
  int64_t batches_pruned = 0;   // Never fetched thanks to the bound.
  int64_t entries_consumed = 0;
  int64_t entries_total = 0;
  int64_t failovers = 0;
  NetStats net;                 // This query's traffic.
};

class Coordinator : public query::RankedBackend {
 public:
  // `repository` is not owned and must outlive the coordinator. Nodes
  // resolve its videos at construction, so it must not change while the
  // coordinator is in use: TopK, SplitShard and MergeShards return
  // kFailedPrecondition after an Add or Remove.
  Coordinator(const offline::Repository* repository, ClusterOptions options);

  const ClusterOptions& options() const { return options_; }
  // The *live* shard count: ClusterOptions::num_shards initially,
  // tracking elastic splits/merges afterwards.
  int num_shards() const { return static_cast<int>(shard_videos_.size()); }

  // --- Elastic layout ---------------------------------------------------
  // The shard layout only affects transport (vaq_cluster_* batch/net
  // accounting, host ids, answer_ms): merged results are merged by
  // (video, per-video rank) position and every per-video scan runs exactly
  // once per clean query, so results and engine-level metrics are
  // byte-identical before, during and after any rebalance (the elastic
  // determinism test, cluster_elastic_test, pins this). Call between
  // queries only — none of these methods are synchronized against a
  // running TopK.

  // Splits `shard`'s sorted video run at its midpoint into two adjacent
  // shards (range-style, whatever the original scheme). The shard must
  // hold at least two videos (kFailedPrecondition otherwise). Replica
  // hosts are re-derived from the new layout.
  Status SplitShard(int shard);

  // Merges shard `left` with shard `left + 1` into one sorted run.
  Status MergeShards(int left);

  // Global top-K for a conjunctive query, scatter–gathered. Every
  // message is a typed cluster::Message; the statement's serial rides
  // each query and fetch and each batch echoes it, which is checked on
  // arrival. `ctx` (optional) attributes the scatter–gather to a
  // per-query trace: each shard's scan, batches, bytes and failovers
  // land on a per-shard child node, built only when `ctx` is active.
  // When `rvaq.prefilter` is set (a planned cascade), `plan_wire_bytes`
  // models the thresholds riding the scatter message to every shard; 0
  // on the exact path keeps the wire byte-identical to pre-cascade
  // builds.
  StatusOr<ClusterTopKResult> TopK(const std::string& action,
                                   const std::vector<std::string>& objects,
                                   const offline::ScoringModel& scoring,
                                   offline::RvaqOptions rvaq,
                                   const obs::QueryContext& ctx = {},
                                   int64_t plan_wire_bytes = 0) const;

  // query::RankedBackend: plans a parsed conjunctive statement through
  // the ranked-statement front end (query::RankedStatement, over the
  // coordinator's planner) and runs it as one TopK. Only that execution
  // step and the aggregate certificate are the coordinator's own.
  StatusOr<query::QueryResult> ExecuteRanked(
      const query::QueryStatement& stmt, const obs::QueryContext& ctx) override;

 private:
  // Primary host of shard s is s; replica r of shard s is
  // num_shards + s * num_replicas + r (under the live shard count).
  int ReplicaHost(int shard, int replica) const;
  // Host ids index nodes_.
  Node* HostNode(int host) const;
  bool HostDown(int host, double at_ms) const;
  // Recreates every node from the current shard_videos_ layout (host
  // ids are layout-relative, so a rebalance re-derives all of them),
  // resolving each video's index and name rank once.
  void RebuildNodes();
  // kFailedPrecondition once the repository has changed since
  // construction: the nodes' resolved videos may be stale.
  Status CheckRepository() const;

  const offline::Repository* repository_;
  // The repository's generation the nodes were resolved against.
  uint64_t generation_;
  // Serial of the last ranked statement; TopK is logically const.
  mutable uint64_t statements_ = 0;
  ClusterOptions options_;
  // Plans WITH RECALL statements over options_.proxy; null without one.
  std::unique_ptr<const cascade::Planner> planner_;
  std::vector<std::vector<std::string>> shard_videos_;
  // Primaries [0, S), then replicas in ReplicaHost order. Mutable: nodes
  // cache the per-query shard run; TopK is logically const.
  mutable std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace cluster
}  // namespace vaq

#endif  // VAQ_CLUSTER_COORDINATOR_H_
