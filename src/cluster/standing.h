// Standing (online) queries over a cluster of serving nodes.
//
// Streams are routed to owner nodes by stable hash of the stream name —
// per-stream affinity: every standing query on a stream, and every one
// of its clip advances, runs on the one node that owns it, so a node's
// shared detection cache sees exactly the sequence of work a single
// server would see for those streams. Each node is a serve::Server in
// clip-lockstep standing mode with WAL-before-apply durability into a
// primary ckpt::MemStore, and a follower replica store kept in sync by
// shipping changed store entries (the appended WAL tail, fresh
// snapshots) over the simulated network after every
// `ship_every_advances` logged advances.
//
// Failover: when the fault plan (FaultSpec::node_outage_rate, or a
// kNode window) downs an owner node at an advance's virtual time, the
// cluster builds a standby serve::Server with the same registrations
// over the *replica* store, runs ckpt recovery, and replays any
// advances the replica had not yet been shipped (the cluster knows each
// stream's intended position). Engines are deterministic, so the
// re-executed clips produce byte-identical logical results — the
// recovery invariant of DESIGN.md §10 lifted to the cluster.
//
// Node servers share their detection cache, snapshot every
// serve::kDefaultSnapshotEveryClips clips, and run with
// ServeOptions::snapshot_metrics = false: the process-wide metric
// registry spans every simulated node, and restoring one node's snapshot
// must not clobber the others' live families.
#ifndef VAQ_CLUSTER_STANDING_H_
#define VAQ_CLUSTER_STANDING_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/store.h"
#include "cluster/net.h"
#include "cluster/partition.h"
#include "common/status.h"
#include "fault/sim_clock.h"
#include "serve/server.h"

namespace vaq {
namespace cluster {

// Virtual milliseconds charged per clip advance — the timeline node
// outage windows are evaluated against.
inline constexpr double kAdvanceTickMs = 10.0;

struct StandingClusterOptions {
  int num_nodes = 2;
  // Faults injected inside the perception engines (every node gets the
  // same plan, preserving per-stream determinism vs. a single server).
  const fault::FaultPlan* engine_fault_plan = nullptr;
  // Drives node outages (a staged kill is a kNode window) and network
  // faults at the cluster layer.
  const fault::FaultPlan* cluster_fault_plan = nullptr;
  // Replica sync cadence in logged advances. 1 = synchronous shipping
  // (failover loses nothing); larger values leave a shipping lag the
  // failover path must re-execute.
  int ship_every_advances = 1;
};

class StandingCluster {
 public:
  // `register_streams` must register the same stream set (names,
  // scenarios, seeds, engine options) on any server it is given — it is
  // called once per node and once per standby at failover.
  using RegisterFn = std::function<Status(serve::Server*)>;

  StandingCluster(StandingClusterOptions options, RegisterFn register_streams);
  ~StandingCluster();

  // Builds the node servers. Call once before anything else.
  Status Init();

  // Owner node of a stream (stable hash affinity).
  int OwnerOf(const std::string& source) const;

  // Parses the statement, routes it to its stream's owner, returns a
  // cluster-wide id (admission order across all nodes).
  StatusOr<int64_t> AddStandingQuery(const std::string& sql);

  // Advances every standing query on `source` by one clip on its owner
  // (or the owner's standby after a failover).
  Status AdvanceStream(const std::string& source);

  // Advances routed so far for `source` — the cluster's intended
  // position, which failover catch-up restores on the standby.
  int64_t StreamPosition(const std::string& source) const;

  // Ends every standing query on every node and returns the results in
  // cluster-wide id order (each ServedQuery's id rewritten to it).
  StatusOr<std::vector<serve::ServedQuery>> Finish();

  int64_t failovers() const { return failovers_; }
  int64_t catchup_advances() const { return catchup_advances_; }
  int64_t shipped_bytes() const { return shipped_bytes_; }
  double now_ms() const { return clock_.now_ms(); }
  const NetStats& net_stats() const { return net_->stats(); }

 private:
  struct NodeState {
    std::unique_ptr<ckpt::MemStore> primary_store;
    std::unique_ptr<ckpt::MemStore> replica_store;
    std::unique_ptr<serve::Server> server;
    bool failed = false;  // Primary lost; `server` is the standby.
    int64_t advances_since_ship = 0;
  };

  StatusOr<std::unique_ptr<serve::Server>> MakeServer(ckpt::Store* store);
  bool NodeIsDown(int node, double at_ms) const;
  Status Ship(int node);                       // Sync replica over the net.
  Status Failover(int node);                   // Promote the replica.
  void DrainNet();                             // Deliver everything due.

  StandingClusterOptions options_;
  RegisterFn register_streams_;
  std::unique_ptr<Net> net_;
  fault::SimClock clock_;
  std::vector<NodeState> nodes_;
  std::map<std::string, int64_t> intended_;    // Stream -> advances routed.
  // Cluster id -> (node, node-local id), in admission order.
  std::vector<std::pair<int, int64_t>> queries_;
  int64_t failovers_ = 0;
  int64_t catchup_advances_ = 0;
  int64_t shipped_bytes_ = 0;
  bool initialized_ = false;
};

}  // namespace cluster
}  // namespace vaq

#endif  // VAQ_CLUSTER_STANDING_H_
