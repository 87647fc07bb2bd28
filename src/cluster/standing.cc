#include "cluster/standing.h"

#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"
#include "query/ast.h"
#include "query/parser.h"

namespace vaq {
namespace cluster {
namespace {

constexpr uint32_t kTagShip = 4;  // Primary -> replica: store entry diffs.

}  // namespace

StandingCluster::StandingCluster(StandingClusterOptions options,
                                 RegisterFn register_streams)
    : options_(options), register_streams_(std::move(register_streams)) {
  VAQ_CHECK_GT(options_.num_nodes, 0);
  VAQ_CHECK_GT(options_.ship_every_advances, 0);
  net_ = std::make_unique<Net>(NetOptions(), options_.cluster_fault_plan);
}

StandingCluster::~StandingCluster() = default;

Status StandingCluster::Init() {
  VAQ_CHECK(!initialized_);
  for (int i = 0; i < options_.num_nodes; ++i) {
    NodeState state;
    state.primary_store = std::make_unique<ckpt::MemStore>();
    state.replica_store = std::make_unique<ckpt::MemStore>();
    VAQ_ASSIGN_OR_RETURN(state.server, MakeServer(state.primary_store.get()));
    nodes_.push_back(std::move(state));
  }
  initialized_ = true;
  return Status::OK();
}

StatusOr<std::unique_ptr<serve::Server>> StandingCluster::MakeServer(
    ckpt::Store* store) {
  serve::ServeOptions options;
  options.threads = 0;  // Standing mode is clip-lockstep, inline.
  options.fault_plan = options_.engine_fault_plan;
  options.checkpoint_store = store;
  options.snapshot_every_clips = serve::kDefaultSnapshotEveryClips;
  options.snapshot_metrics = false;  // Registry is shared cluster-wide.
  auto server = std::make_unique<serve::Server>(options);
  VAQ_RETURN_IF_ERROR(register_streams_(server.get()));
  return server;
}

int StandingCluster::OwnerOf(const std::string& source) const {
  return HashShardOf(source, options_.num_nodes);
}

bool StandingCluster::NodeIsDown(int node, double at_ms) const {
  return options_.cluster_fault_plan != nullptr &&
         options_.cluster_fault_plan->NodeDown(node, at_ms);
}

StatusOr<int64_t> StandingCluster::AddStandingQuery(const std::string& sql) {
  VAQ_CHECK(initialized_);
  VAQ_ASSIGN_OR_RETURN(query::QueryStatement stmt, query::Parse(sql));
  const int owner = OwnerOf(stmt.video);
  NodeState& state = nodes_[static_cast<size_t>(owner)];
  VAQ_ASSIGN_OR_RETURN(const int64_t local_id,
                       state.server->AddStandingQuery(sql));
  // Admissions ship immediately: losing one to a lagging replica would
  // lose the query itself, not just re-executable clip work.
  if (!state.failed) VAQ_RETURN_IF_ERROR(Ship(owner));
  queries_.emplace_back(owner, local_id);
  obs::MetricRegistry::Global()
      .GetCounter("vaq_cluster_standing_queries_total", {})
      ->Increment();
  return static_cast<int64_t>(queries_.size()) - 1;
}

Status StandingCluster::AdvanceStream(const std::string& source) {
  VAQ_CHECK(initialized_);
  clock_.Advance(kAdvanceTickMs);
  const int owner = OwnerOf(source);
  NodeState& state = nodes_[static_cast<size_t>(owner)];
  if (!state.failed && NodeIsDown(owner, clock_.now_ms())) {
    VAQ_RETURN_IF_ERROR(Failover(owner));
  }
  VAQ_RETURN_IF_ERROR(state.server->AdvanceStream(source));
  ++intended_[source];
  static obs::Counter* const advances =
      obs::MetricRegistry::Global().GetCounter("vaq_cluster_advances_total");
  advances->Increment();
  if (!state.failed && ++state.advances_since_ship >=
                           options_.ship_every_advances) {
    VAQ_RETURN_IF_ERROR(Ship(owner));
  }
  DrainNet();
  return Status::OK();
}

int64_t StandingCluster::StreamPosition(const std::string& source) const {
  auto it = intended_.find(source);
  return it == intended_.end() ? 0 : it->second;
}

Status StandingCluster::Ship(int node) {
  NodeState& state = nodes_[static_cast<size_t>(node)];
  int64_t bytes = 0;
  VAQ_RETURN_IF_ERROR(
      ckpt::SyncStores(*state.primary_store, state.replica_store.get(),
                       &bytes));
  state.advances_since_ship = 0;
  if (bytes == 0) return Status::OK();
  shipped_bytes_ += bytes;
  // The follower of node i lives on host num_nodes + i.
  net_->Send(node, options_.num_nodes + node, kTagShip, "ship", Message{},
             bytes, clock_.now_ms());
  static obs::Counter* const ship_bytes =
      obs::MetricRegistry::Global().GetCounter("vaq_cluster_ship_bytes_total");
  ship_bytes->Increment(bytes);
  return Status::OK();
}

Status StandingCluster::Failover(int node) {
  NodeState& state = nodes_[static_cast<size_t>(node)];
  ++failovers_;
  obs::MetricRegistry::Global()
      .GetCounter("vaq_cluster_failovers_total", {{"mode", "standing"}})
      ->Increment();
  // Promote: a standby server with the same registrations recovers from
  // the replica store (snapshot + WAL shipping got it there), then
  // replays any advances that had not been shipped yet — the cluster
  // knows every stream's intended position, and the engines are
  // deterministic, so the standby converges to the primary's exact
  // logical state.
  VAQ_ASSIGN_OR_RETURN(std::unique_ptr<serve::Server> standby,
                       MakeServer(state.replica_store.get()));
  VAQ_RETURN_IF_ERROR(standby->Recover().status());
  for (const auto& [source, intended] : intended_) {
    if (OwnerOf(source) != node) continue;
    for (int64_t pos = standby->StreamPosition(source); pos < intended;
         ++pos) {
      VAQ_RETURN_IF_ERROR(standby->AdvanceStream(source));
      ++catchup_advances_;
      static obs::Counter* const catchup =
          obs::MetricRegistry::Global().GetCounter(
              "vaq_cluster_catchup_advances_total");
      catchup->Increment();
    }
  }
  state.server = std::move(standby);
  state.failed = true;
  return Status::OK();
}

void StandingCluster::DrainNet() {
  Delivery delivery;
  while (net_->PeekTimeMs() <= clock_.now_ms()) {
    if (!net_->NextDelivery(&delivery)) break;
  }
}

StatusOr<std::vector<serve::ServedQuery>> StandingCluster::Finish() {
  VAQ_CHECK(initialized_);
  // Let in-flight ship messages land before the books close.
  while (!net_->idle()) {
    clock_.Advance(net_->PeekTimeMs() - clock_.now_ms());
    DrainNet();
  }
  std::vector<std::vector<serve::ServedQuery>> finished;
  finished.reserve(nodes_.size());
  for (NodeState& state : nodes_) {
    finished.push_back(state.server->FinishStanding());
  }
  std::vector<serve::ServedQuery> out;
  out.reserve(queries_.size());
  for (size_t global = 0; global < queries_.size(); ++global) {
    const auto& [node, local_id] = queries_[global];
    bool found = false;
    for (serve::ServedQuery& q : finished[static_cast<size_t>(node)]) {
      if (q.id == local_id) {
        serve::ServedQuery copy = q;
        copy.id = static_cast<int64_t>(global);
        out.push_back(std::move(copy));
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::Internal("standing query " + std::to_string(global) +
                              " lost by node " + std::to_string(node));
    }
  }
  return out;
}

}  // namespace cluster
}  // namespace vaq
