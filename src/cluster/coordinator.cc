#include "cluster/coordinator.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <memory>
#include <utility>

#include "bai/sequence_arms.h"
#include "common/logging.h"
#include "fault/sim_clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vaq {
namespace cluster {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Wire protocol tags.
constexpr uint32_t kTagQuery = 1;  // coordinator -> node: start, send batch 0.
constexpr uint32_t kTagFetch = 2;  // coordinator -> node: send batch <idx>.
constexpr uint32_t kTagBatch = 3;  // node -> coordinator: one gather batch.

// Serving a follow-up batch out of the cached run costs a little
// serialization time; the first batch is charged the full shard scan.
constexpr double kBatchServeMs = 0.05;

// Virtual ms without the expected batch before the coordinator fails
// over to the next replica.
constexpr double kFailoverTimeoutMs = 50.0;

// vaq_cluster_queries_total{mode="ranked",outcome=...}; each outcome
// resolves its counter on first use.
obs::Counter* RankedQueries(bool ok) {
  if (ok) {
    static obs::Counter* const ok_total = obs::MetricRegistry::Global()
        .GetCounter("vaq_cluster_queries_total",
                    {{"mode", "ranked"}, {"outcome", "ok"}});
    return ok_total;
  }
  static obs::Counter* const error_total = obs::MetricRegistry::Global()
      .GetCounter("vaq_cluster_queries_total",
                  {{"mode", "ranked"}, {"outcome", "error"}});
  return error_total;
}

// Per-shard gather state.
struct ShardState {
  int active_host = 0;
  int replicas_used = 0;
  int expected = -1;       // Outstanding batch index; -1 when none.
  double deadline = kInf;  // Failover timer for the outstanding fetch.
  // Remaining upper bound. Starts at +infinity, which doubles as the
  // "shard has not reported yet" marker: the stopping rule cannot fire
  // until every shard has run and bounded itself.
  double bound = kInf;
  bool done = false;        // Stream exhausted.
  bool folded = false;      // Shard accounting merged into the result.
  int64_t consumed_batches = 0;
};

}  // namespace

Coordinator::Coordinator(const offline::Repository* repository,
                         ClusterOptions options)
    : repository_(repository),
      generation_(repository->generation()),
      options_(options),
      planner_(options.proxy == nullptr
                   ? nullptr
                   : std::make_unique<const cascade::Planner>(options.proxy)) {
  VAQ_CHECK_GT(options_.num_shards, 0);
  VAQ_CHECK_GE(options_.num_replicas, 0);
  VAQ_CHECK_GT(options_.batch_size, 0);
  shard_videos_ = PartitionNames(repository_->VideoNames(),
                                 options_.num_shards, options_.scheme);
  RebuildNodes();
}

void Coordinator::RebuildNodes() {
  // Resolve every shard's videos once per layout: index and name rank.
  const std::vector<std::string> names = repository_->VideoNames();
  std::vector<std::vector<ShardVideo>> resolved;
  for (const std::vector<std::string>& videos : shard_videos_) {
    std::vector<ShardVideo>& shard = resolved.emplace_back();
    for (const std::string& name : videos) {
      const storage::VideoIndex* index = repository_->Find(name);
      VAQ_CHECK(index != nullptr);
      const auto rank = std::lower_bound(names.begin(), names.end(), name);
      shard.push_back(ShardVideo{name, index,
                                 static_cast<int>(rank - names.begin())});
    }
  }
  nodes_.clear();
  const int shards = num_shards();
  for (int s = 0; s < shards; ++s) {
    nodes_.push_back(std::make_unique<Node>(s, resolved[s]));
  }
  for (int s = 0; s < shards; ++s) {
    for (int r = 0; r < options_.num_replicas; ++r) {
      nodes_.push_back(std::make_unique<Node>(ReplicaHost(s, r), resolved[s]));
    }
  }
}

Status Coordinator::CheckRepository() const {
  if (repository_->generation() == generation_) return Status::OK();
  return Status::FailedPrecondition(
      "the repository changed after this coordinator resolved its shards; "
      "construct a new coordinator");
}

Status Coordinator::SplitShard(int shard) {
  VAQ_RETURN_IF_ERROR(CheckRepository());
  if (shard < 0 || shard >= num_shards()) {
    return Status::InvalidArgument("no such shard " + std::to_string(shard));
  }
  std::vector<std::string>& videos =
      shard_videos_[static_cast<size_t>(shard)];
  if (videos.size() < 2) {
    return Status::FailedPrecondition(
        "shard " + std::to_string(shard) +
        " holds fewer than two videos; nothing to split");
  }
  // Midpoint cut of the sorted run: the left half stays in place, the
  // right half becomes the new adjacent shard.
  const auto mid =
      videos.begin() + static_cast<std::ptrdiff_t>(videos.size() / 2);
  std::vector<std::string> right(mid, videos.end());
  videos.erase(mid, videos.end());
  shard_videos_.insert(
      shard_videos_.begin() + static_cast<std::ptrdiff_t>(shard) + 1,
      std::move(right));
  RebuildNodes();
  obs::MetricRegistry::Global()
      .GetCounter("vaq_cluster_rebalance_total", {{"op", "split"}})
      ->Increment();
  return Status::OK();
}

Status Coordinator::MergeShards(int left) {
  VAQ_RETURN_IF_ERROR(CheckRepository());
  if (left < 0 || left + 1 >= num_shards()) {
    return Status::InvalidArgument(
        "no adjacent shard pair at " + std::to_string(left));
  }
  std::vector<std::string>& lhs = shard_videos_[static_cast<size_t>(left)];
  std::vector<std::string>& rhs =
      shard_videos_[static_cast<size_t>(left) + 1];
  // Every partition's video list is sorted (cluster::PartitionNames), so
  // the merged run is too — a later split cuts it cleanly.
  std::vector<std::string> merged;
  merged.reserve(lhs.size() + rhs.size());
  std::merge(lhs.begin(), lhs.end(), rhs.begin(), rhs.end(),
             std::back_inserter(merged));
  lhs = std::move(merged);
  shard_videos_.erase(shard_videos_.begin() +
                      static_cast<std::ptrdiff_t>(left) + 1);
  RebuildNodes();
  obs::MetricRegistry::Global()
      .GetCounter("vaq_cluster_rebalance_total", {{"op", "merge"}})
      ->Increment();
  return Status::OK();
}

int Coordinator::ReplicaHost(int shard, int replica) const {
  return num_shards() + shard * options_.num_replicas + replica;
}

Node* Coordinator::HostNode(int host) const {
  VAQ_CHECK(host >= 0 && static_cast<size_t>(host) < nodes_.size());
  return nodes_[static_cast<size_t>(host)].get();
}

bool Coordinator::HostDown(int host, double at_ms) const {
  return options_.fault_plan != nullptr &&
         options_.fault_plan->NodeDown(host, at_ms);
}

StatusOr<ClusterTopKResult> Coordinator::TopK(
    const std::string& action, const std::vector<std::string>& objects,
    const offline::ScoringModel& scoring, offline::RvaqOptions rvaq,
    const obs::QueryContext& ctx, int64_t plan_wire_bytes) const {
  VAQ_TRACE_SPAN("corpus/topk");
  const obs::QueryContext phase = ctx.Child("scatter_gather");
  if (repository_->num_videos() == 0) {
    RankedQueries(/*ok=*/false)->Increment();
    return Status::FailedPrecondition("repository holds no videos");
  }
  if (Status current = CheckRepository(); !current.ok()) {
    RankedQueries(/*ok=*/false)->Increment();
    return current;
  }
  // The statement's serial rides every request and is echoed by every
  // batch, which provably belongs to this statement.
  const uint64_t query = ++statements_;
  for (const std::unique_ptr<Node>& node : nodes_) node->ResetRun();
  // The statement's per-video RVAQ runner, shared by every node it
  // reaches (one workspace per statement).
  offline::RankedScan scan(action, objects, scoring, rvaq);

  // The *live* layout, not ClusterOptions::num_shards — elastic
  // split/merge may have changed it since construction.
  const int num_shards = static_cast<int>(shard_videos_.size());
  Net net(NetOptions(), options_.fault_plan);
  // A request and its reply per shard, each possibly duplicated.
  net.Reserve(4 * static_cast<size_t>(num_shards));
  fault::SimClock clock;
  ClusterTopKResult result;
  std::vector<ShardState> shards(static_cast<size_t>(num_shards));
  // Virtual time each host's run is served.
  std::vector<double> host_ready(nodes_.size(), -1.0);
  // The global merge over the consumed entries, which stay in the shard
  // runs until the next query resets the nodes.
  offline::RankedMerge<const ShardEntry*> merge(rvaq.k);

  // A shard's trace node, built only when the statement is traced.
  const auto shard_context = [&](int shard) {
    return phase.active() ? phase.Child("shard" + std::to_string(shard))
                          : obs::QueryContext();
  };

  // Scatter: the query goes to every shard primary at t = 0. A planned
  // cascade's thresholds ride along (plan_wire_bytes; 0 when exact).
  const int64_t query_wire_bytes =
      64 + static_cast<int64_t>(action.size()) +
      static_cast<int64_t>(objects.size()) * 16 + plan_wire_bytes;
  for (int s = 0; s < num_shards; ++s) {
    shards[static_cast<size_t>(s)].active_host = s;
    shards[static_cast<size_t>(s)].expected = 0;
    shards[static_cast<size_t>(s)].deadline = kFailoverTimeoutMs;
    net.Send(kCoordinatorHost, s, kTagQuery, "query",
             Message{.query = query, .shard = s}, query_wire_bytes, 0.0);
  }

  const auto remaining_bound = [&]() {
    double bound = -kInf;
    for (const ShardState& state : shards) {
      if (!state.done) bound = std::max(bound, state.bound);
    }
    return bound;
  };
  const auto all_done = [&]() {
    for (const ShardState& state : shards) {
      if (!state.done) return false;
    }
    return true;
  };

  bool stopped = false;
  Status failure = Status::OK();
  int64_t steps = 0;
  while (!stopped && !all_done() && failure.ok()) {
    if (options_.max_steps > 0 && ++steps > options_.max_steps) {
      failure = Status::DeadlineExceeded(
          "cluster watchdog: gather exceeded " +
          std::to_string(options_.max_steps) + " scheduler events");
      break;
    }
    // Next event: the earliest of the network and the failover timers.
    double timer_ms = kInf;
    int timer_shard = -1;
    for (int s = 0; s < num_shards; ++s) {
      const ShardState& state = shards[static_cast<size_t>(s)];
      if (state.expected >= 0 && state.deadline < timer_ms) {
        timer_ms = state.deadline;
        timer_shard = s;
      }
    }
    const double net_ms = net.PeekTimeMs();
    if (timer_ms == kInf && net_ms == kInf) {
      failure = Status::Internal("cluster gather stalled with no events");
      break;
    }

    if (timer_ms <= net_ms) {
      // The outstanding batch did not arrive in time. Probe the host: a
      // shard that is merely slow (a long shard scan, a drop-delayed
      // message) gets its fetch re-sent — batches are idempotent, the
      // stale check below discards extras — while a host inside an
      // outage window triggers failover to the next replica.
      clock.Advance(timer_ms - clock.now_ms());
      ShardState& state = shards[static_cast<size_t>(timer_shard)];
      if (HostDown(state.active_host, clock.now_ms())) {
        ++result.failovers;
        static obs::Counter* const failovers =
            obs::MetricRegistry::Global().GetCounter(
                "vaq_cluster_failovers_total", {{"mode", "ranked"}});
        failovers->Increment();
        shard_context(timer_shard).AddStat("failovers", 1);
        if (state.replicas_used >= options_.num_replicas) {
          failure = Status::Unavailable(
              "shard " + std::to_string(timer_shard) +
              " lost: primary down and no replica left to fail over to");
          break;
        }
        state.active_host = ReplicaHost(timer_shard, state.replicas_used);
        ++state.replicas_used;
      }
      net.Send(kCoordinatorHost, state.active_host, kTagFetch, "fetch",
               Message{.query = query,
                       .shard = timer_shard,
                       .index = state.expected},
               16, clock.now_ms());
      state.deadline = clock.now_ms() + kFailoverTimeoutMs;
      continue;
    }

    Delivery delivery;
    // The peeked copy may have been a duplicate, suppressed on pop with
    // nothing behind it: nothing arrived, so re-enter the event loop.
    if (!net.NextDelivery(&delivery)) continue;
    clock.Advance(delivery.delivered_ms - clock.now_ms());
    const double now = clock.now_ms();

    if (delivery.tag == kTagQuery || delivery.tag == kTagFetch) {
      // A node receives a batch request.
      if (HostDown(delivery.to, now)) {
        static obs::Counter* const lost_outage =
            obs::MetricRegistry::Global().GetCounter(
                "vaq_cluster_net_lost_outage_total");
        lost_outage->Increment();
        continue;  // Lost; the coordinator's timer recovers.
      }
      Node* node = HostNode(delivery.to);
      double& ready_ms = host_ready[static_cast<size_t>(delivery.to)];
      double send_ms;
      if (!node->has_run()) {
        auto run_or = node->RunRanked(&scan);
        if (!run_or.ok()) {
          failure = run_or.status();
          break;
        }
        ready_ms = now + (*run_or)->modeled_ms;
        send_ms = ready_ms;
      } else {
        send_ms = std::max(now, ready_ms) + kBatchServeMs;
      }
      const Message batch = node->Batch(delivery.message, options_.batch_size);
      net.Send(delivery.to, kCoordinatorHost, kTagBatch, "batch", batch,
               node->WireBytes(batch), send_ms);
      continue;
    }

    // A batch arrives at the coordinator.
    VAQ_CHECK_EQ(delivery.tag, kTagBatch);
    const Message& batch = delivery.message;
    ShardState& state = shards[static_cast<size_t>(batch.shard)];
    if (state.expected != batch.index) {
      // Stale: a slow primary's batch landing after failover already
      // served this index, or a batch past an already-satisfied stream.
      static obs::Counter* const stale_batches =
          obs::MetricRegistry::Global().GetCounter(
              "vaq_cluster_stale_batches_total");
      stale_batches->Increment();
      continue;
    }
    VAQ_CHECK_EQ(batch.query, query) << "a batch of another statement";
    const Node* sender = HostNode(delivery.from);
    VAQ_CHECK(sender->has_run());
    const ShardRun* run = sender->run();
    const obs::QueryContext shard_ctx = shard_context(batch.shard);
    if (!state.folded) {
      // Shard accounting folds exactly once, replica re-runs included.
      result.merged += *run;
      result.single_node_ms += run->modeled_ms;
      result.max_shard_ms = std::max(result.max_shard_ms, run->modeled_ms);
      state.folded = true;
      if (shard_ctx.active()) {
        shard_ctx.AddMs(run->modeled_ms);
        shard_ctx.AddStat("videos_queried", run->videos_queried);
        shard_ctx.AddStat("videos_skipped", run->videos_skipped);
        if (run->videos_pruned > 0) {
          shard_ctx.AddStat("videos_pruned", run->videos_pruned);
        }
        if (run->candidates_pruned > 0) {
          shard_ctx.AddStat("candidates_pruned", run->candidates_pruned);
        }
        if (run->bai_pulls > 0) {
          shard_ctx.AddStat("bai_pulls", run->bai_pulls);
          shard_ctx.AddStat("bai_arms_eliminated", run->bai_arms_eliminated);
        }
      }
    }
    ++state.consumed_batches;
    ++result.batches_consumed;
    const int64_t entries = static_cast<int64_t>(batch.end - batch.begin);
    result.entries_consumed += entries;
    if (shard_ctx.active()) {
      shard_ctx.AddStat("batches", 1);
      shard_ctx.AddStat("entries", entries);
      shard_ctx.AddStat("net_bytes", delivery.wire_bytes);
    }
    // Each entry enters the merge at its single-node position: video
    // rank (the name order), then rank in the video.
    for (size_t i = batch.begin; i < batch.end; ++i) {
      const ShardEntry& entry = run->entries[i];
      const uint64_t position =
          static_cast<uint64_t>(entry.video->rank) << 32 |
          static_cast<uint32_t>(entry.rank_in_video);
      merge.Offer(entry.merge_score, position, [&] { return &entry; });
    }
    state.bound = batch.next_bound;
    state.expected = -1;
    state.deadline = kInf;
    if (!batch.more) state.done = true;

    // Threshold-algorithm stop: the k-th best consumed score strictly
    // beats anything any shard could still send. Strict, so an unseen
    // candidate tied with the k-th score (which the single-node stable
    // merge might prefer) is never pruned.
    if (merge.full() && merge.worst_score() > remaining_bound()) {
      stopped = true;
      break;
    }
    if (batch.more) {
      state.expected = batch.index + 1;
      net.Send(kCoordinatorHost, state.active_host, kTagFetch, "fetch",
               Message{.query = query,
                       .shard = batch.shard,
                       .index = state.expected},
               16, now);
      state.deadline = now + kFailoverTimeoutMs;
    }
  }

  if (!failure.ok()) {
    RankedQueries(/*ok=*/false)->Increment();
    return failure;
  }

  // Unfetched batches were pruned by the bound. The active host may have
  // been promoted moments before the global stop and never executed, so
  // consult any host of the shard that ran — the stopping rule requires
  // every shard to have reported at least once, which requires a run.
  for (int s = 0; s < num_shards; ++s) {
    const ShardState& state = shards[static_cast<size_t>(s)];
    const Node* node = HostNode(s);
    for (int r = 0; !node->has_run() && r < options_.num_replicas; ++r) {
      node = HostNode(ReplicaHost(s, r));
    }
    VAQ_CHECK(node->has_run());
    const int total = node->NumBatches(options_.batch_size);
    result.batches_pruned += std::max(0, total - static_cast<int>(
                                                     state.consumed_batches));
    result.entries_total +=
        static_cast<int64_t>(node->run()->entries.size());
  }

  // Only the k winners are copied out of the shard runs.
  const std::vector<const ShardEntry*> winners = merge.Take();
  result.merged.top.reserve(winners.size());
  for (const ShardEntry* entry : winners) {
    result.merged.top.push_back(
        offline::RepositoryRankedSequence{entry->video->name, entry->sequence});
  }
  result.answer_ms = clock.now_ms();
  result.net = net.stats();

  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  static obs::Counter* const batches_consumed = registry.GetCounter(
      "vaq_cluster_batches_total", {{"result", "consumed"}});
  static obs::Counter* const batches_pruned = registry.GetCounter(
      "vaq_cluster_batches_total", {{"result", "pruned"}});
  static obs::Counter* const entries_consumed = registry.GetCounter(
      "vaq_cluster_entries_total", {{"result", "consumed"}});
  static obs::Counter* const entries_pruned = registry.GetCounter(
      "vaq_cluster_entries_total", {{"result", "pruned"}});
  static obs::Histogram* const answer_ms =
      registry.GetHistogram("vaq_cluster_answer_ms");
  RankedQueries(/*ok=*/true)->Increment();
  batches_consumed->Increment(result.batches_consumed);
  batches_pruned->Increment(result.batches_pruned);
  entries_consumed->Increment(result.entries_consumed);
  entries_pruned->Increment(result.entries_total - result.entries_consumed);
  answer_ms->Observe(result.answer_ms);
  // Coordinator-level attribution: self_ms is the end-to-end virtual
  // answer latency (the shards' scan ms sits on their child nodes and
  // overlaps it — the scatter–gather runs them in parallel).
  phase.AddMs(result.answer_ms);
  phase.AddStat("shards", num_shards);
  phase.AddStat("batches_consumed", result.batches_consumed);
  phase.AddStat("batches_pruned", result.batches_pruned);
  phase.AddStat("entries_consumed", result.entries_consumed);
  phase.AddStat("entries_pruned",
                result.entries_total - result.entries_consumed);
  phase.AddStat("failovers", result.failovers);
  phase.AddStat("net_messages", result.net.messages);
  phase.AddStat("net_bytes", result.net.bytes);
  return result;
}

StatusOr<query::QueryResult> Coordinator::ExecuteRanked(
    const query::QueryStatement& stmt, const obs::QueryContext& ctx) {
  if (!stmt.IsConjunctive()) {
    return Status::InvalidArgument(
        "cluster ranked execution supports conjunctive statements only "
        "(general CNF ranking is single-node; see DESIGN.md §11)");
  }
  // The plan's thresholds and the identifier ship with the scatter: each
  // shard prunes and identifies locally.
  VAQ_ASSIGN_OR_RETURN(query::RankedStatement ranked,
                       query::RankedStatement::Plan(stmt, planner_.get(), ctx));
  ranked.OpenSamplingPhase();
  VAQ_ASSIGN_OR_RETURN(
      const ClusterTopKResult cluster,
      TopK(stmt.action, stmt.objects, ranked.scoring(), ranked.options(), ctx,
           ranked.plan_wire_bytes()));
  const offline::RepositoryTopKResult& merged = cluster.merged;
  std::vector<offline::RankedSequence> rows;
  rows.reserve(merged.top.size());
  for (const offline::RepositoryRankedSequence& entry : merged.top) {
    rows.push_back(entry.sequence);
  }
  return std::move(ranked).Finish(
      std::move(rows), merged.accesses, merged.bai_pulls,
      merged.bai_arms_eliminated,
      [&merged](double delta, const obs::QueryContext& bai_phase) {
        bai_phase.AddStat("stops", merged.bai_stops);
        return bai::RenderAggregateCertificate(delta, merged.bai_pulls,
                                               merged.bai_arms_eliminated,
                                               merged.bai_stops);
      });
}

}  // namespace cluster
}  // namespace vaq
