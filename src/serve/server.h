// Concurrent multi-query serving runtime.
//
// The paper evaluates one query at a time; a deployment faces many
// standing queries over many feeds at once. `Server` turns a
// query::Session, its source registry and its one dispatch step
// (Session::Run), into a small serving runtime; the one input of its own
// is each online statement's model bundle, from the shared detection
// cache below:
//
//  * **Admission control.** `Submit` parses and resolves a statement and
//    either enqueues it or rejects it — kUnavailable when the bounded
//    submission queue is full (the caller's backpressure signal),
//    kInvalidArgument for unparsable SQL, kNotFound for an unregistered
//    source. Every outcome is counted
//    (vaq_serve_submitted_total{outcome=...}).
//
//  * **Multi-tenant quotas.** The tenant-tagged `Submit(sql, tenant)`
//    overload admits against a per-tenant pending quota
//    (ServeOptions::tenant_quotas) instead of only the global bound: a
//    tenant at its quota is shed with kResourceExhausted while every
//    other tenant's admissions proceed untouched — the isolation
//    contract the traffic front door (src/traffic/) builds on. Per-
//    tenant outcomes land in vaq_tenant_* metric families, and each
//    tenant's statement costs in one histogram,
//    vaq_tenant_latency_ms{tenant=...}.
//
//  * **Per-stream sharding.** Each registered source owns a shard: a FIFO
//    of its admitted queries. A worker claims an idle shard, runs its
//    head query to completion, releases the shard and picks again, so
//    queries against one source execute serially in submission order
//    while distinct sources proceed in parallel. Because every engine is
//    a pure function of (seed, statement, source) and shard order is
//    fixed by submission, the merged results are *identical for any
//    worker count* — the determinism tests diff a 1-thread run against an
//    8-thread run byte for byte.
//
//  * **Shared detection cache.** With `share_detection_cache`, queries
//    acquire their model bundle from a SharedDetectionCache keyed by
//    (source, stack) instead of building a private one, so overlapping
//    queries on the same feed reuse memoized inferences (see
//    detection_cache.h). Per-query stats stay correct because the engines
//    report per-run deltas.
//
//  * **Merge-at-drain statistics.** Workers accumulate ModelStats /
//    AccessCounter into worker-local state only; `Drain` merges them
//    after the pool is quiescent. Nothing non-atomic is ever written
//    concurrently (the TSan tier-1 config runs these tests). The
//    modeled-ms total and the latency histograms
//    (vaq_serve_query_simulated_ms, vaq_tenant_latency_ms) fill there
//    too, over the id-sorted results, so each floating-point sum adds in
//    admission order at any worker count.
//
// Costs are modeled on the simulated timeline — online queries charge the
// engines' simulated inference milliseconds, ranked queries the modeled
// disk time of their table accesses — matching the repo-wide convention
// that performance claims are about modeled work, not this machine's
// wall clock. `ModeledMakespanMs` replays the shard schedule on a
// virtual-time list scheduler to price a worker-count deterministically
// (bench_serve's throughput-scaling curve).
//
// Besides the batch Submit/Drain path, the server offers a *standing-
// query* mode for long-lived monitoring: queries are admitted up front
// (AddStandingQuery) and then every registered stream is driven clip by
// clip (AdvanceStream), all standing queries over one source advancing in
// lockstep over its shared model bundle. This mode is durable: with a
// ckpt::Store configured, every admission and clip advance is logged to a
// WAL before it is applied, periodic snapshots capture the complete
// engine/cache/metric state, and Recover() rebuilds a crashed session
// byte-identically (DESIGN.md §10).
#ifndef VAQ_SERVE_SERVER_H_
#define VAQ_SERVE_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cascade/planner.h"
#include "ckpt/recovery.h"
#include "ckpt/serializer.h"
#include "ckpt/store.h"
#include "common/status.h"
#include "detect/models.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "obs/query_trace.h"
#include "online/streaming.h"
#include "query/session.h"
#include "serve/detection_cache.h"
#include "storage/access_counter.h"
#include "storage/catalog.h"
#include "synth/scenario.h"

namespace vaq {
namespace serve {

// Default snapshot cadence for durable standing-query sessions (vaqctl
// serve --checkpoint-dir without --snapshot-every; bench_ckpt's reference
// point for the ≤10% overhead budget).
inline constexpr int64_t kDefaultSnapshotEveryClips = 8;

struct ServeOptions {
  // Worker pool size. 0 runs every admitted query inline on the thread
  // that calls Drain() — the deterministic reference schedule.
  int threads = 4;
  // Maximum admitted-but-unfinished queries; Submit returns kUnavailable
  // beyond it.
  int queue_capacity = 64;
  // Per-tenant pending quotas for the tenant-tagged Submit overload: a
  // tenant listed here is shed with kResourceExhausted once it has this
  // many admitted-but-unfinished queries, before the global bound is
  // consulted for it. Tenants absent from the map (and untagged
  // submissions) see only queue_capacity. Empty = single-tenant legacy
  // behavior, bit-for-bit.
  std::map<std::string, int> tenant_quotas;
  // Share one ModelBundle per (source, stack) across queries.
  bool share_detection_cache = true;
  // Applied to every stream whose SvaqdOptions carry no plan of their
  // own. Not owned; must outlive the server.
  const fault::FaultPlan* fault_plan = nullptr;
  // Mint a per-query obs::QueryTrace at admission (root "q<id>", created
  // on the submitting thread) and thread it through execution: batch
  // queries fill ServedQuery::trace, standing queries accumulate across
  // advances, and the server keeps a "session" trace for WAL appends,
  // snapshots and recovery (session_trace()). The trees are a pure
  // function of (seed, workload) — byte-identical at any thread count.
  bool trace_queries = false;

  // --- Durability (standing-query mode; DESIGN.md §10) -------------------
  // Checkpoint store for standing queries. Null disables WAL and
  // snapshots. Not owned; must outlive the server.
  ckpt::Store* checkpoint_store = nullptr;
  // Automatic snapshot policy, evaluated after each AdvanceStream: a
  // snapshot is taken every N clips advanced (0 = off).
  int64_t snapshot_every_clips = 0;
};

// One admitted query's outcome.
struct ServedQuery {
  int64_t id = 0;       // Admission order, unique per server.
  std::string sql;      // Original statement text.
  std::string shard;    // "stream/<name>" or "repo/<name>".
  std::string kind;     // "online" or "ranked".
  std::string tenant;   // Tenant tag; empty for untagged submissions.
  Status status;        // Run-time failure, e.g. a name the vocab lacks.
  query::QueryResult result;  // Valid iff status.ok().
  // Modeled cost: simulated inference ms (online) or modeled disk ms
  // (ranked).
  double simulated_ms = 0;
  // Per-query profile tree (ServeOptions::trace_queries); null otherwise.
  // Shared: the admitting thread mints it, one worker fills it, the
  // caller of Drain/FinishStanding reads it.
  std::shared_ptr<obs::QueryTrace> trace;
};

// Aggregate accounting over a server's lifetime, merged at Drain.
struct ServeStats {
  int64_t accepted = 0;
  int64_t rejected_overflow = 0;
  int64_t rejected_tenant_quota = 0;  // Shed with kResourceExhausted.
  int64_t rejected_parse = 0;
  int64_t rejected_unknown_source = 0;
  int64_t completed = 0;  // Ran to a result (possibly a non-OK status).
  int64_t failed = 0;     // Completed with a non-OK status.
  int64_t cache_bundles_created = 0;
  int64_t cache_bundle_reuses = 0;
  detect::ModelStats detector_stats;
  detect::ModelStats recognizer_stats;
  storage::AccessCounter accesses;
  double total_simulated_ms = 0;

  std::string ToString() const;
};

class Server {
 public:
  explicit Server(ServeOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Register sources before the first Submit; registration is not
  // synchronized against running workers. Each call forwards to the
  // session method of the same name, so a statement resolves, plans and
  // runs as in a session; RegisterStream first gives a stream without a
  // fault plan of its own ServeOptions::fault_plan. A backend's
  // statements share the shard "repo/<name>", so one worker at a time
  // runs the backend.
  void RegisterStream(const std::string& name, synth::Scenario scenario,
                      uint64_t model_seed = 1,
                      online::SvaqdOptions svaqd_options = {});
  void RegisterRepository(const std::string& name, storage::VideoIndex index);
  void RegisterProxySet(const cascade::ProxySet* proxy);
  void RegisterRankedBackend(const std::string& name,
                             query::RankedBackend* backend);

  // Parses, resolves and enqueues one statement; returns its id.
  // kUnavailable = queue full (retry later), kInvalidArgument = parse
  // error, kNotFound = unregistered source, kFailedPrecondition = the
  // server has already been drained (Drain is terminal). Thread-safe;
  // workers consume concurrently.
  StatusOr<int64_t> Submit(const std::string& sql);

  // Tenant-tagged admission: like Submit(sql), plus the per-tenant
  // quota check (kResourceExhausted when `tenant` is listed in
  // ServeOptions::tenant_quotas and already has that many pending
  // queries) and per-tenant accounting — vaq_tenant_submitted_total /
  // vaq_tenant_queries_total counters and, at Drain, the
  // vaq_tenant_latency_ms{tenant=...} histogram of its statements'
  // modeled cost. An empty tenant is the untagged path.
  StatusOr<int64_t> Submit(const std::string& sql, const std::string& tenant);

  // Blocks until every admitted query has finished, merges worker-local
  // statistics, fills the latency histograms in id order, and returns all
  // results sorted by id. Terminal: from the
  // moment Drain begins, further Submit calls deterministically fail
  // with kFailedPrecondition (there is no later merge point that could
  // pick their results up).
  std::vector<ServedQuery> Drain();

  // --- Standing-query (clip-lockstep) mode -------------------------------
  // The admission thread owns this whole mode: none of the methods below
  // are synchronized against Submit workers, and the checkpoint store is
  // only ever touched from here.

  // Parses and admits one online statement as a standing query against a
  // registered stream; returns its id. Must be called before the
  // statement's source has advanced (kFailedPrecondition otherwise);
  // ranked statements are rejected as kInvalidArgument. Engine
  // construction failures (e.g. a name the vocabulary lacks) are still
  // admitted and surface through FinishStanding, mirroring Submit's
  // run-time-failure semantics.
  StatusOr<int64_t> AddStandingQuery(const std::string& sql);

  // Advances every standing query on `source` by one clip, in id order.
  // With a checkpoint store, the clip is WAL-logged *before* any engine
  // state changes, and a snapshot is taken afterwards when the configured
  // interval has elapsed. kOutOfRange past the scenario's clip count.
  Status AdvanceStream(const std::string& source);

  // Ends every standing query (closing open result sequences) and
  // returns their results in id order. Terminal for the standing mode.
  std::vector<ServedQuery> FinishStanding();

  // Takes a snapshot now (kFailedPrecondition without a checkpoint
  // store), truncates the WAL and keeps the predecessor snapshot as the
  // corruption fallback.
  Status Checkpoint();

  // Rebuilds the standing-query session from the newest valid snapshot
  // plus the WAL (ckpt::RecoveryDriver). Must run on a freshly
  // constructed server with the same registrations and options as the
  // crashed one; afterwards the session resumes exactly where it left
  // off — results and logical metrics are byte-identical to an
  // uninterrupted run.
  StatusOr<ckpt::RecoveryReport> Recover();

  // Chaos/test hook: performs ONLY the WAL append of the next advance of
  // `source` — the bytes a crash between log and apply would leave
  // behind — without touching engines, positions or the snapshot policy.
  // The in-memory session no longer matches its log afterwards, so the
  // server must be abandoned; Recover() on a fresh server replays the
  // logged advance, which is exactly the log-before-apply discipline
  // under test. Same preconditions as AdvanceStream, plus
  // kFailedPrecondition without a checkpoint store.
  Status WalTornAdvance(const std::string& source);

  // Clips advanced so far on `source` (0 when never advanced).
  int64_t StreamPosition(const std::string& source) const;

  // The server-lifetime trace (root "session") carrying WAL-append,
  // snapshot and recovery attribution. Null unless
  // ServeOptions::trace_queries. Read it only from the admission thread
  // while no worker is running (e.g. after Drain/FinishStanding).
  const obs::QueryTrace* session_trace() const { return session_trace_.get(); }

  // Lifetime totals; call after Drain (worker-local stats merge there).
  ServeStats stats() const;

  const ServeOptions& options() const { return options_; }

 private:
  struct PendingQuery {
    int64_t id = 0;
    std::string sql;
    query::QueryStatement stmt;
    bool ranked = false;
    std::string shard;
    std::string tenant;  // Empty for untagged submissions.
    // Minted under mu_ at admission (trace_queries); the claiming worker
    // parents its spans under the root the submitter created.
    std::shared_ptr<obs::QueryTrace> trace;
  };
  // FIFO of one source's admitted queries. `busy` pins the shard (and
  // with it the source's shared model bundle) to a single worker; the
  // queue mutex hand-off orders successive owners.
  struct Shard {
    std::deque<PendingQuery> queue;
    bool busy = false;
  };
  // Worker-local accumulators, merged into stats_ at Drain only. The
  // modeled-ms total is not among them: a floating-point sum, it adds at
  // Drain in id order.
  struct WorkerState {
    detect::ModelStats detector_stats;
    detect::ModelStats recognizer_stats;
    storage::AccessCounter accesses;
    int64_t completed = 0;
    int64_t failed = 0;
  };
  // One admitted standing query and its incremental engine (null when
  // construction failed; see status).
  struct StandingQuery {
    int64_t id = 0;
    std::string sql;
    std::string source;  // Registered stream name.
    query::QueryStatement stmt;
    std::unique_ptr<online::StreamingSvaqd> engine;
    detect::ModelBundle owned_models;  // Backing store when cache is off.
    detect::ModelBundle* models = nullptr;
    detect::ModelStats det_acc;  // This query's per-clip stat deltas,
    detect::ModelStats rec_acc;  // accumulated across advances.
    Status status;               // First construction/advance failure.
    bool finished = false;
    // Cascade prefilter (WITH RECALL < 1.0 on a conjunctive statement;
    // DESIGN.md §14): clips outside `surviving` are pushed through
    // StreamingSvaqd::PushPrunedClip — no model call is made for them.
    bool cascade_active = false;
    IntervalSet surviving;
    std::string cascade_plan;  // Rendered plan; exact fallback included.
    int64_t clips_pruned = 0;
    // Per-query trace (trace_queries): every advance folds into one
    // "advance" child node, so the tree stays bounded.
    std::shared_ptr<obs::QueryTrace> trace;
  };

  void StartWorkersLocked();
  void WorkerLoop(WorkerState* state);
  // Claims the head of the first idle non-empty shard in name order.
  bool ClaimNextLocked(PendingQuery* out, Shard** shard);
  // Retires a claimed query that has run, for WorkerLoop and the
  // threads = 0 Drain alike: frees its shard, decrements the pending and
  // tenant counts, updates the queue-depth gauge and files its result.
  void CompleteQueryLocked(Shard* shard, ServedQuery done);
  ServedQuery RunQuery(const PendingQuery& pending, WorkerState* state);
  // A statement's model bundle over stream `name`: the shared cache's,
  // counted as a hit or miss (also on `ctx`), else a fresh `*owned`.
  detect::ModelBundle* AcquireModels(const std::string& name,
                                     const query::StreamSource& source,
                                     const query::QueryStatement& stmt,
                                     detect::ModelBundle* owned,
                                     const obs::QueryContext& ctx);
  void MergeWorkerStatsLocked();

  // Standing-mode internals; callers hold mu_. Admit/Advance are shared
  // between the live path and WAL replay (replay skips WAL appends and
  // the snapshot policy via replaying_).
  Status AdmitStandingLocked(int64_t id, const std::string& sql,
                             query::QueryStatement stmt);
  // Plans a freshly admitted standing query's WITH RECALL < 1.0 clause
  // (query::PlanRecall) with a one-shot planner over the stream's proxy
  // index, loaded or built and persisted via the checkpoint store, and
  // fills the query's surviving-clip set. Shared by live admission,
  // snapshot restore and WAL replay, so a recovered session prunes the
  // exact same clips the crashed one would have.
  Status PlanStandingCascadeLocked(StandingQuery* q,
                                   const query::StreamSource& source);
  Status AdvanceStreamLocked(const std::string& source);
  // The clip the next advance of `source` pushes, or why it cannot
  // advance (finished, unregistered, exhausted).
  StatusOr<int64_t> NextClipLocked(const std::string& source) const;
  // WAL-logs the advance of `source` over clip `pos`.
  Status LogClipLocked(const std::string& source, int64_t pos);
  Status CheckpointLocked();
  Status AppendWalLocked(uint32_t tag, const ckpt::Payload& payload);
  Status RestoreBlobLocked(uint32_t version,
                           const std::vector<ckpt::Record>& records);
  Status ReplayWalLocked(const ckpt::Record& record);

  const ServeOptions options_;

  // The source registry and dispatch step. Immutable after the first
  // Submit.
  query::Session session_;

  SharedDetectionCache cache_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // Signals workers: work or stop.
  std::condition_variable drain_cv_;  // Signals Drain: a query finished.
  std::map<std::string, Shard> shards_;
  std::vector<ServedQuery> finished_;
  std::vector<std::unique_ptr<WorkerState>> worker_states_;
  std::vector<std::thread> workers_;
  ServeStats stats_;
  int64_t next_id_ = 0;
  int64_t pending_ = 0;  // Admitted, not yet finished.
  // Per-tenant admitted-but-unfinished counts (quota enforcement).
  std::map<std::string, int64_t> tenant_pending_;
  bool stopping_ = false;
  bool drained_ = false;  // Drain began; submissions are closed.

  // Standing-query mode. unique_ptr keeps `models = &owned_models`
  // stable across vector growth.
  std::vector<std::unique_ptr<StandingQuery>> standing_;
  // Per-stream proxy indexes, loaded/built on the first approximate
  // standing query against the stream (each set holds that one stream's
  // index, keyed by its name — the planner's expected shape).
  std::map<std::string, cascade::ProxySet> proxies_;
  std::map<std::string, int64_t> stream_pos_;  // Clips advanced per source.
  int64_t ckpt_seq_ = 0;               // Next snapshot sequence number.
  int64_t clips_since_snapshot_ = 0;   // Snapshot-policy accumulator.
  bool standing_finished_ = false;
  bool replaying_ = false;  // Inside Recover(): no WAL, no snapshots.

  // Registry mirrors (resolved in the constructor).
  obs::Counter* submitted_accepted_;
  obs::Counter* submitted_rejected_overflow_;
  obs::Counter* submitted_rejected_parse_;
  obs::Counter* submitted_rejected_unknown_;
  obs::Gauge* queue_depth_;
  obs::Counter* cache_hits_bundle_;
  obs::Counter* cache_misses_bundle_;
  obs::Counter* cache_hits_inference_;
  obs::Counter* cache_misses_inference_;
  obs::Histogram* query_ms_online_;
  obs::Histogram* query_ms_ranked_;
  obs::Counter* ckpt_snapshots_;
  obs::Counter* ckpt_snapshot_bytes_;
  obs::Counter* ckpt_wal_records_;
  obs::Histogram* ckpt_snapshot_ms_;

  // Root "session": WAL/snapshot/recovery attribution (trace_queries).
  std::unique_ptr<obs::QueryTrace> session_trace_;
};

// Virtual-time list-scheduling makespan (ms) of `queries` on `threads`
// workers under the server's shard discipline: per-shard FIFO in id
// order, a free worker claims the first available shard in name order.
// Deterministic — bench_serve prices thread counts with it instead of
// trusting this machine's scheduler.
double ModeledMakespanMs(const std::vector<ServedQuery>& queries,
                         int threads);

// Canonical text rendering of one result (id, kind, status, sequences,
// ranked scores, per-query stats). The determinism tests compare these
// strings across thread counts; vaqctl serve prints them.
std::string DescribeServedQuery(const ServedQuery& q);

// The metric-family prefixes whose values are logical (event counts,
// simulated ms) and therefore thread-count-invariant for a fixed seed —
// the FilterSnapshot allowlist used by the determinism tests. The latency
// histograms among them are byte-identical at any thread count, _sum
// lines included, because Drain fills them in id order.
const std::vector<std::string>& LogicalMetricPrefixes();

}  // namespace serve
}  // namespace vaq

#endif  // VAQ_SERVE_SERVER_H_
