#include "serve/server.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <optional>
#include <utility>

#include "cascade/store.h"
#include "ckpt/metrics_io.h"
#include "common/logging.h"
#include "detect/model_profile.h"
#include "query/parser.h"
#include "video/cnf_query.h"
#include "video/query_spec.h"

namespace vaq {
namespace serve {
namespace {

// Modeled cost of writing one snapshot byte (sequential, row-rate scaled
// down to bytes); a snapshot charges one seek (storage::kModeledSeekMs)
// plus this per byte.
constexpr double kSnapshotByteMs = 1e-5;

// Snapshot blob record tags (ckpt::Serializer framing). Append-only
// within a format version; the record order in the blob is load-bearing
// for recovery — see CheckpointLocked.
enum SnapshotTag : uint32_t {
  kSnapStanding = 1,       // One standing query incl. its engine blob.
  kSnapStreamPos = 2,      // One stream's clip cursor.
  kSnapBundleStats = 3,    // One model bundle's cumulative stats.
  kSnapCacheCounters = 4,  // SharedDetectionCache reuse accounting.
  kSnapMeta = 5,           // next_id, seq, aggregate ServeStats.
  kSnapMetric = 6,         // One obs registry instrument.
};

// WAL record tags (bare ckpt record stream, no blob header).
enum WalTag : uint32_t {
  kWalAddQuery = 1,  // {id, sql} — logged before admission applies.
  kWalClip = 2,      // {source, clip} — logged before the advance.
};

std::string FormatMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

void EncodeModelStats(const detect::ModelStats& s, ckpt::Payload* out) {
  out->PutI64(s.inferences);
  out->PutI64(s.type_queries);
  out->PutF64(s.simulated_ms);
  out->PutI64(s.faults_injected);
  out->PutI64(s.retries);
  out->PutI64(s.failures);
  out->PutI64(s.fallbacks);
  out->PutI64(s.breaker_trips);
}

// Every counter a snapshot restores: a standing-query id, the next id
// and snapshot sequence, the ServeStats and cache counts, a standing
// query's pruned clips and a model's call counts. The server steps past
// or adds to each, so a value outside [0, INT64_MAX) is damage.
Status DecodeCounter(ckpt::PayloadReader* in, const char* what,
                     int64_t* out) {
  VAQ_RETURN_IF_ERROR(in->GetI64(out));
  if (*out < 0 || *out == std::numeric_limits<int64_t>::max()) {
    return Status::Corruption(std::string("bad ") + what +
                              " in checkpoint: " + std::to_string(*out));
  }
  return Status::OK();
}

Status DecodeModelStats(ckpt::PayloadReader* in, detect::ModelStats* s) {
  VAQ_RETURN_IF_ERROR(DecodeCounter(in, "model inferences", &s->inferences));
  VAQ_RETURN_IF_ERROR(
      DecodeCounter(in, "model type queries", &s->type_queries));
  VAQ_RETURN_IF_ERROR(in->GetF64(&s->simulated_ms));
  VAQ_RETURN_IF_ERROR(
      DecodeCounter(in, "model faults injected", &s->faults_injected));
  VAQ_RETURN_IF_ERROR(DecodeCounter(in, "model retries", &s->retries));
  VAQ_RETURN_IF_ERROR(DecodeCounter(in, "model failures", &s->failures));
  VAQ_RETURN_IF_ERROR(DecodeCounter(in, "model fallbacks", &s->fallbacks));
  VAQ_RETURN_IF_ERROR(
      DecodeCounter(in, "model breaker trips", &s->breaker_trips));
  return Status::OK();
}

void EncodeStatus(const Status& s, ckpt::Payload* out) {
  out->PutBool(s.ok());
  if (!s.ok()) {
    out->PutU32(static_cast<uint32_t>(s.code()));
    out->PutString(s.message());
  }
}

Status DecodeStatus(ckpt::PayloadReader* in, Status* out) {
  bool ok = false;
  VAQ_RETURN_IF_ERROR(in->GetBool(&ok));
  if (ok) {
    *out = Status::OK();
    return Status::OK();
  }
  uint32_t code = 0;
  std::string message;
  VAQ_RETURN_IF_ERROR(in->GetU32(&code));
  VAQ_RETURN_IF_ERROR(in->GetString(&message));
  // A failed status has a code past kOk and within the enumeration.
  if (code == static_cast<uint32_t>(StatusCode::kOk) ||
      code > static_cast<uint32_t>(StatusCode::kResourceExhausted)) {
    return Status::Corruption("bad status code in checkpoint");
  }
  *out = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

// Cumulative detector/recognizer stats of one bundle (the tracker is
// untouched by the online engines).
void EncodeBundleStats(const detect::ModelBundle& bundle,
                       ckpt::Payload* out) {
  out->PutBool(bundle.detector != nullptr);
  if (bundle.detector != nullptr) {
    EncodeModelStats(bundle.detector->stats(), out);
  }
  out->PutBool(bundle.recognizer != nullptr);
  if (bundle.recognizer != nullptr) {
    EncodeModelStats(bundle.recognizer->stats(), out);
  }
}

Status DecodeBundleStats(ckpt::PayloadReader* in,
                         detect::ModelBundle* bundle) {
  bool has_detector = false;
  VAQ_RETURN_IF_ERROR(in->GetBool(&has_detector));
  if (has_detector) {
    detect::ModelStats s;
    VAQ_RETURN_IF_ERROR(DecodeModelStats(in, &s));
    if (bundle->detector == nullptr) {
      return Status::Corruption("snapshot has detector stats for a bundle "
                                "rebuilt without a detector");
    }
    bundle->detector->mutable_stats() = s;
  }
  bool has_recognizer = false;
  VAQ_RETURN_IF_ERROR(in->GetBool(&has_recognizer));
  if (has_recognizer) {
    detect::ModelStats s;
    VAQ_RETURN_IF_ERROR(DecodeModelStats(in, &s));
    if (bundle->recognizer == nullptr) {
      return Status::Corruption("snapshot has recognizer stats for a bundle "
                                "rebuilt without a recognizer");
    }
    bundle->recognizer->mutable_stats() = s;
  }
  return Status::OK();
}

}  // namespace

std::string ServeStats::ToString() const {
  std::string out = "{accepted=" + std::to_string(accepted) +
                    ", rejected_overflow=" + std::to_string(rejected_overflow) +
                    ", rejected_tenant_quota=" +
                    std::to_string(rejected_tenant_quota) +
                    ", rejected_parse=" + std::to_string(rejected_parse) +
                    ", rejected_unknown_source=" +
                    std::to_string(rejected_unknown_source) +
                    ", completed=" + std::to_string(completed) +
                    ", failed=" + std::to_string(failed) +
                    ", cache_bundles_created=" +
                    std::to_string(cache_bundles_created) +
                    ", cache_bundle_reuses=" +
                    std::to_string(cache_bundle_reuses) +
                    ", total_simulated_ms=" + FormatMs(total_simulated_ms) +
                    "}";
  return out;
}

Server::Server(ServeOptions options) : options_(options) {
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  submitted_accepted_ = registry.GetCounter("vaq_serve_submitted_total",
                                            {{"outcome", "accepted"}});
  submitted_rejected_overflow_ = registry.GetCounter(
      "vaq_serve_submitted_total", {{"outcome", "rejected_overflow"}});
  submitted_rejected_parse_ = registry.GetCounter(
      "vaq_serve_submitted_total", {{"outcome", "rejected_parse"}});
  submitted_rejected_unknown_ = registry.GetCounter(
      "vaq_serve_submitted_total", {{"outcome", "rejected_unknown_source"}});
  queue_depth_ = registry.GetGauge("vaq_serve_queue_depth");
  cache_hits_bundle_ = registry.GetCounter("vaq_serve_cache_hits_total",
                                           {{"domain", "bundle"}});
  cache_misses_bundle_ = registry.GetCounter("vaq_serve_cache_misses_total",
                                             {{"domain", "bundle"}});
  cache_hits_inference_ = registry.GetCounter("vaq_serve_cache_hits_total",
                                              {{"domain", "inference"}});
  cache_misses_inference_ = registry.GetCounter("vaq_serve_cache_misses_total",
                                                {{"domain", "inference"}});
  query_ms_online_ = registry.GetHistogram("vaq_serve_query_simulated_ms",
                                           {{"kind", "online"}});
  query_ms_ranked_ = registry.GetHistogram("vaq_serve_query_simulated_ms",
                                           {{"kind", "ranked"}});
  ckpt_snapshots_ = registry.GetCounter("vaq_ckpt_snapshots_total");
  ckpt_snapshot_bytes_ = registry.GetCounter("vaq_ckpt_snapshot_bytes_total");
  ckpt_wal_records_ = registry.GetCounter("vaq_ckpt_wal_records_total");
  ckpt_snapshot_ms_ = registry.GetHistogram("vaq_ckpt_snapshot_modeled_ms");
  if (options_.trace_queries) {
    session_trace_ = std::make_unique<obs::QueryTrace>("session");
  }
  if (options_.threads <= 0) {
    // Inline mode: Drain() runs queries on the calling thread with this
    // dedicated accumulator.
    worker_states_.push_back(std::make_unique<WorkerState>());
  }
}

Server::~Server() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void Server::RegisterStream(const std::string& name, synth::Scenario scenario,
                            uint64_t model_seed,
                            online::SvaqdOptions svaqd_options) {
  // The server-level plan covers streams that do not bring their own.
  if (svaqd_options.fault_plan == nullptr) {
    svaqd_options.fault_plan = options_.fault_plan;
  }
  session_.RegisterStream(name, std::move(scenario), model_seed,
                          std::move(svaqd_options));
}

void Server::RegisterRepository(const std::string& name,
                                storage::VideoIndex index) {
  session_.RegisterRepository(name, std::move(index));
}

void Server::RegisterProxySet(const cascade::ProxySet* proxy) {
  session_.RegisterProxySet(proxy);
}

void Server::RegisterRankedBackend(const std::string& name,
                                   query::RankedBackend* backend) {
  session_.RegisterRankedBackend(name, backend);
}

namespace {

Status DrainedError() {
  obs::MetricRegistry::Global()
      .GetCounter("vaq_serve_submitted_total",
                  {{"outcome", "rejected_terminated"}})
      ->Increment();
  return Status::FailedPrecondition(
      "server already drained; submissions are closed");
}

}  // namespace

StatusOr<int64_t> Server::Submit(const std::string& sql) {
  return Submit(sql, std::string());
}

StatusOr<int64_t> Server::Submit(const std::string& sql,
                                 const std::string& tenant) {
  {
    // Checked before parsing so that *every* post-Drain submission fails
    // the same way, not just well-formed ones.
    std::lock_guard<std::mutex> lock(mu_);
    if (drained_) return DrainedError();
  }
  auto parsed = query::Parse(sql);
  if (!parsed.ok()) {
    submitted_rejected_parse_->Increment();
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.rejected_parse;
    return parsed.status();
  }
  PendingQuery pending;
  pending.sql = sql;
  pending.stmt = std::move(parsed).value();
  pending.ranked = pending.stmt.IsRanked();
  pending.shard = (pending.ranked ? "repo/" : "stream/") + pending.stmt.video;
  if (Status known = session_.CheckSource(pending.stmt); !known.ok()) {
    submitted_rejected_unknown_->Increment();
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.rejected_unknown_source;
    return known;
  }

  std::lock_guard<std::mutex> lock(mu_);
  // Re-checked under the admission lock: a Drain that began while this
  // statement was being parsed closes the door deterministically — the
  // query would otherwise sit in a queue no Drain will ever merge.
  if (drained_) return DrainedError();
  if (!tenant.empty()) {
    // The tenant quota is checked before the global bound so an abusive
    // tenant is shed at *its* limit, never by eating into the shared
    // capacity other tenants are admitted against.
    const auto quota = options_.tenant_quotas.find(tenant);
    if (quota != options_.tenant_quotas.end() &&
        tenant_pending_[tenant] >= quota->second) {
      obs::MetricRegistry::Global()
          .GetCounter("vaq_tenant_submitted_total",
                      {{"outcome", "shed"}, {"tenant", tenant}})
          ->Increment();
      ++stats_.rejected_tenant_quota;
      return Status::ResourceExhausted(
          "tenant '" + tenant + "' over quota (" +
          std::to_string(quota->second) + " pending)");
    }
  }
  if (pending_ >= options_.queue_capacity) {
    submitted_rejected_overflow_->Increment();
    ++stats_.rejected_overflow;
    return Status::Unavailable("submission queue full (" +
                               std::to_string(options_.queue_capacity) +
                               " pending)");
  }
  pending.tenant = tenant;
  if (!tenant.empty()) {
    ++tenant_pending_[tenant];
    obs::MetricRegistry::Global()
        .GetCounter("vaq_tenant_submitted_total",
                    {{"outcome", "accepted"}, {"tenant", tenant}})
        ->Increment();
  }
  pending.id = next_id_++;
  const int64_t id = pending.id;
  if (options_.trace_queries) {
    // The root span is minted here, on the submitting thread; the worker
    // that later claims the query parents its spans under it.
    pending.trace =
        std::make_shared<obs::QueryTrace>("q" + std::to_string(id));
  }
  shards_[pending.shard].queue.push_back(std::move(pending));
  ++pending_;
  queue_depth_->Set(static_cast<double>(pending_));
  submitted_accepted_->Increment();
  ++stats_.accepted;
  StartWorkersLocked();
  work_cv_.notify_one();
  return id;
}

void Server::StartWorkersLocked() {
  if (options_.threads <= 0 || !workers_.empty() || stopping_) return;
  // First admission starts the pool, so every registration happens-before
  // every worker read of the session's registry.
  workers_.reserve(options_.threads);
  for (int i = 0; i < options_.threads; ++i) {
    worker_states_.push_back(std::make_unique<WorkerState>());
    WorkerState* state = worker_states_.back().get();
    workers_.emplace_back([this, state] { WorkerLoop(state); });
  }
}

bool Server::ClaimNextLocked(PendingQuery* out, Shard** shard) {
  for (auto& [name, s] : shards_) {
    if (s.busy || s.queue.empty()) continue;
    *out = std::move(s.queue.front());
    s.queue.pop_front();
    s.busy = true;
    *shard = &s;
    return true;
  }
  return false;
}

void Server::CompleteQueryLocked(Shard* shard, ServedQuery done) {
  shard->busy = false;
  --pending_;
  if (!done.tenant.empty()) --tenant_pending_[done.tenant];
  queue_depth_->Set(static_cast<double>(pending_));
  finished_.push_back(std::move(done));
}

void Server::WorkerLoop(WorkerState* state) {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    PendingQuery pending;
    Shard* shard = nullptr;
    if (ClaimNextLocked(&pending, &shard)) {
      lock.unlock();
      ServedQuery done = RunQuery(pending, state);
      lock.lock();
      CompleteQueryLocked(shard, std::move(done));
      // The freed shard may have more queued work for an idle peer, and
      // Drain may be waiting for quiescence.
      work_cv_.notify_all();
      drain_cv_.notify_all();
      continue;
    }
    if (stopping_) return;
    work_cv_.wait(lock);
  }
}

detect::ModelBundle* Server::AcquireModels(const std::string& name,
                                           const query::StreamSource& source,
                                           const query::QueryStatement& stmt,
                                           detect::ModelBundle* owned,
                                           const obs::QueryContext& ctx) {
  const auto make = [&] {
    return query::MakeStatementModels(stmt.models, source.scenario.truth(),
                                      source.model_seed);
  };
  if (!options_.share_detection_cache) {
    *owned = make();
    return owned;
  }
  bool created = false;
  detect::ModelBundle* models = cache_.Acquire(
      name, query::StatementModelStack(stmt.models), make, &created);
  (created ? cache_misses_bundle_ : cache_hits_bundle_)->Increment();
  ctx.AddStat(created ? "cache_bundle_misses" : "cache_bundle_hits", 1);
  return models;
}

ServedQuery Server::RunQuery(const PendingQuery& pending, WorkerState* state) {
  ServedQuery out;
  out.id = pending.id;
  out.sql = pending.sql;
  out.shard = pending.shard;
  out.kind = pending.ranked ? "ranked" : "online";
  out.tenant = pending.tenant;
  out.trace = pending.trace;
  // Cross-thread span parenting: the submitter minted the root; this
  // worker's "execute" span (and everything the engines hang below it)
  // parents under that root. Inactive (one branch) when tracing is off.
  obs::QueryContext root;
  if (pending.trace != nullptr) {
    root = obs::QueryContext{pending.trace.get(), 0};
  }
  const obs::QueryContext exec = root.Child("execute");
  obs::ScopedQueryContext scoped(exec);
  auto run = session_.Run(pending.stmt, exec, [this](auto&&... args) {
    return AcquireModels(args...);
  });
  if (!run.ok()) {
    out.status = run.status();
  } else if (pending.ranked) {
    out.result = std::move(run).value();
    out.simulated_ms = out.result.accesses.ModeledMs();
    state->accesses += out.result.accesses;
  } else {
    out.result = std::move(run).value();
    out.simulated_ms = out.result.detector_stats.simulated_ms +
                       out.result.recognizer_stats.simulated_ms;
    state->detector_stats += out.result.detector_stats;
    state->recognizer_stats += out.result.recognizer_stats;
    // Score lookups answered without a fresh network invocation —
    // within-query memoization plus, under the shared cache, reuse of
    // other queries' inferences on the same source.
    const int64_t lookups = out.result.detector_stats.type_queries +
                            out.result.recognizer_stats.type_queries;
    const int64_t fresh = out.result.detector_stats.inferences +
                          out.result.recognizer_stats.inferences;
    cache_misses_inference_->Increment(fresh);
    cache_hits_inference_->Increment(lookups - fresh);
    exec.AddStat("inference_cache_hits", lookups - fresh);
  }
  if (!pending.tenant.empty()) {
    obs::MetricRegistry::Global()
        .GetCounter("vaq_tenant_queries_total",
                    {{"outcome", out.status.ok() ? "ok" : "error"},
                     {"tenant", pending.tenant}})
        ->Increment();
  }
  obs::MetricRegistry::Global()
      .GetCounter("vaq_serve_queries_total",
                  {{"kind", out.kind},
                   {"outcome", out.status.ok() ? "ok" : "error"}})
      ->Increment();
  ++state->completed;
  if (!out.status.ok()) ++state->failed;
  return out;
}

void Server::MergeWorkerStatsLocked() {
  for (const std::unique_ptr<WorkerState>& state : worker_states_) {
    stats_.detector_stats += state->detector_stats;
    stats_.recognizer_stats += state->recognizer_stats;
    stats_.accesses += state->accesses;
    stats_.completed += state->completed;
    stats_.failed += state->failed;
    *state = WorkerState();  // Merged exactly once across Drains.
  }
  stats_.cache_bundles_created = cache_.bundles_created();
  stats_.cache_bundle_reuses = cache_.bundle_reuses();
}

std::vector<ServedQuery> Server::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  // Terminal from this point on: Submit calls that have not been
  // admitted yet fail with kFailedPrecondition, so the admitted set —
  // and therefore the merged statistics — is exact when the wait below
  // finishes.
  drained_ = true;
  if (options_.threads <= 0) {
    WorkerState* state = worker_states_.front().get();
    PendingQuery pending;
    Shard* shard = nullptr;
    while (ClaimNextLocked(&pending, &shard)) {
      lock.unlock();
      ServedQuery done = RunQuery(pending, state);
      lock.lock();
      CompleteQueryLocked(shard, std::move(done));
    }
  } else {
    drain_cv_.wait(lock, [this] { return pending_ == 0; });
  }
  MergeWorkerStatsLocked();
  std::vector<ServedQuery> out;
  out.swap(finished_);
  std::sort(out.begin(), out.end(),
            [](const ServedQuery& a, const ServedQuery& b) {
              return a.id < b.id;
            });
  // The modeled-ms total and the latency histograms fill here, in
  // admission order, not on the workers: each is a floating-point sum,
  // and one tenant's statements complete on parallel shards, fractional
  // ranked costs among them, so only a fixed order keeps the sums
  // byte-identical at any thread count.
  for (const ServedQuery& q : out) {
    stats_.total_simulated_ms += q.simulated_ms;
    (q.kind == "ranked" ? query_ms_ranked_ : query_ms_online_)
        ->Observe(q.simulated_ms);
    if (!q.tenant.empty()) {
      obs::MetricRegistry::Global()
          .GetHistogram("vaq_tenant_latency_ms", {{"tenant", q.tenant}})
          ->Observe(q.simulated_ms);
    }
  }
  return out;
}

ServeStats Server::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

StatusOr<int64_t> Server::AddStandingQuery(const std::string& sql) {
  std::lock_guard<std::mutex> lock(mu_);
  if (drained_ || standing_finished_) {
    return Status::FailedPrecondition("standing admission is closed");
  }
  auto parsed = query::Parse(sql);
  if (!parsed.ok()) {
    submitted_rejected_parse_->Increment();
    ++stats_.rejected_parse;
    return parsed.status();
  }
  query::QueryStatement stmt = std::move(parsed).value();
  if (stmt.IsRanked()) {
    submitted_rejected_parse_->Increment();
    ++stats_.rejected_parse;
    return Status::InvalidArgument(
        "standing queries are online; ranked statements go through Submit");
  }
  if (Status known = session_.CheckSource(stmt); !known.ok()) {
    submitted_rejected_unknown_->Increment();
    ++stats_.rejected_unknown_source;
    return known;
  }
  auto pos = stream_pos_.find(stmt.video);
  if (pos != stream_pos_.end() && pos->second > 0) {
    return Status::FailedPrecondition("stream '" + stmt.video +
                                      "' has already advanced");
  }
  const int64_t id = next_id_;
  if (options_.checkpoint_store != nullptr) {
    // Log-before-apply: a crash right after this append replays the
    // admission; a crash right before it loses a query that was never
    // acknowledged to the caller.
    ckpt::Payload wal;
    wal.PutI64(id);
    wal.PutString(sql);
    VAQ_RETURN_IF_ERROR(AppendWalLocked(kWalAddQuery, wal));
  }
  ++next_id_;
  VAQ_RETURN_IF_ERROR(AdmitStandingLocked(id, sql, std::move(stmt)));
  return id;
}

Status Server::AdmitStandingLocked(int64_t id, const std::string& sql,
                                   query::QueryStatement stmt) {
  auto owner = std::make_unique<StandingQuery>();
  StandingQuery& q = *owner;
  q.id = id;
  q.sql = sql;
  q.source = stmt.video;
  if (options_.trace_queries) {
    q.trace = std::make_shared<obs::QueryTrace>("q" + std::to_string(id));
  }
  q.stmt = std::move(stmt);
  // Live admission has checked the stream; a recovered one may not be.
  const query::StreamSource* stream = session_.FindStream(q.source);
  if (stream == nullptr) {
    return Status::Corruption("standing query over unregistered stream '" +
                              q.source + "'");
  }
  const query::StreamSource& source = *stream;
  q.models = AcquireModels(q.source, source, q.stmt, &q.owned_models, {});
  auto cnf = query::OnlineStatementQuery(q.stmt, source.scenario.vocab());
  if (!cnf.ok()) {
    q.status = cnf.status();
    q.finished = true;
  } else {
    q.engine = std::make_unique<online::StreamingSvaqd>(
        std::move(cnf).value(), source.scenario.layout(), source.options,
        online::StreamingSvaqd::Callback());
  }
  if (q.stmt.recall_target < 1.0 && q.status.ok()) {
    VAQ_RETURN_IF_ERROR(PlanStandingCascadeLocked(&q, source));
  }
  stream_pos_.emplace(q.source, 0);
  standing_.push_back(std::move(owner));
  submitted_accepted_->Increment();
  ++stats_.accepted;
  return Status::OK();
}

Status Server::PlanStandingCascadeLocked(StandingQuery* q,
                                         const query::StreamSource& source) {
  // The planner models conjunctions only: a CNF statement loads no proxy
  // index and PlanRecall falls back to the exact path.
  std::optional<cascade::Planner> planner;
  if (q->stmt.IsConjunctive()) {
    cascade::ProxySet& set = proxies_[q->source];
    if (set.find(q->source) == set.end()) {
      // First approximate query on this stream: load the persisted proxy
      // index (or build it from the scenario and persist it). A stale or
      // damaged entry rebuilds — scores are a pure function of
      // (seed, concept, clip), so the result is the same either way.
      VAQ_ASSIGN_OR_RETURN(
          cascade::ProxyVideoIndex index,
          cascade::LoadOrBuildProxyIndex(
              options_.checkpoint_store, q->source, source.scenario,
              detect::ModelProfile::ProxyCnn(), source.model_seed));
      set.emplace(q->source, std::move(index));
    }
    planner.emplace(&set);
  }
  VAQ_ASSIGN_OR_RETURN(
      const std::shared_ptr<const cascade::PlannedQuery> planned,
      query::PlanRecall(q->stmt, planner ? &*planner : nullptr, {},
                        &q->cascade_plan));
  if (planned != nullptr) {
    const IntervalSet* surviving =
        planned->filters->SurvivingClips(q->source);
    if (surviving != nullptr) {
      q->surviving = *surviving;
      q->cascade_active = true;
    }
  }
  return Status::OK();
}

Status Server::AdvanceStream(const std::string& source) {
  std::lock_guard<std::mutex> lock(mu_);
  return AdvanceStreamLocked(source);
}

Status Server::WalTornAdvance(const std::string& source) {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.checkpoint_store == nullptr) {
    return Status::FailedPrecondition(
        "torn advance needs a checkpoint store");
  }
  VAQ_ASSIGN_OR_RETURN(const int64_t pos, NextClipLocked(source));
  return LogClipLocked(source, pos);
}

StatusOr<int64_t> Server::NextClipLocked(const std::string& source) const {
  if (standing_finished_) {
    return Status::FailedPrecondition("standing queries already finished");
  }
  const query::StreamSource* stream = session_.FindStream(source);
  if (stream == nullptr) {
    return Status::NotFound("no stream named '" + source + "'");
  }
  auto pos_it = stream_pos_.find(source);
  const int64_t pos = pos_it == stream_pos_.end() ? 0 : pos_it->second;
  const int64_t num_clips = stream->scenario.layout().NumClips();
  if (pos >= num_clips) {
    return Status::OutOfRange("stream '" + source + "' is exhausted (" +
                              std::to_string(num_clips) + " clips)");
  }
  return pos;
}

Status Server::LogClipLocked(const std::string& source, int64_t pos) {
  ckpt::Payload wal;
  wal.PutString(source);
  wal.PutI64(pos);
  return AppendWalLocked(kWalClip, wal);
}

Status Server::AdvanceStreamLocked(const std::string& source) {
  VAQ_ASSIGN_OR_RETURN(const int64_t pos, NextClipLocked(source));
  if (options_.checkpoint_store != nullptr && !replaying_) {
    // Log-before-apply, clip granularity: after a crash the replay
    // re-runs this advance on engines restored to exactly this position.
    VAQ_RETURN_IF_ERROR(LogClipLocked(source, pos));
  }
  for (const std::unique_ptr<StandingQuery>& owner : standing_) {
    StandingQuery& q = *owner;
    if (q.source != source || q.finished || !q.status.ok()) continue;
    const detect::ModelStats det_before =
        q.models->detector != nullptr ? q.models->detector->stats()
                                      : detect::ModelStats();
    const detect::ModelStats rec_before =
        q.models->recognizer != nullptr ? q.models->recognizer->stats()
                                        : detect::ModelStats();
    // Every clip of a standing query folds into its single "advance"
    // node; installing the context here routes the resilient wrappers'
    // per-outcome call counts onto it as well.
    obs::QueryContext adv;
    if (q.trace != nullptr) {
      adv = obs::QueryContext{q.trace.get(), 0}.Child("advance");
    }
    obs::ScopedQueryContext scoped(adv);
    // Cascade prefilter: a clip the proxy ruled out advances the engine
    // without any model call (per-query proxy-vs-expensive attribution
    // lands on the advance node as clips_pruned).
    const bool pruned = q.cascade_active && !q.surviving.Contains(pos);
    StatusOr<bool> indicator =
        pruned ? q.engine->PushPrunedClip()
               : q.engine->PushClip(q.models->detector.get(),
                                    q.models->recognizer.get());
    if (!indicator.ok()) {
      q.status = indicator.status();
      q.finished = true;
      continue;
    }
    const detect::ModelStats det_delta =
        q.models->detector != nullptr
            ? q.models->detector->stats() - det_before
            : detect::ModelStats();
    const detect::ModelStats rec_delta =
        q.models->recognizer != nullptr
            ? q.models->recognizer->stats() - rec_before
            : detect::ModelStats();
    q.det_acc += det_delta;
    q.rec_acc += rec_delta;
    adv.AddMs(det_delta.simulated_ms + rec_delta.simulated_ms);
    adv.AddStat("clips", 1);
    adv.AddStat("detector_inferences", det_delta.inferences);
    adv.AddStat("recognizer_inferences", rec_delta.inferences);
    if (pruned) {
      ++q.clips_pruned;
      adv.AddStat("clips_pruned", 1);
      static obs::Counter* const clips_pruned =
          obs::MetricRegistry::Global().GetCounter(
              "vaq_cascade_standing_clips_pruned_total");
      clips_pruned->Increment();
    }
  }
  stream_pos_[source] = pos + 1;
  ++clips_since_snapshot_;
  if (options_.checkpoint_store != nullptr && !replaying_ &&
      options_.snapshot_every_clips > 0 &&
      clips_since_snapshot_ >= options_.snapshot_every_clips) {
    VAQ_RETURN_IF_ERROR(CheckpointLocked());
  }
  return Status::OK();
}

std::vector<ServedQuery> Server::FinishStanding() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ServedQuery> out;
  out.reserve(standing_.size());
  for (const std::unique_ptr<StandingQuery>& owner : standing_) {
    StandingQuery& q = *owner;
    if (!q.finished) {
      q.engine->Finish();
      q.finished = true;
    }
    ServedQuery served;
    served.id = q.id;
    served.sql = q.sql;
    served.shard = "stream/" + q.source;
    served.kind = "online";
    served.status = q.status;
    served.trace = q.trace;
    if (q.status.ok()) {
      served.result.online = true;
      served.result.sequences = q.engine->sequences();
      served.result.degraded_clips = q.engine->degraded_clips();
      served.result.dropped_clips = q.engine->dropped_clips();
      served.result.detector_stats = q.det_acc;
      served.result.recognizer_stats = q.rec_acc;
      served.result.cascade_plan = q.cascade_plan;
      served.result.clips_pruned = q.clips_pruned;
      served.simulated_ms = q.det_acc.simulated_ms + q.rec_acc.simulated_ms;
      stats_.detector_stats += q.det_acc;
      stats_.recognizer_stats += q.rec_acc;
      const int64_t lookups = q.det_acc.type_queries + q.rec_acc.type_queries;
      const int64_t fresh = q.det_acc.inferences + q.rec_acc.inferences;
      cache_misses_inference_->Increment(fresh);
      cache_hits_inference_->Increment(lookups - fresh);
    }
    query_ms_online_->Observe(served.simulated_ms);
    obs::MetricRegistry::Global()
        .GetCounter("vaq_serve_queries_total",
                    {{"kind", "online"},
                     {"outcome", served.status.ok() ? "ok" : "error"}})
        ->Increment();
    stats_.total_simulated_ms += served.simulated_ms;
    ++stats_.completed;
    if (!served.status.ok()) ++stats_.failed;
    out.push_back(std::move(served));
  }
  stats_.cache_bundles_created = cache_.bundles_created();
  stats_.cache_bundle_reuses = cache_.bundle_reuses();
  standing_finished_ = true;
  return out;
}

int64_t Server::StreamPosition(const std::string& source) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = stream_pos_.find(source);
  return it == stream_pos_.end() ? 0 : it->second;
}

Status Server::AppendWalLocked(uint32_t tag, const ckpt::Payload& payload) {
  std::string record;
  ckpt::AppendRecord(&record, tag, payload.data());
  // Segment wal-K collects the records logged while the next snapshot
  // will be snap-K; recovery from snap-S replays segments K > S.
  VAQ_RETURN_IF_ERROR(
      options_.checkpoint_store->Append(ckpt::WalName(ckpt_seq_), record));
  ckpt_wal_records_->Increment();
  if (session_trace_ != nullptr) {
    const obs::QueryContext wal =
        obs::QueryContext{session_trace_.get(), 0}.Child("wal_append");
    wal.AddStat("records", 1);
    wal.AddStat("bytes", static_cast<int64_t>(record.size()));
  }
  return Status::OK();
}

Status Server::Checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  return CheckpointLocked();
}

Status Server::CheckpointLocked() {
  ckpt::Store* store = options_.checkpoint_store;
  if (store == nullptr) {
    return Status::FailedPrecondition("no checkpoint store configured");
  }
  ckpt::Serializer snap;
  // Record order is load-bearing: recovery applies records in blob order,
  // and rebuilding the standing queries (kSnapStanding) bumps admission
  // counters and cache accounting as a side effect — the authoritative
  // values (kSnapCacheCounters, kSnapMeta, kSnapMetric) therefore come
  // *after* and overwrite them.
  for (const std::unique_ptr<StandingQuery>& owner : standing_) {
    const StandingQuery& q = *owner;
    ckpt::Payload p;
    p.PutI64(q.id);
    p.PutString(q.sql);
    EncodeStatus(q.status, &p);
    p.PutBool(q.finished);
    // The engine-blob layout, 0 when construction failed (no engine).
    p.PutU32(q.engine != nullptr ? online::StreamingSvaqd::kBlobLayout : 0u);
    p.PutString(q.engine != nullptr ? q.engine->SnapshotState() : "");
    EncodeModelStats(q.det_acc, &p);
    EncodeModelStats(q.rec_acc, &p);
    // Cascade pruning is an accumulator, not derivable from the engine
    // blob: the plan (thresholds, surviving set) is replanned
    // deterministically at admission, but clips pruned before this
    // snapshot would otherwise be forgotten by a recovered session.
    p.PutI64(q.clips_pruned);
    snap.Append(kSnapStanding, p);
  }
  for (const auto& [source, pos] : stream_pos_) {
    ckpt::Payload p;
    p.PutString(source);
    p.PutI64(pos);
    snap.Append(kSnapStreamPos, p);
  }
  if (options_.share_detection_cache) {
    cache_.ForEach([&snap](const std::string& source, const std::string& stack,
                           detect::ModelBundle* bundle) {
      ckpt::Payload p;
      p.PutBool(false);  // Shared: addressed by (source, stack).
      p.PutString(source);
      p.PutString(stack);
      EncodeBundleStats(*bundle, &p);
      snap.Append(kSnapBundleStats, p);
    });
  } else {
    for (const std::unique_ptr<StandingQuery>& owner : standing_) {
      const StandingQuery& q = *owner;
      if (q.models != &q.owned_models || q.models == nullptr) continue;
      ckpt::Payload p;
      p.PutBool(true);  // Owned: addressed by the query id.
      p.PutI64(q.id);
      EncodeBundleStats(q.owned_models, &p);
      snap.Append(kSnapBundleStats, p);
    }
  }
  {
    ckpt::Payload p;
    p.PutI64(cache_.bundles_created());
    p.PutI64(cache_.bundle_reuses());
    snap.Append(kSnapCacheCounters, p);
  }
  {
    ckpt::Payload p;
    p.PutI64(next_id_);
    p.PutI64(ckpt_seq_);
    p.PutI64(stats_.accepted);
    p.PutI64(stats_.rejected_overflow);
    p.PutI64(stats_.rejected_parse);
    p.PutI64(stats_.rejected_unknown_source);
    p.PutI64(stats_.completed);
    p.PutI64(stats_.failed);
    p.PutF64(stats_.total_simulated_ms);
    snap.Append(kSnapMeta, p);
  }
  // Every registry instrument except the checkpoint subsystem's own
  // families: restoring those would mask the corruption/recovery counts
  // the *recovering* process accumulates while reading this very blob.
  // Wall families are not state: their time belongs to this process.
  const obs::Snapshot metrics = obs::MetricRegistry::Global().TakeSnapshot();
  for (const obs::Snapshot::Entry& entry : metrics.entries) {
    if (entry.name.rfind("vaq_ckpt_", 0) == 0) continue;
    if (obs::IsWallFamily(entry.name)) continue;
    ckpt::Payload p;
    ckpt::EncodeMetricEntry(entry, &p);
    snap.Append(kSnapMetric, p);
  }
  const std::string& blob = snap.blob();
  VAQ_RETURN_IF_ERROR(store->Put(ckpt::SnapshotName(ckpt_seq_), blob));
  // Keep this snapshot, its predecessor (the corruption fallback) and
  // the WAL segment spanning the two — falling back to snap-(S-1) needs
  // wal-S to reach snap-S's state. Everything older goes.
  auto listed = store->List();
  if (listed.ok()) {
    for (const std::string& name : *listed) {
      auto snap_seq = ckpt::SnapshotSeq(name);
      if (snap_seq.ok() && *snap_seq < ckpt_seq_ - 1) {
        VAQ_RETURN_IF_ERROR(store->Delete(name));
        continue;
      }
      auto wal_seq = ckpt::WalSeq(name);
      if (wal_seq.ok() && *wal_seq < ckpt_seq_) {
        VAQ_RETURN_IF_ERROR(store->Delete(name));
      }
    }
  }
  ckpt_snapshots_->Increment();
  ckpt_snapshot_bytes_->Increment(static_cast<int64_t>(blob.size()));
  const double snapshot_ms = storage::kModeledSeekMs +
                             static_cast<double>(blob.size()) * kSnapshotByteMs;
  ckpt_snapshot_ms_->Observe(snapshot_ms);
  if (session_trace_ != nullptr) {
    const obs::QueryContext snap_ctx =
        obs::QueryContext{session_trace_.get(), 0}.Child("snapshot");
    snap_ctx.AddMs(snapshot_ms);
    snap_ctx.AddStat("snapshots", 1);
    snap_ctx.AddStat("bytes", static_cast<int64_t>(blob.size()));
  }
  ++ckpt_seq_;
  clips_since_snapshot_ = 0;
  return Status::OK();
}

StatusOr<ckpt::RecoveryReport> Server::Recover() {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.checkpoint_store == nullptr) {
    return Status::FailedPrecondition("no checkpoint store configured");
  }
  if (next_id_ != 0 || !standing_.empty()) {
    return Status::FailedPrecondition(
        "Recover requires a freshly constructed server");
  }
  replaying_ = true;
  ckpt::RecoveryDriver driver(options_.checkpoint_store);
  ckpt::RecoveryHooks hooks;
  hooks.restore = [this](uint32_t version,
                         const std::vector<ckpt::Record>& records) {
    return RestoreBlobLocked(version, records);
  };
  hooks.replay = [this](const ckpt::Record& record) {
    return ReplayWalLocked(record);
  };
  auto report = driver.Run(hooks);
  replaying_ = false;
  if (report.ok() && session_trace_ != nullptr) {
    const obs::QueryContext rec =
        obs::QueryContext{session_trace_.get(), 0}.Child("recover");
    rec.AddStat("recoveries", 1);
    rec.AddStat("snapshot_restored", report->snapshot.empty() ? 0 : 1);
    rec.AddStat("snapshots_rejected", report->snapshots_rejected);
    rec.AddStat("wal_records_replayed", report->wal_records);
    rec.AddStat("wal_bytes_dropped", report->wal_bytes_dropped);
  }
  return report;
}

Status Server::RestoreBlobLocked(uint32_t /*version*/,
                                 const std::vector<ckpt::Record>& records) {
  obs::Snapshot metrics;
  for (const ckpt::Record& record : records) {
    ckpt::PayloadReader in(record.payload);
    switch (record.tag) {
      case kSnapStanding: {
        int64_t id = 0;
        std::string sql;
        Status saved_status;
        bool finished = false;
        uint32_t layout = 0;
        std::string engine_blob;
        detect::ModelStats det_acc, rec_acc;
        int64_t clips_pruned = 0;
        VAQ_RETURN_IF_ERROR(DecodeCounter(&in, "standing query id", &id));
        VAQ_RETURN_IF_ERROR(in.GetString(&sql));
        VAQ_RETURN_IF_ERROR(DecodeStatus(&in, &saved_status));
        VAQ_RETURN_IF_ERROR(in.GetBool(&finished));
        VAQ_RETURN_IF_ERROR(in.GetU32(&layout));
        VAQ_RETURN_IF_ERROR(in.GetString(&engine_blob));
        VAQ_RETURN_IF_ERROR(DecodeModelStats(&in, &det_acc));
        VAQ_RETURN_IF_ERROR(DecodeModelStats(&in, &rec_acc));
        VAQ_RETURN_IF_ERROR(DecodeCounter(&in, "pruned clips", &clips_pruned));
        if (layout == 1 || layout == 2) {
          // Retired layouts (DESIGN.md §10): no decoder reads them.
          return Status::Unimplemented(
              "standing query #" + std::to_string(id) +
              " was checkpointed with engine-blob layout " +
              std::to_string(layout) +
              (layout == 1 ? " (StreamingSvaqd)" : " (CnfStream)") +
              "; this build reads layout " +
              std::to_string(online::StreamingSvaqd::kBlobLayout) + " only");
        }
        auto parsed = query::Parse(sql);
        if (!parsed.ok()) {
          return Status::Corruption("unparsable standing query in snapshot: " +
                                    parsed.status().ToString());
        }
        VAQ_RETURN_IF_ERROR(
            AdmitStandingLocked(id, sql, std::move(parsed).value()));
        StandingQuery& q = *standing_.back();
        const uint32_t rebuilt =
            q.engine != nullptr ? online::StreamingSvaqd::kBlobLayout : 0u;
        if (rebuilt != layout) {
          return Status::Corruption(
              "engine-blob layout mismatch for standing query #" +
              std::to_string(id) +
              " (were the registrations changed since the snapshot?)");
        }
        if (q.engine != nullptr) {
          VAQ_RETURN_IF_ERROR(q.engine->RestoreState(engine_blob));
        }
        q.status = saved_status;
        q.finished = finished;
        q.det_acc = det_acc;
        q.rec_acc = rec_acc;
        q.clips_pruned = clips_pruned;
        next_id_ = std::max(next_id_, id + 1);
        break;
      }
      case kSnapStreamPos: {
        std::string source;
        int64_t pos = 0;
        VAQ_RETURN_IF_ERROR(in.GetString(&source));
        VAQ_RETURN_IF_ERROR(in.GetI64(&pos));
        // A cursor counts the clips a registered stream has advanced, so
        // it lies in [0, clips].
        const query::StreamSource* stream = session_.FindStream(source);
        if (stream == nullptr) {
          return Status::Corruption(
              "snapshot positions unregistered stream '" + source + "'");
        }
        if (pos < 0 || pos > stream->scenario.layout().NumClips()) {
          return Status::Corruption("bad position " + std::to_string(pos) +
                                    " of stream '" + source +
                                    "' in checkpoint");
        }
        stream_pos_[source] = pos;
        break;
      }
      case kSnapBundleStats: {
        bool owned = false;
        VAQ_RETURN_IF_ERROR(in.GetBool(&owned));
        detect::ModelBundle* bundle = nullptr;
        if (owned) {
          int64_t id = 0;
          VAQ_RETURN_IF_ERROR(in.GetI64(&id));
          for (const std::unique_ptr<StandingQuery>& q : standing_) {
            if (q->id == id && q->models == &q->owned_models) {
              bundle = &q->owned_models;
              break;
            }
          }
        } else {
          std::string source, stack;
          VAQ_RETURN_IF_ERROR(in.GetString(&source));
          VAQ_RETURN_IF_ERROR(in.GetString(&stack));
          bundle = cache_.Find(source, stack);
        }
        if (bundle == nullptr) {
          return Status::Corruption(
              "snapshot references a model bundle the rebuilt session "
              "does not have");
        }
        VAQ_RETURN_IF_ERROR(DecodeBundleStats(&in, bundle));
        break;
      }
      case kSnapCacheCounters: {
        int64_t created = 0, reuses = 0;
        VAQ_RETURN_IF_ERROR(DecodeCounter(&in, "bundles created", &created));
        VAQ_RETURN_IF_ERROR(DecodeCounter(&in, "bundle reuses", &reuses));
        cache_.RestoreCounters(created, reuses);
        break;
      }
      case kSnapMeta: {
        int64_t next_id = 0, seq = 0;
        VAQ_RETURN_IF_ERROR(DecodeCounter(&in, "next query id", &next_id));
        VAQ_RETURN_IF_ERROR(DecodeCounter(&in, "snapshot sequence", &seq));
        VAQ_RETURN_IF_ERROR(
            DecodeCounter(&in, "accepted count", &stats_.accepted));
        VAQ_RETURN_IF_ERROR(DecodeCounter(&in, "overflow rejection count",
                                          &stats_.rejected_overflow));
        VAQ_RETURN_IF_ERROR(DecodeCounter(&in, "parse rejection count",
                                          &stats_.rejected_parse));
        VAQ_RETURN_IF_ERROR(DecodeCounter(&in, "unknown-source rejection count",
                                          &stats_.rejected_unknown_source));
        VAQ_RETURN_IF_ERROR(
            DecodeCounter(&in, "completed count", &stats_.completed));
        VAQ_RETURN_IF_ERROR(DecodeCounter(&in, "failed count", &stats_.failed));
        VAQ_RETURN_IF_ERROR(in.GetF64(&stats_.total_simulated_ms));
        next_id_ = std::max(next_id_, next_id);
        ckpt_seq_ = seq + 1;
        break;
      }
      case kSnapMetric: {
        obs::Snapshot::Entry entry;
        VAQ_RETURN_IF_ERROR(ckpt::DecodeMetricEntry(&in, &entry));
        metrics.entries.push_back(std::move(entry));
        break;
      }
      default:
        break;  // A newer writer's record type: skip (forward compat).
    }
  }
  // The metric records are the blob's last and are restored as one
  // snapshot: one whose kind disagrees with this build's registry, or a
  // histogram over another bucket ladder (a checkpoint from an older
  // build), fails recovery with kFailedPrecondition before any
  // instrument is overwritten.
  return obs::RestoreSnapshot(metrics);
}

Status Server::ReplayWalLocked(const ckpt::Record& record) {
  ckpt::PayloadReader in(record.payload);
  switch (record.tag) {
    case kWalAddQuery: {
      int64_t id = 0;
      std::string sql;
      VAQ_RETURN_IF_ERROR(in.GetI64(&id));
      VAQ_RETURN_IF_ERROR(in.GetString(&sql));
      for (const std::unique_ptr<StandingQuery>& q : standing_) {
        if (q->id == id) return Status::OK();  // Snapshot already has it.
      }
      if (id != next_id_) {
        return Status::Corruption("WAL admission out of order: got #" +
                                  std::to_string(id) + ", expected #" +
                                  std::to_string(next_id_));
      }
      auto parsed = query::Parse(sql);
      if (!parsed.ok()) {
        return Status::Corruption("unparsable standing query in WAL: " +
                                  parsed.status().ToString());
      }
      next_id_ = id + 1;
      return AdmitStandingLocked(id, sql, std::move(parsed).value());
    }
    case kWalClip: {
      std::string source;
      int64_t clip = 0;
      VAQ_RETURN_IF_ERROR(in.GetString(&source));
      VAQ_RETURN_IF_ERROR(in.GetI64(&clip));
      auto it = stream_pos_.find(source);
      const int64_t pos = it == stream_pos_.end() ? 0 : it->second;
      if (clip < pos) return Status::OK();  // Snapshot already covers it.
      if (clip > pos) {
        return Status::Corruption(
            "WAL gap on stream '" + source + "': log resumes at clip " +
            std::to_string(clip) + " but the snapshot ends at " +
            std::to_string(pos));
      }
      return AdvanceStreamLocked(source);
    }
    default:
      return Status::OK();  // A newer writer's record type: skip.
  }
}

double ModeledMakespanMs(const std::vector<ServedQuery>& queries,
                         int threads) {
  if (queries.empty()) return 0.0;
  // Rebuild the per-shard FIFO chains in admission order.
  std::vector<const ServedQuery*> ordered;
  ordered.reserve(queries.size());
  for (const ServedQuery& q : queries) ordered.push_back(&q);
  std::sort(ordered.begin(), ordered.end(),
            [](const ServedQuery* a, const ServedQuery* b) {
              return a->id < b->id;
            });
  std::map<std::string, std::deque<double>> chains;
  for (const ServedQuery* q : ordered) {
    chains[q->shard].push_back(q->simulated_ms);
  }
  if (threads < 1) threads = 1;
  std::vector<double> worker_free(static_cast<size_t>(threads), 0.0);
  std::map<std::string, double> shard_free;
  for (const auto& [name, chain] : chains) shard_free[name] = 0.0;
  size_t remaining = queries.size();
  double makespan = 0.0;
  while (remaining > 0) {
    // The worker that frees up first claims next (lowest index on ties).
    size_t w = 0;
    for (size_t i = 1; i < worker_free.size(); ++i) {
      if (worker_free[i] < worker_free[w]) w = i;
    }
    const double t = worker_free[w];
    std::deque<double>* chain = nullptr;
    double* free_at = nullptr;
    for (auto& [name, c] : chains) {
      if (c.empty() || shard_free[name] > t) continue;
      chain = &c;
      free_at = &shard_free[name];
      break;
    }
    if (chain == nullptr) {
      // Every runnable shard is still pinned to another worker: idle until
      // the earliest one frees.
      double next = std::numeric_limits<double>::infinity();
      for (const auto& [name, c] : chains) {
        if (!c.empty() && shard_free[name] < next) next = shard_free[name];
      }
      worker_free[w] = next;
      continue;
    }
    const double cost = chain->front();
    chain->pop_front();
    --remaining;
    const double end = t + cost;
    *free_at = end;
    worker_free[w] = end;
    if (end > makespan) makespan = end;
  }
  return makespan;
}

std::string DescribeServedQuery(const ServedQuery& q) {
  std::string out = "#" + std::to_string(q.id) + " [" + q.kind + "] " +
                    q.shard;
  // Tenant tag (tenant-tagged submissions only, so untagged output is
  // byte-identical to pre-tenant builds).
  if (!q.tenant.empty()) out += " tenant=" + q.tenant;
  if (!q.status.ok()) {
    return out + " ERROR " + q.status.ToString();
  }
  out += " simulated_ms=" + FormatMs(q.simulated_ms);
  out += " seq=" + q.result.sequences.ToString();
  if (q.result.online) {
    out += " det=" + q.result.detector_stats.ToString() +
           " rec=" + q.result.recognizer_stats.ToString();
    if (q.result.degraded_clips > 0 || q.result.dropped_clips > 0) {
      out += " degraded=" + std::to_string(q.result.degraded_clips) +
             " dropped=" + std::to_string(q.result.dropped_clips);
    }
    // Proxy-vs-expensive attribution; exact queries render unchanged.
    if (!q.result.cascade_plan.empty()) {
      out += " clips_pruned=" + std::to_string(q.result.clips_pruned) +
             " cascade=" + q.result.cascade_plan;
    }
  } else {
    out += " ranked=[";
    for (size_t i = 0; i < q.result.ranked.size(); ++i) {
      const offline::RankedSequence& seq = q.result.ranked[i];
      if (i > 0) out += ", ";
      char buf[64];
      std::snprintf(buf, sizeof(buf), " lb=%.6f ub=%.6f",
                    seq.lower_bound, seq.upper_bound);
      out += seq.clips.ToString() + buf;
    }
    out += "] accesses=" + q.result.accesses.ToString();
    // Adaptive-sampling certificate (WITH CONFIDENCE δ > 0 only, so
    // exact queries render unchanged). The chaos byte-identity oracle
    // strips exactly this " bai=..." token — the documented certificate
    // relaxation — before comparing against the fault-free reference.
    if (!q.result.bai_certificate.empty()) {
      out += " bai=" + q.result.bai_certificate;
    }
    // The WITH RECALL plan; statements without one render unchanged.
    if (!q.result.cascade_plan.empty()) {
      out += " cascade=" + q.result.cascade_plan;
    }
  }
  return out;
}

const std::vector<std::string>& LogicalMetricPrefixes() {
  // Thread-count-invariant families for a fixed seed and workload: event
  // counts and simulated milliseconds. The two latency histograms,
  // vaq_serve_query_simulated_ms and vaq_tenant_latency_ms, qualify down
  // to their _sum lines because Drain fills them in admission order.
  // Deliberately absent: vaq_serve_queue_depth (scheduling-dependent
  // gauge) and vaq_serve_submitted_total (overflow rejections depend on
  // how fast workers drain relative to submitters).
  static const std::vector<std::string>* const prefixes =
      new std::vector<std::string>{
          "vaq_serve_queries_total",
          "vaq_serve_cache_",
          "vaq_serve_query_simulated_ms",
          "vaq_model_",
          "vaq_breaker_",
          // Per-tenant completion counts and latency. Like
          // vaq_serve_submitted_total, vaq_tenant_submitted_total is
          // deliberately absent: quota sheds depend on how fast workers
          // drain relative to submitters.
          "vaq_tenant_queries_total",
          "vaq_tenant_latency_ms",
      };
  return *prefixes;
}

}  // namespace serve
}  // namespace vaq
