#include "chaos/trial.h"

#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bai/sequence_arms.h"
#include "cascade/planner.h"
#include "cascade/store.h"
#include "ckpt/store.h"
#include "cluster/coordinator.h"
#include "detect/models.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "offline/ingest.h"
#include "offline/repository.h"
#include "offline/scoring.h"
#include "serve/server.h"

namespace vaq {
namespace chaos {
namespace {

// Cluster watchdog budget (ClusterOptions::max_steps): scheduler events
// before a gather counts as livelocked and fails the trial.
constexpr int64_t kClusterMaxSteps = 200000;

std::string SourceName(int64_t i) { return "s" + std::to_string(i); }

std::string Fmt(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

// Byte-faithful rendering of a merged ranked top list (the comparison
// format the cluster determinism tests established).
std::string DescribeTop(
    const std::vector<offline::RepositoryRankedSequence>& top) {
  std::ostringstream os;
  for (const offline::RepositoryRankedSequence& entry : top) {
    os << entry.video << " " << entry.sequence.clips.ToString()
       << " lb=" << Fmt(entry.sequence.lower_bound)
       << " ub=" << Fmt(entry.sequence.upper_bound)
       << " exact=" << entry.sequence.has_exact << "/"
       << Fmt(entry.sequence.has_exact ? entry.sequence.exact_score : 0.0)
       << "\n";
  }
  return os.str();
}

std::string NonCkptMetrics() {
  // vaq_ckpt_* legitimately differs between a run that crashed and one
  // that did not (that *is* the durability work); everything else is
  // logical and must match byte for byte.
  return obs::ExportPrometheus(obs::ExcludeSnapshot(
      obs::MetricRegistry::Global().TakeSnapshot(), {"vaq_ckpt_"}));
}

// One run's comparable output.
struct RunOut {
  std::string described;
  std::string metrics;
};

// The one documented relaxation of the byte-identity oracles: the
// " bai=bai{...}" certificate token DescribeServedQuery appends for
// WITH CONFIDENCE statements is stripped before comparison. Certificate
// fields (pull counts, the stopping statistic) are adaptive-sampling
// bookkeeping, not results; everything else — the result bytes
// included — must still match byte for byte.
std::string StripBaiCertificates(std::string s) {
  for (size_t pos = s.find(" bai=bai{"); pos != std::string::npos;
       pos = s.find(" bai=bai{", pos)) {
    const size_t end = s.find('}', pos);
    if (end == std::string::npos) break;
    s.erase(pos, end - pos + 1);
  }
  return s;
}

std::unique_ptr<serve::Server> MakeStandingServer(const TrialScenario& s,
                                                  IndexCache* cache,
                                                  const fault::FaultPlan* plan,
                                                  ckpt::Store* store) {
  serve::ServeOptions so;
  so.threads = 0;  // Standing mode advances inline, clip-lockstep.
  so.share_detection_cache = true;
  so.fault_plan = plan;
  so.checkpoint_store = store;
  so.snapshot_every_clips = s.snapshot_every_clips;
  auto server = std::make_unique<serve::Server>(so);
  for (int i = 0; i < s.num_streams; ++i) {
    server->RegisterStream(SourceName(i), cache->Scenario(i, s.minutes),
                           s.model_seed + static_cast<uint64_t>(i));
  }
  return server;
}

int64_t AdvancesDone(const serve::Server& server, int num_streams) {
  int64_t done = 0;
  for (int i = 0; i < num_streams; ++i) {
    done += server.StreamPosition(SourceName(i));
  }
  return done;
}

Status AdmitWorkload(serve::Server* server, const TrialScenario& s) {
  for (const std::string& sql : ChaosWorkload(s)) {
    VAQ_RETURN_IF_ERROR(server->AddStandingQuery(sql).status());
  }
  return Status::OK();
}

std::string DescribeAll(const std::vector<serve::ServedQuery>& results) {
  std::string out;
  for (const serve::ServedQuery& q : results) {
    out += serve::DescribeServedQuery(q);
    out += "\n";
  }
  return out;
}

// Scheduled environment fault points inside the trial horizon, probed
// straight off the pure-function plan: the ground truth of what the run
// will see, independent of which layer consumes it. This is what makes
// dead fault paths visible in bench_chaos's histogram.
void CountScheduledFaults(const fault::FaultPlan& plan, int64_t clips,
                          int64_t frames_per_clip, TrialResult* r) {
  const int64_t frames = clips * frames_per_clip;
  for (int64_t f = 0; f < frames; ++f) {
    switch (plan.ProbeCall(fault::FaultDomain::kDetector, f, 0)) {
      case fault::FaultKind::kTimeout:
        ++r->coverage["env.timeout"];
        break;
      case fault::FaultKind::kCrash:
        ++r->coverage["env.model_outage"];
        break;
      case fault::FaultKind::kNanScore:
        ++r->coverage["env.nan_score"];
        break;
      case fault::FaultKind::kOutOfRangeScore:
        ++r->coverage["env.out_of_range_score"];
        break;
      case fault::FaultKind::kNone:
        break;
    }
  }
  for (int64_t c = 0; c < clips; ++c) {
    if (plan.DropClip(c)) ++r->coverage["env.drop_clip"];
  }
}

// --- Standing phase -----------------------------------------------------

StatusOr<RunOut> RunStandingReference(const TrialScenario& s,
                                      IndexCache* cache,
                                      const fault::FaultPlan* plan,
                                      int64_t total) {
  obs::MetricRegistry::Global().Reset();
  std::unique_ptr<serve::Server> server =
      MakeStandingServer(s, cache, plan, /*store=*/nullptr);
  VAQ_RETURN_IF_ERROR(AdmitWorkload(server.get(), s));
  for (int64_t i = 0; i < total; ++i) {
    VAQ_RETURN_IF_ERROR(server->AdvanceStream(SourceName(i % s.num_streams)));
  }
  RunOut out;
  out.described = DescribeAll(server->FinishStanding());
  out.metrics = NonCkptMetrics();
  return out;
}

Status RunStandingChaos(const TrialScenario& s, const Schedule& schedule,
                        const TrialOptions& options, IndexCache* cache,
                        const fault::FaultPlan* plan, int64_t total,
                        TrialResult* r, RunOut* out) {
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  registry.Reset();
  ckpt::MemStore store;
  std::unique_ptr<serve::Server> server =
      MakeStandingServer(s, cache, plan, &store);
  VAQ_RETURN_IF_ERROR(AdmitWorkload(server.get(), s));

  int64_t done = 0;
  bool aborted = false;
  // The corrupted snapshot entry, if any: its name and its bytes right
  // after the flip. Recovery that rejects it restores an older snapshot
  // and rewinds the sequence, so a later checkpoint may legitimately
  // rewrite a valid snapshot under the same name; only the corrupted
  // bytes themselves must never be restored.
  std::string corrupted;
  std::string corrupted_bytes;

  const auto violation = [&](const std::string& msg) {
    r->violations.push_back("standing: " + msg);
    aborted = true;
  };
  const auto src = [&](int64_t i) { return SourceName(i % s.num_streams); };
  const auto drive_to = [&](int64_t target) {
    for (; !aborted && done < target; ++done) {
      const Status st = server->AdvanceStream(src(done));
      if (!st.ok()) {
        violation("advance " + std::to_string(done) +
                  " failed: " + st.ToString());
      }
    }
  };
  const auto newest_snapshot = [&]() -> StatusOr<std::string> {
    VAQ_ASSIGN_OR_RETURN(std::vector<std::string> names, store.List());
    std::string newest;  // List() is sorted; snap names are zero-padded.
    for (const std::string& name : names) {
      if (name.rfind("snap-", 0) == 0) newest = name;
    }
    return newest;
  };
  // True while the newest snapshot still holds the corrupted bytes.
  const auto newest_is_corrupted = [&]() -> StatusOr<bool> {
    VAQ_ASSIGN_OR_RETURN(const std::string newest, newest_snapshot());
    if (corrupted.empty() || newest != corrupted) return false;
    VAQ_ASSIGN_OR_RETURN(const std::string bytes, store.Get(newest));
    return bytes == corrupted_bytes;
  };

  const auto crash_recover = [&](const ChaosEvent& e) -> Status {
    // A torn advance needs a clip left to tear; at end of stream the
    // event degrades to a plain crash.
    const bool torn = e.kind == EventKind::kTornAdvance && done < total;
    if (torn) {
      const Status st = server->WalTornAdvance(src(done));
      if (!st.ok()) {
        violation("torn advance failed: " + st.ToString());
        return Status::OK();
      }
    }
    // The WAL record of a torn advance is applied once, on replay.
    const int64_t expect_done = done + (torn ? 1 : 0);
    VAQ_ASSIGN_OR_RETURN(const bool expect_reject, newest_is_corrupted());

    server.reset();  // Crash: the process is gone, registry and all.
    registry.Reset();
    server = MakeStandingServer(s, cache, plan, &store);
    const StatusOr<ckpt::RecoveryReport> report = server->Recover();
    if (!report.ok()) {
      violation("recovery failed: " + report.status().ToString());
      return Status::OK();
    }
    ++r->coverage[std::string("event.") + EventKindName(e.kind)];

    // Recovery-counter consistency. Counters are process-local (the
    // registry reset models the restart) and vaq_ckpt_* is excluded
    // from snapshot restore, so this recovery's increments are visible
    // exactly once.
    const int64_t recoveries =
        registry.GetCounter("vaq_ckpt_recoveries_total", {})->value();
    if (recoveries != 1) {
      violation("vaq_ckpt_recoveries_total=" + std::to_string(recoveries) +
                " after recovery, expected 1");
    }
    const int64_t corrupt_reads =
        registry.GetCounter("vaq_ckpt_corrupt_total", {})->value();
    if (corrupt_reads != report->snapshots_rejected) {
      violation("vaq_ckpt_corrupt_total=" + std::to_string(corrupt_reads) +
                " disagrees with snapshots_rejected=" +
                std::to_string(report->snapshots_rejected));
    }
    if (expect_reject && report->snapshots_rejected < 1) {
      violation("corrupted newest snapshot '" + corrupted +
                "' was restored without rejection");
    }
    if (!expect_reject && report->snapshots_rejected != 0) {
      violation("recovery rejected " +
                std::to_string(report->snapshots_rejected) +
                " snapshots with none corrupted");
    }
    const int64_t restored = AdvancesDone(*server, s.num_streams);
    if (restored != expect_done) {
      violation("recovery restored " + std::to_string(restored) +
                " advances, expected " + std::to_string(expect_done));
    }
    done = restored;
    if (options.canary && !aborted && done < total) {
      // The injected bug: one extra, unaccounted advance — the
      // double-apply a log-after-apply WAL would produce.
      const Status injected = server->AdvanceStream(src(done));
      (void)injected;
    }
    return Status::OK();
  };

  for (const ChaosEvent& e : schedule) {
    if (aborted) break;
    switch (e.kind) {
      case EventKind::kCrashRestart:
      case EventKind::kTornAdvance:
        drive_to(std::min(e.at_advance, total));
        if (!aborted) VAQ_RETURN_IF_ERROR(crash_recover(e));
        break;
      case EventKind::kForceCheckpoint: {
        drive_to(std::min(e.at_advance, total));
        if (aborted) break;
        const Status st = server->Checkpoint();
        if (!st.ok()) {
          violation("forced checkpoint failed: " + st.ToString());
        } else {
          ++r->coverage["event.force_checkpoint"];
        }
        break;
      }
      case EventKind::kCorruptSnapshot: {
        drive_to(std::min(e.at_advance, total));
        if (aborted) break;
        VAQ_ASSIGN_OR_RETURN(std::vector<std::string> names, store.List());
        std::vector<std::string> snaps;
        for (const std::string& name : names) {
          if (name.rfind("snap-", 0) == 0) snaps.push_back(name);
        }
        // Only corrupt when a fallback exists (recovery must always
        // succeed — that invariant is the oracle, not corruption
        // itself) and the newest is not the entry corrupted before (a
        // second flip could cancel the first).
        if (snaps.size() < 2 || snaps.back() == corrupted) {
          ++r->coverage["event.skipped.corrupt_snapshot"];
          break;
        }
        VAQ_ASSIGN_OR_RETURN(const std::string bytes, store.Get(snaps.back()));
        // at_advance is any int64_t >= 0 (a replay may carry INT64_MAX):
        // reducing it before the product picks the same byte as
        // (at_advance * 37) % span, without that product's overflow.
        const int64_t span =
            std::max<int64_t>(1, static_cast<int64_t>(bytes.size()) - 12);
        const int64_t index = 12 + (e.at_advance % span) * 37 % span;
        const uint8_t mask =
            static_cast<uint8_t>(1u << (e.at_advance % 7)) | 1u;
        VAQ_RETURN_IF_ERROR(
            ckpt::CorruptEntryByte(&store, snaps.back(), index, mask));
        corrupted = snaps.back();
        VAQ_ASSIGN_OR_RETURN(corrupted_bytes, store.Get(corrupted));
        ++r->coverage["event.corrupt_snapshot"];
        break;
      }
      case EventKind::kNodeKill:
      case EventKind::kNetPartition:
        // Cluster events in a standing schedule (hand-edited replay):
        // nothing to apply them to.
        ++r->coverage[std::string("event.skipped.") + EventKindName(e.kind)];
        break;
    }
  }
  drive_to(total);
  if (!aborted) {
    const int64_t final_done = AdvancesDone(*server, s.num_streams);
    if (final_done != total) {
      violation("progress: session ended at " + std::to_string(final_done) +
                " advances, expected " + std::to_string(total));
    }
  }
  if (!aborted) {
    out->described = DescribeAll(server->FinishStanding());
    out->metrics = NonCkptMetrics();
  }
  return Status::OK();
}

Status RunStanding(const TrialScenario& s, const Schedule& schedule,
                   const TrialOptions& options, IndexCache* cache,
                   TrialResult* r) {
  const int64_t clips_per_stream = static_cast<int64_t>(
      cache->Scenario(0, s.minutes).layout().NumClips());
  const int64_t total =
      std::min(s.advances, clips_per_stream * s.num_streams);

  StatusOr<fault::FaultPlan> plan_or =
      fault::FaultPlan::Create(s.env, s.env_seed);
  VAQ_RETURN_IF_ERROR(plan_or.status());
  const fault::FaultPlan* plan = s.env.any() ? &*plan_or : nullptr;
  if (plan != nullptr) {
    CountScheduledFaults(
        *plan, total,
        cache->Scenario(0, s.minutes).layout().frames_per_clip(), r);
  }

  VAQ_ASSIGN_OR_RETURN(const RunOut ref,
                       RunStandingReference(s, cache, plan, total));
  RunOut chaos;
  VAQ_RETURN_IF_ERROR(
      RunStandingChaos(s, schedule, options, cache, plan, total, r, &chaos));
  if (!r->violations.empty()) return Status::OK();
  if (chaos.described != ref.described) {
    r->violations.push_back(
        "standing: described results diverged from the fault-free "
        "reference");
  }
  if (chaos.metrics != ref.metrics) {
    r->violations.push_back(
        "standing: logical vaq_* metrics diverged from the fault-free "
        "reference");
  }
  return Status::OK();
}

// --- Cluster phase ------------------------------------------------------

Status RunCluster(const TrialScenario& s, const Schedule& schedule,
                  IndexCache* cache, TrialResult* r) {
  offline::Repository repo;
  for (int i = 0; i < s.num_videos; ++i) {
    VAQ_ASSIGN_OR_RETURN(
        const storage::VideoIndex* index,
        cache->Index(i, s.minutes, s.model_seed + static_cast<uint64_t>(i)));
    repo.Add("v" + std::to_string(i), *index);
  }
  const offline::PaperScoring scoring;
  offline::RvaqOptions rvaq;
  rvaq.k = s.k;

  // Confidence-enabled trials identify on BOTH sides from the same base
  // seed: the single-node reference and every shard (replica re-runs
  // included) derive per-video pull streams from kQueryBaseSeed, so the
  // merged-vs-reference and self-determinism oracles cover adaptive
  // sampling under kills, partitions and rebalance.
  std::unique_ptr<bai::SequenceArms> identifier;
  if (s.confidence > 0.0) {
    identifier = std::make_unique<bai::SequenceArms>(
        bai::SequenceArms::AtConfidence(s.confidence));
    rvaq.identifier = identifier.get();
    rvaq.identifier_seed = bai::kQueryBaseSeed;
    ++r->coverage["bai.cluster_trials"];
  }

  // Cascade-enabled trials pre-filter BOTH sides through one shared
  // plan: the single-node reference and every shard resolve identical
  // surviving-clip sets (the planner is a pure function of the proxy
  // index), so the merged-vs-reference and self-determinism oracles
  // cover the cascade path, failover re-runs included.
  cascade::ProxySet proxies;
  std::shared_ptr<const cascade::PlannedQuery> planned;
  if (s.recall < 1.0) {
    for (int i = 0; i < s.num_videos; ++i) {
      const std::string name = "v" + std::to_string(i);
      VAQ_ASSIGN_OR_RETURN(
          cascade::ProxyVideoIndex proxy_index,
          cascade::LoadOrBuildProxyIndex(
              /*store=*/nullptr, name, cache->Scenario(i, s.minutes),
              detect::ModelProfile::ProxyCnn(),
              s.model_seed + static_cast<uint64_t>(i)));
      proxies.emplace(name, std::move(proxy_index));
    }
    const cascade::Planner planner(&proxies);
    VAQ_ASSIGN_OR_RETURN(planned, planner.Lookup("running", {"dog"}, s.recall));
    if (planned->plan.use_cascade) {
      rvaq.prefilter = planned->filters.get();
      ++r->coverage["cascade.cluster_plans"];
    } else {
      ++r->coverage["cascade.cluster_exact_fallbacks"];
    }
  }

  obs::MetricRegistry::Global().Reset();
  VAQ_ASSIGN_OR_RETURN(const offline::RepositoryTopKResult ref,
                       repo.TopK("running", {"dog"}, scoring, rvaq));
  const std::string ref_top = DescribeTop(ref.top);

  fault::FaultSpec spec = s.env;
  bool scheduled_kills = false;
  for (const ChaosEvent& e : schedule) {
    fault::ScheduledWindow w;
    if (e.kind == EventKind::kNodeKill) {
      w.domain = fault::FaultDomain::kNode;
      w.key = e.host;
      scheduled_kills = true;
      ++r->coverage["event.node_kill"];
    } else if (e.kind == EventKind::kNetPartition) {
      w.domain = fault::FaultDomain::kNetwork;
      ++r->coverage["event.net_partition"];
    } else {
      ++r->coverage[std::string("event.skipped.") + EventKindName(e.kind)];
      continue;
    }
    w.from_ms = e.from_ms;
    w.to_ms = e.to_ms;
    spec.windows.push_back(w);
  }
  VAQ_ASSIGN_OR_RETURN(const fault::FaultPlan plan,
                       fault::FaultPlan::Create(spec, s.env_seed));

  cluster::ClusterOptions co;
  co.num_shards = s.num_shards;
  co.num_replicas = s.num_replicas;
  co.scheme = s.scheme;
  co.batch_size = s.batch_size;
  co.fault_plan = &plan;
  co.max_steps = kClusterMaxSteps;
  cluster::Coordinator coordinator(&repo, co);
  if (s.rebalance > 0) {
    // Elastic churn before the chaos queries: split the first shard that
    // holds at least two videos; rebalance == 2 merges the pair back.
    // Either way every oracle below must still hold — result bytes are
    // layout-invariant, faults or not.
    for (int shard = 0; shard < coordinator.num_shards(); ++shard) {
      if (coordinator.SplitShard(shard).ok()) {
        ++r->coverage["cluster.splits"];
        if (s.rebalance == 2 && coordinator.MergeShards(shard).ok()) {
          ++r->coverage["cluster.merges"];
        }
        break;
      }
    }
  }

  // Two identical chaos runs: the event loop itself must be a pure
  // function of the plan (self-determinism), independently of whether
  // the outcome matches the reference. Each run carries its own query
  // trace; the rendered profiles must match byte for byte too — the
  // per-shard attribution is part of the deterministic surface.
  obs::MetricRegistry::Global().Reset();
  obs::QueryTrace trace1("chaos");
  const StatusOr<cluster::ClusterTopKResult> run1 = coordinator.TopK(
      "running", {"dog"}, scoring, rvaq, obs::QueryContext{&trace1, 0});
  obs::MetricRegistry::Global().Reset();
  obs::QueryTrace trace2("chaos");
  const StatusOr<cluster::ClusterTopKResult> run2 = coordinator.TopK(
      "running", {"dog"}, scoring, rvaq, obs::QueryContext{&trace2, 0});

  const auto violation = [&](const std::string& msg) {
    r->violations.push_back("cluster: " + msg);
  };
  if (run1.ok() != run2.ok() ||
      (!run1.ok() && run1.status().ToString() != run2.status().ToString())) {
    violation("two identical runs disagree on outcome: '" +
              run1.status().ToString() + "' vs '" + run2.status().ToString() +
              "'");
    return Status::OK();
  }
  if (run1.ok() &&
      DescribeTop(run1->merged.top) != DescribeTop(run2->merged.top)) {
    violation("two identical runs returned different top lists");
    return Status::OK();
  }
  if (trace1.RenderProfile() != trace2.RenderProfile()) {
    violation("two identical runs produced different query profiles");
    return Status::OK();
  }

  const bool availability_faults =
      s.env.node_outage_rate > 0.0 || scheduled_kills;
  if (!run1.ok()) {
    if (run1.status().code() == StatusCode::kDeadlineExceeded) {
      violation("watchdog: " + std::string(run1.status().message()));
    } else if (run1.status().code() != StatusCode::kUnavailable) {
      violation("undocumented failure status: " + run1.status().ToString());
    } else if (!availability_faults) {
      violation("kUnavailable without any availability fault: " +
                std::string(run1.status().message()));
    } else {
      ++r->coverage["cluster.unavailable"];
    }
    return Status::OK();
  }

  if (DescribeTop(run1->merged.top) != ref_top) {
    violation("merged top list diverged from the single-node reference");
  }
  if (run1->merged.accesses.ToString() != ref.accesses.ToString()) {
    violation("table-access accounting diverged from the reference");
  }
  if (run1->merged.videos_queried != ref.videos_queried ||
      run1->merged.videos_skipped != ref.videos_skipped ||
      run1->merged.candidate_sequences != ref.candidate_sequences) {
    violation("scan accounting diverged from the reference");
  }
  if (!std::isfinite(run1->answer_ms) || run1->answer_ms < 0.0) {
    violation("sim clock did not progress monotonically: answer_ms=" +
              Fmt(run1->answer_ms));
  }
  r->coverage["net.drops"] += run1->net.drops;
  r->coverage["net.partition_drops"] += run1->net.partition_drops;
  r->coverage["net.duplicates"] += run1->net.duplicates_suppressed;
  r->coverage["cluster.failovers"] += run1->failovers;
  return Status::OK();
}

// --- Serve phase --------------------------------------------------------

struct ServeOut {
  std::string described;
  std::string metrics;
  std::string stats;
  std::string profiles;  // Concatenated per-query RenderProfile, id order.
};

StatusOr<ServeOut> RunServeOnce(const TrialScenario& s, IndexCache* cache,
                                const fault::FaultPlan* plan,
                                const storage::VideoIndex* repository,
                                int threads, TrialResult* r) {
  obs::MetricRegistry::Global().Reset();
  serve::ServeOptions so;
  so.threads = threads;
  so.queue_capacity = s.num_queries;  // Sized to fit: no overflow path.
  so.share_detection_cache = true;
  so.fault_plan = plan;
  so.trace_queries = true;  // Profiles join the determinism surface.
  // Tenant quotas sized to fit, like the queue: sheds are scheduling-
  // dependent at threads > 0, and the oracle here is that the *tagged*
  // path (vaq_tenant_* accounting included) is thread-count-invariant.
  for (int t = 0; t < s.tenants; ++t) {
    so.tenant_quotas["t" + std::to_string(t)] = s.num_queries;
  }
  serve::Server server(so);
  for (int i = 0; i < s.num_streams; ++i) {
    server.RegisterStream(SourceName(i), cache->Scenario(i, s.minutes),
                          s.model_seed + static_cast<uint64_t>(i));
  }
  if (repository != nullptr) {
    server.RegisterRepository(kChaosRepositoryName, *repository);
  }
  int submitted = 0;
  for (const std::string& sql : ChaosWorkload(s)) {
    const StatusOr<int64_t> id =
        s.tenants > 0
            ? server.Submit(sql, "t" + std::to_string(submitted % s.tenants))
            : server.Submit(sql);
    ++submitted;
    if (!id.ok()) {
      r->violations.push_back("serve: submit rejected (capacity fits the "
                              "workload): " +
                              id.status().ToString());
    }
  }
  ServeOut out;
  const std::vector<serve::ServedQuery> drained = server.Drain();
  for (const serve::ServedQuery& q : drained) {
    if (q.trace != nullptr) out.profiles += q.trace->RenderProfile();
  }
  out.described = DescribeAll(drained);
  out.metrics = obs::ExportPrometheus(
      obs::FilterSnapshot(obs::MetricRegistry::Global().TakeSnapshot(),
                          serve::LogicalMetricPrefixes()));
  out.stats = server.stats().ToString();
  return out;
}

Status RunServe(const TrialScenario& s, IndexCache* cache, TrialResult* r) {
  const storage::VideoIndex* repository = nullptr;
  if (s.with_repository) {
    VAQ_ASSIGN_OR_RETURN(repository, cache->Index(0, s.minutes, s.model_seed));
  }
  StatusOr<fault::FaultPlan> plan_or =
      fault::FaultPlan::Create(s.env, s.env_seed);
  VAQ_RETURN_IF_ERROR(plan_or.status());
  const fault::FaultPlan* plan = s.env.any() ? &*plan_or : nullptr;
  const int64_t clips = static_cast<int64_t>(
      cache->Scenario(0, s.minutes).layout().NumClips());
  if (plan != nullptr) {
    CountScheduledFaults(*plan, clips * s.num_streams,
                         cache->Scenario(0, s.minutes).layout().frames_per_clip(),
                         r);
  }

  if (s.tenants > 0) r->coverage["serve.tenants"] += s.tenants;
  if (s.confidence > 0.0) ++r->coverage["bai.serve_trials"];
  VAQ_ASSIGN_OR_RETURN(const ServeOut ref,
                       RunServeOnce(s, cache, plan, repository, 0, r));
  VAQ_ASSIGN_OR_RETURN(const ServeOut chaos,
                       RunServeOnce(s, cache, plan, repository, s.threads, r));
  if (!r->violations.empty()) return Status::OK();
  if (StripBaiCertificates(chaos.described) !=
      StripBaiCertificates(ref.described)) {
    r->violations.push_back("serve: results under " +
                            std::to_string(s.threads) +
                            " threads diverged from the inline reference");
  }
  if (chaos.metrics != ref.metrics) {
    r->violations.push_back(
        "serve: logical vaq_* metrics are thread-count-dependent");
  }
  if (chaos.stats != ref.stats) {
    r->violations.push_back(
        "serve: lifetime stats are thread-count-dependent");
  }
  if (chaos.profiles != ref.profiles) {
    r->violations.push_back(
        "serve: per-query profiles are thread-count-dependent");
  }
  return Status::OK();
}

}  // namespace

const synth::Scenario& IndexCache::Scenario(int index, int minutes) {
  const std::pair<int, int> key(index, minutes);
  auto it = scenarios_.find(key);
  if (it == scenarios_.end()) {
    it = scenarios_.emplace(key, ChaosScenario(index, minutes)).first;
  }
  return it->second;
}

StatusOr<const storage::VideoIndex*> IndexCache::Index(int index, int minutes,
                                                       uint64_t model_seed) {
  const std::tuple<int, int, uint64_t> key(index, minutes, model_seed);
  auto it = indexes_.find(key);
  if (it == indexes_.end()) {
    const synth::Scenario& scenario = Scenario(index, minutes);
    detect::ModelBundle models =
        detect::ModelBundle::MaskRcnnI3d(scenario.truth(), model_seed);
    const offline::PaperScoring scoring;
    offline::Ingestor ingestor(&scenario.vocab(), &scoring,
                               offline::IngestOptions{});
    VAQ_ASSIGN_OR_RETURN(storage::VideoIndex built,
                         ingestor.Ingest(scenario.truth(), models));
    it = indexes_.emplace(key, std::move(built)).first;
  }
  return &it->second;
}

StatusOr<TrialResult> RunTrial(const TrialScenario& scenario,
                               const Schedule& schedule,
                               const TrialOptions& options,
                               IndexCache* cache) {
  TrialResult result;
  result.trial = scenario.trial;
  result.phase = scenario.phase;
  switch (scenario.phase) {
    case Phase::kStanding:
      VAQ_RETURN_IF_ERROR(
          RunStanding(scenario, schedule, options, cache, &result));
      break;
    case Phase::kCluster:
      VAQ_RETURN_IF_ERROR(RunCluster(scenario, schedule, cache, &result));
      break;
    case Phase::kServe:
      VAQ_RETURN_IF_ERROR(RunServe(scenario, cache, &result));
      break;
  }
  return result;
}

}  // namespace chaos
}  // namespace vaq
