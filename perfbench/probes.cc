// Direct probes of the layers a workload reaches only through another
// layer. Each times one module's public function on the workload's own
// inputs and reports a median, so one slow call does not move it.
#include <algorithm>
#include <cmath>
#include <random>

#include "cascade/planner.h"
#include "ckpt/store.h"
#include "cluster/coordinator.h"
#include "detect/models.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "offline/scoring.h"
#include "online/streaming.h"
#include "online/svaq.h"
#include "online/svaqd.h"
#include "perfbench/workloads.h"
#include "query/parser.h"
#include "scanstat/critical_value.h"
#include "serve/server.h"
#include "tools/pipeline_setup.h"

namespace perfbench {

namespace cascade = vaq::cascade;
namespace ckpt = vaq::ckpt;
namespace cluster = vaq::cluster;
namespace detect = vaq::detect;
namespace fault = vaq::fault;
namespace obs = vaq::obs;
namespace offline = vaq::offline;
namespace online = vaq::online;
namespace query = vaq::query;
namespace scanstat = vaq::scanstat;
namespace serve = vaq::serve;
namespace synth = vaq::synth;
namespace tools = vaq::tools;
using vaq::Status;
using vaq::StatusOr;

namespace {

// Calls per timed batch for the nanosecond-scale kernels, and batches.
constexpr int kBatchCalls = 4096;
constexpr int kBatches = 9;

}  // namespace

void ProbeScanstat(const synth::Scenario& scenario, uint64_t seed,
                   Metrics* out) {
  // Background rates around what the engines' estimators settle on
  // (model false-positive rates of 1e-3 .. 1e-1), on the engines' own
  // object and action scan configurations for this video.
  const online::SvaqOptions options;
  const scanstat::ScanConfig configs[] = {
      online::ObjectScanConfig(scenario.layout(), options),
      online::ActionScanConfig(scenario.layout(), options)};
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> log10_p(-3.0, -1.0);
  std::vector<double> samples;
  for (int i = 0; i < 256; ++i) {
    const double p = std::pow(10.0, log10_p(rng));
    const double start = NowNs();
    scanstat::CriticalValue(p, configs[i % 2]);
    samples.push_back(NowNs() - start);
  }
  (*out)["scanstat.critical_value_ns"] = {Median(samples), "ns"};
}

void ProbeDetect(const synth::Scenario& scenario, uint64_t seed,
                 Metrics* out) {
  const detect::ModelBundle models =
      detect::ModelBundle::MaskRcnnI3d(scenario.truth(), seed);
  const vaq::ObjectTypeId dog = scenario.vocab().FindObjectType("dog");
  const vaq::ActionTypeId running = scenario.vocab().FindActionType("running");
  const int64_t frames = scenario.layout().num_frames();
  const int64_t shots = scenario.layout().NumShots();
  std::vector<double> object_ns, action_ns;
  for (int b = 0; b < kBatches; ++b) {
    double start = NowNs();
    for (int i = 0; i < kBatchCalls; ++i) {
      models.detector->MaxScore(dog, (b * kBatchCalls + i) % frames);
    }
    object_ns.push_back((NowNs() - start) / kBatchCalls);
    start = NowNs();
    for (int i = 0; i < kBatchCalls; ++i) {
      models.recognizer->Score(running, (b * kBatchCalls + i) % shots);
    }
    action_ns.push_back((NowNs() - start) / kBatchCalls);
  }
  (*out)["detect.max_score_ns"] = {Median(object_ns), "ns"};
  (*out)["detect.action_score_ns"] = {Median(action_ns), "ns"};
}

Status ProbeOnline(const synth::Scenario& scenario, uint64_t seed,
                   Metrics* out) {
  const fault::FaultPlan plan(tools::DemoFaultSpec(), seed);
  const online::SvaqdOptions options = tools::DemoSvaqdOptions(&plan);
  std::vector<double> push_ns;
  {
    detect::ModelBundle models =
        detect::ModelBundle::MaskRcnnI3d(scenario.truth(), seed);
    online::StreamingSvaqd engine(scenario.query(), scenario.layout(),
                                  options, nullptr);
    for (int64_t c = 0; c < scenario.layout().NumClips(); ++c) {
      const double start = NowNs();
      VAQ_RETURN_IF_ERROR(
          engine.PushClip(models.detector.get(), models.recognizer.get())
              .status());
      push_ns.push_back(NowNs() - start);
    }
    engine.Finish();
  }
  std::vector<double> run_ns;
  for (int rep = 0; rep < 3; ++rep) {
    detect::ModelBundle models =
        detect::ModelBundle::MaskRcnnI3d(scenario.truth(), seed);
    const online::Svaqd engine(scenario.query(), scenario.layout(), options);
    const double start = NowNs();
    const online::OnlineResult result =
        engine.Run(models.detector.get(), models.recognizer.get());
    run_ns.push_back(NowNs() - start);
    if (result.clips_processed <= 0) {
      return Status::Internal("Svaqd::Run processed no clips");
    }
  }
  (*out)["online.push_clip_us"] = {Median(push_ns) / 1e3, "us"};
  (*out)["online.run_ms"] = {Median(run_ns) / 1e6, "ms"};
  return Status::OK();
}

Status ProbeParse(const std::vector<std::string>& statements, Metrics* out) {
  std::vector<double> samples;
  for (int rep = 0; rep < 16; ++rep) {
    for (const std::string& sql : statements) {
      const double start = NowNs();
      const StatusOr<query::QueryStatement> stmt = query::Parse(sql);
      samples.push_back(NowNs() - start);
      VAQ_RETURN_IF_ERROR(stmt.status());
    }
  }
  (*out)["query.parse_us"] = {Median(samples) / 1e3, "us"};
  return Status::OK();
}

Status ProbeServe(const std::vector<synth::Scenario>& scenarios,
                  const Corpus* corpus,
                  const std::vector<std::string>& statements, uint64_t seed,
                  Metrics* out) {
  Spans spans;
  const fault::FaultPlan plan(tools::DemoFaultSpec(), seed);
  const int threads = ServeThreads();
  for (int rep = 0; rep < 3; ++rep) {
    std::unique_ptr<serve::Server> server;
    {
      Span span(&spans, "register");
      serve::ServeOptions options;
      options.threads = threads;
      options.queue_capacity = static_cast<int>(statements.size()) + 1;
      options.fault_plan = &plan;
      server = std::make_unique<serve::Server>(options);
      for (size_t i = 0; i < scenarios.size(); ++i) {
        server->RegisterStream("cam" + std::to_string(i), scenarios[i],
                               seed + i);
      }
      // Only the videos the statements name.
      for (const std::string& name : corpus->videos) {
        for (const std::string& sql : statements) {
          if (sql.find("PROCESS " + name + " ") != std::string::npos) {
            server->RegisterRepository(name, *corpus->repository.Find(name));
            break;
          }
        }
      }
    }
    for (const std::string& sql : statements) {
      Span span(&spans, "submit");
      VAQ_RETURN_IF_ERROR(server->Submit(sql).status());
    }
    {
      Span span(&spans, "drain");
      for (const serve::ServedQuery& q : server->Drain()) {
        VAQ_RETURN_IF_ERROR(q.status);
      }
    }
  }
  (*out)["serve.register_ms"] = {spans.MedianNs("register") / 1e6, "ms"};
  (*out)["serve.submit_us"] = {spans.MedianNs("submit") / 1e3, "us"};
  (*out)["serve.drain_ms"] = {spans.MedianNs("drain") / 1e6, "ms"};
  return Status::OK();
}

Status ProbeCkpt(const std::vector<synth::Scenario>& scenarios, uint64_t seed,
                 Metrics* out) {
  // A durable standing session over these streams: two checkpoint
  // intervals of clips, then three cold recoveries from the store.
  TempDir dir("ckpt-probe");
  ckpt::DirStore store(dir.path());
  const fault::FaultPlan plan(tools::DemoFaultSpec(), seed);
  const int streams = static_cast<int>(scenarios.size());
  serve::ServeOptions options;
  options.threads = 0;
  options.fault_plan = &plan;
  options.checkpoint_store = &store;
  const auto make_server = [&] {
    auto server = std::make_unique<serve::Server>(options);
    for (int i = 0; i < streams; ++i) {
      server->RegisterStream("cam" + std::to_string(i),
                             scenarios[static_cast<size_t>(i)],
                             seed + static_cast<uint64_t>(i));
    }
    return server;
  };
  Spans spans;
  const int64_t snapshots0 = CounterValue("vaq_ckpt_snapshots_total");
  const int64_t bytes0 = CounterValue("vaq_ckpt_snapshot_bytes_total");
  {
    std::unique_ptr<serve::Server> server = make_server();
    for (const std::string& sql :
         tools::DemoWorkload(streams, 2 * streams, /*with_repository=*/false)) {
      VAQ_RETURN_IF_ERROR(server->AddStandingQuery(sql).status());
    }
    const int64_t interval = streams * serve::kDefaultSnapshotEveryClips;
    for (int64_t a = 1; a <= 2 * interval; ++a) {
      VAQ_RETURN_IF_ERROR(server->AdvanceStream(
          "cam" + std::to_string((a - 1) % streams)));
      if (a % interval == 0) {
        Span span(&spans, "checkpoint");
        VAQ_RETURN_IF_ERROR(server->Checkpoint());
      }
    }
  }
  const int64_t snapshots =
      CounterValue("vaq_ckpt_snapshots_total") - snapshots0;
  const int64_t bytes = CounterValue("vaq_ckpt_snapshot_bytes_total") - bytes0;
  for (int rep = 0; rep < 3; ++rep) {
    std::unique_ptr<serve::Server> replica = make_server();
    Span span(&spans, "recover");
    VAQ_RETURN_IF_ERROR(replica->Recover().status());
  }
  (*out)["ckpt.checkpoint_ms"] = {spans.MedianNs("checkpoint") / 1e6, "ms"};
  (*out)["ckpt.recover_ms"] = {spans.MedianNs("recover") / 1e6, "ms"};
  (*out)["ckpt.snapshot_bytes"] = {
      snapshots > 0 ? static_cast<double>(bytes) / snapshots : 0.0, "bytes"};
  return Status::OK();
}

Status ProbeRanked(const Corpus& corpus,
                   const std::vector<RankedQuery>& queries, Metrics* out) {
  const offline::PaperScoring scoring;
  cluster::ClusterOptions options;
  options.num_shards = 4;
  options.proxy = &corpus.proxies;
  const cluster::Coordinator coordinator(&corpus.repository, options);
  const cascade::Planner planner(&corpus.proxies);
  std::vector<double> single_ns, cluster_ns, overhead_ns, plan_ns;
  double net_bytes = 0, consumed = 0, pruned = 0, surviving = 0, total = 0;
  // At least ~48 calls per figure, whatever the pool size.
  const size_t reps = std::max<size_t>(1, 48 / std::max<size_t>(1, queries.size()));
  for (size_t rep = 0; rep < reps; ++rep) {
    for (const RankedQuery& q : queries) {
      offline::RvaqOptions rvaq;
      rvaq.k = q.k;
      double start = NowNs();
      VAQ_RETURN_IF_ERROR(
          corpus.repository.TopK(q.action, q.objects, scoring, rvaq).status());
      const double single = NowNs() - start;
      start = NowNs();
      VAQ_ASSIGN_OR_RETURN(
          const cluster::ClusterTopKResult result,
          coordinator.TopK(q.action, q.objects, scoring, rvaq));
      const double gathered = NowNs() - start;
      single_ns.push_back(single);
      cluster_ns.push_back(gathered);
      overhead_ns.push_back(gathered - single);
      net_bytes += static_cast<double>(result.net.bytes);
      consumed += static_cast<double>(result.batches_consumed);
      pruned += static_cast<double>(result.batches_pruned);
      start = NowNs();
      VAQ_ASSIGN_OR_RETURN(const cascade::CascadePlan plan,
                           planner.Plan(q.action, q.objects, 0.9));
      plan_ns.push_back(NowNs() - start);
      surviving += static_cast<double>(plan.clips_surviving);
      total += static_cast<double>(plan.clips_total);
    }
  }
  const double calls = static_cast<double>(cluster_ns.size());
  (*out)["offline.topk_us"] = {Median(single_ns) / 1e3, "us"};
  (*out)["cluster.topk_us"] = {Median(cluster_ns) / 1e3, "us"};
  (*out)["cluster.overhead_us"] = {Median(overhead_ns) / 1e3, "us"};
  (*out)["cluster.net_bytes_per_op"] = {net_bytes / calls, "bytes"};
  (*out)["cluster.batches_pruned_ratio"] = {
      consumed + pruned > 0 ? pruned / (consumed + pruned) : 0.0, "ratio"};
  (*out)["cascade.plan_us"] = {Median(plan_ns) / 1e3, "us"};
  (*out)["cascade.clip_survival_ratio"] = {total > 0 ? surviving / total : 0.0,
                                           "ratio"};
  return Status::OK();
}

void SetupLayers(const std::vector<Spans>& setups,
                 const std::vector<double>& setup_ms, Metrics* out) {
  // Stage totals in ms, median over repetitions. A stage these set-ups
  // did not run keeps whatever value `out` already holds (the probes').
  struct Stage {
    const char* span;
    const char* metric;
    bool per_video;
  };
  static const Stage kStages[] = {
      {"synth.generate", "synth.generate_ms", false},
      {"offline.ingest", "offline.ingest_ms_per_video", true},
      {"cascade.proxy_build", "cascade.proxy_build_ms", false},
      {"storage.catalog_save", "storage.catalog_save_ms", false},
      {"storage.catalog_load", "storage.catalog_load_ms", false},
  };
  std::vector<double> other_ms(setup_ms);
  for (const Stage& stage : kStages) {
    if (setups.empty() || !setups[0].Has(stage.span)) continue;
    std::vector<double> totals;
    for (size_t r = 0; r < setups.size(); ++r) {
      const double ms = setups[r].TotalNs(stage.span) / 1e6;
      totals.push_back(ms);
      if (r < other_ms.size()) other_ms[r] -= ms;
    }
    double value = Median(totals);
    if (stage.per_video) {
      value /= static_cast<double>(std::max<int64_t>(
          1, setups[0].Count(stage.span)));
    }
    (*out)[stage.metric] = {value, "ms"};
  }
  if (!setup_ms.empty()) (*out)["setup.other_ms"] = {Median(other_ms), "ms"};
}

}  // namespace perfbench
