// The perfbench workloads and the per-layer probes they share. README.md
// says why each workload exists, what one op is and how big it is.
#ifndef VAQ_PERFBENCH_WORKLOADS_H_
#define VAQ_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cascade/proxy_index.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "offline/repository.h"
#include "perfbench/harness.h"
#include "synth/scenario.h"

namespace perfbench {

// A failure outside any op (a set-up or a session that cannot be built)
// leaves nothing to measure: reports it and exits 1 without a result line.
void Require(const vaq::Status& status, const char* what);

// Worker threads of the multi-threaded servers: nproc - 1, within [1, 3].
int ServeThreads();

// Current value of a counter in the global obs::MetricRegistry.
int64_t CounterValue(const char* name, const vaq::obs::Labels& labels = {});

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds every input from `seed` — everything before the first timed
  // op — recording its stages into `spans`.
  virtual vaq::Status Setup(uint64_t seed, Spans* spans) = 0;
  // Untimed: computes the reference outputs ops are checked against.
  virtual vaq::Status PrepareReference() = 0;
  // One untimed op, so caches and lazy state are warm before timing.
  virtual vaq::Status Warmup() = 0;
  // Runs ops until `loop` has spent its budget. `spans` is null in the
  // untraced run. Workload state carries over between calls.
  virtual void Run(TimedLoop* loop, Spans* spans) = 0;
  // Untimed closing checks; mismatches count as failed ops in `loop`.
  virtual void Finish(TimedLoop* loop, Spans* spans) = 0;
  // Per-layer metrics: the loop's own counts plus direct probes of the
  // layers reachable only through another layer, on this workload's
  // inputs. `loop_spans` holds what the traced loop recorded.
  virtual vaq::Status Layers(const Spans& loop_spans, Metrics* out) = 0;
  // One line of sizes for the report.
  virtual std::string Describe() const = 0;
  // Extra report lines about the untraced loop (empty by default).
  virtual std::string LoopReport() const { return ""; }
};

// "standing_streams", "adhoc_serve" or "ranked_adhoc"; null otherwise.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

// --- Shared inputs --------------------------------------------------------

// tools::DemoScenario(i) for i in [0, count): the demo feeds. The workload
// seed varies what runs over them (model and fault seeds, statement mixes),
// not the videos, so every seed measures the same content.
std::vector<vaq::synth::Scenario> GenerateStreams(int count, Spans* spans);

// Ingested videos "vid<i>" plus their proxy tier, persisted to a
// storage::Catalog and loaded back the way a restarted process would.
struct Corpus {
  vaq::offline::Repository repository;
  vaq::cascade::ProxySet proxies;
  std::vector<std::string> videos;
  int64_t catalog_bytes = 0;
};

// Ingests `scenarios` (model seeds derived from `seed`), builds the proxy
// tier, saves every index to a Catalog under `catalog_dir` and loads the
// repository back from it. Stages land in `spans` as offline.ingest,
// cascade.proxy_build, storage.catalog_save and storage.catalog_load.
vaq::StatusOr<Corpus> BuildCorpus(
    const std::vector<vaq::synth::Scenario>& scenarios, uint64_t seed,
    const std::string& catalog_dir, Spans* spans);

// --- Per-layer probes (probes.cc) -------------------------------------------
// Each calls one module's public functions directly and writes the
// metrics named in README.md into `out`.

// scanstat.critical_value_ns over engine-shaped inputs of `scenario`.
void ProbeScanstat(const vaq::synth::Scenario& scenario, uint64_t seed,
                   Metrics* out);
// detect.max_score_ns / detect.action_score_ns.
void ProbeDetect(const vaq::synth::Scenario& scenario, uint64_t seed,
                 Metrics* out);
// online.push_clip_us / online.run_ms with private model bundles.
vaq::Status ProbeOnline(const vaq::synth::Scenario& scenario, uint64_t seed,
                        Metrics* out);
// query.parse_us over `statements`.
vaq::Status ProbeParse(const std::vector<std::string>& statements,
                       Metrics* out);
// serve.register_ms / serve.submit_us / serve.drain_ms: one server
// lifetime over `scenarios` (as cam<i>) and `repository` (as videos of
// their own names), answering `statements`.
vaq::Status ProbeServe(const std::vector<vaq::synth::Scenario>& scenarios,
                       const Corpus* corpus,
                       const std::vector<std::string>& statements,
                       uint64_t seed, Metrics* out);
// ckpt.checkpoint_ms / ckpt.snapshot_bytes / ckpt.recover_ms: a durable
// standing session over `scenarios` with the demo standing statements.
vaq::Status ProbeCkpt(const std::vector<vaq::synth::Scenario>& scenarios,
                      uint64_t seed, Metrics* out);
// offline.topk_us, cluster.*, cascade.plan_us and
// cascade.clip_survival_ratio over `corpus`, for conjunctive
// (action, objects) queries.
struct RankedQuery {
  std::string action;
  std::vector<std::string> objects;
  int64_t k = 5;
};
vaq::Status ProbeRanked(const Corpus& corpus,
                        const std::vector<RankedQuery>& queries, Metrics* out);

// The set-up breakdown metrics (synth.generate_ms,
// offline.ingest_ms_per_video, storage.catalog_*_ms, ...), each the median
// over the set-up repetitions, plus setup.other_ms, the part of `setup_ms`
// no stage accounts for. Overwrites those entries of `out`.
void SetupLayers(const std::vector<Spans>& setups,
                 const std::vector<double>& setup_ms, Metrics* out);

}  // namespace perfbench

#endif  // VAQ_PERFBENCH_WORKLOADS_H_
