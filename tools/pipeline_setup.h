// Seeded demo-pipeline setup shared by the vaqctl subcommands and the
// serving benchmark.
//
// `vaqctl metrics` (one seeded end-to-end pipeline) and `vaqctl serve` /
// bench_serve (the same pipeline fanned out across many streams and
// standing queries) must agree on scenarios, fault rates and engine
// options — otherwise the two subcommands drift and their outputs stop
// being comparable. This header is the single definition of that demo
// configuration:
//
//   * DemoScenario(0) is byte-for-byte the original `vaqctl metrics`
//     scenario (6 minutes, "running" + coupled "dog", seed 808);
//   * DemoScenario(i > 0) derives stream variants (own seed, an extra
//     uncoupled "car" track) so a serving fleet has distinct feeds;
//   * DemoFaultSpec / DemoSvaqdOptions are the `vaqctl metrics` fault
//     rates and engine options, reused verbatim by the serving runtime.
#ifndef VAQ_TOOLS_PIPELINE_SETUP_H_
#define VAQ_TOOLS_PIPELINE_SETUP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cascade/planner.h"
#include "common/status.h"
#include "fault/fault_plan.h"
#include "offline/repository.h"
#include "online/svaqd.h"
#include "serve/server.h"
#include "synth/scenario.h"
#include "synth/spec_file.h"
#include "traffic/front_door.h"
#include "traffic/workload.h"

namespace vaq {
namespace tools {

// The repository name RegisterDemoSources ingests the demo video under.
inline constexpr char kDemoRepositoryName[] = "library";

// Scenario from a CLI --scenario spec:
//   youtube:<1..12> | coffee | ironman | starwars | titanic
//   | file:<scenario-spec-path> (synth/spec_file.h format).
StatusOr<synth::Scenario> ScenarioFromFlag(const std::string& spec,
                                           uint64_t seed);

// The demo scenario family. Index 0 is the `vaqctl metrics` pipeline's
// scenario; higher indices are per-stream variants.
synth::ScenarioSpec DemoScenarioSpec(int index);
synth::Scenario DemoScenario(int index);

// The demo fault rates (timeouts, outages, garbage scores, clip drops) —
// high enough that every resilience path fires within a 6-minute video.
fault::FaultSpec DemoFaultSpec();

// Engine options for the faulty demo stream. `plan` may be null (clean
// stream); it must outlive the returned options' user.
online::SvaqdOptions DemoSvaqdOptions(const fault::FaultPlan* plan);

// Registers `num_streams` demo streams ("cam0".."cam<n-1>", model seeds
// derived from `seed`) and, when `with_repository`, ingests DemoScenario(0)
// as repository `kDemoRepositoryName`. The server-level fault plan (if
// any) applies: the streams carry none of their own.
Status RegisterDemoSources(serve::Server* server, int num_streams,
                           bool with_repository, uint64_t seed);

// A mixed standing-query workload over those sources: conjunctive and
// CNF online statements round-robined across the streams (several per
// stream, so a shared detection cache has reuse to find) plus ranked
// top-K statements against the repository when `with_repository`.
std::vector<std::string> DemoWorkload(int num_streams, int num_queries,
                                      bool with_repository);

// --- Cascade demo -------------------------------------------------------
// The seeded multi-video corpus behind `vaqctl cascade`, bench_cascade
// and the cascade consistency tests: DemoScenario(i) ingested with the
// expensive models under "vid<i>" (per-video model seeds derived from
// `seed`), plus the matching ingest-time proxy tier (src/cascade/). Pure
// function of its arguments, so the tools, the bench and the tests all
// see one corpus.

struct CascadeDemo {
  offline::Repository repository;   // Expensive-model indexes.
  cascade::ProxySet proxies;        // Ingest-time proxy tier.
  std::vector<std::string> videos;  // Registered names, index order.
};

StatusOr<CascadeDemo> MakeCascadeDemo(int num_videos, uint64_t seed);

// One point of the demo cost-vs-recall frontier: plan the demo query
// ("running" + "dog") at `recall_target`, execute both the exact and
// the planned top-k over the corpus, and measure the recall actually
// achieved — the fraction of the exact top-k's results the planned run
// returned (matched by video and clip extent).
struct CascadeFrontierPoint {
  double recall_target = 1.0;
  bool use_cascade = false;
  double predicted_recall = 1.0;
  double achieved_recall = 1.0;
  // Modeled inference bills (cascade::CascadePlan); on an exact plan
  // cascade_cost_ms == full_cost_ms and the reduction is 1.0.
  double full_cost_ms = 0.0;
  double cascade_cost_ms = 0.0;
  double cost_reduction = 1.0;
  int64_t clips_total = 0;
  int64_t clips_surviving = 0;
  int64_t videos_pruned = 0;
  int64_t candidates_pruned = 0;
  std::string plan_text;  // CascadePlan::ToString of the chosen plan.
};

StatusOr<CascadeFrontierPoint> RunCascadeFrontierPoint(
    const CascadeDemo& demo, double recall_target, int64_t k);

// --- Adaptive-sampling (BAI) demo ---------------------------------------
// The confidence sweep behind `vaqctl bai` and bench_bai: the cascade
// demo corpus queried exactly and WITH CONFIDENCE delta over the same
// (action, objects, k), comparing the identified top-k against the exact
// top-k and the model-invocation bills (table seeks + sequential rows —
// the per-entry model work RVAQ charges) of the two runs.

// The scenario family behind the BAI demo: the demo track shapes
// stretched to 18-minute videos. The exact bound loop's cost scales with
// video length (its reverse sorted access walks every clip's row at
// least once), while a confidently identified video costs only its pulls
// plus the winner's finalization — independent of length — so longer
// videos are exactly the regime adaptive sampling pays off in.
synth::ScenarioSpec BaiDemoScenarioSpec(int index);
synth::Scenario BaiDemoScenario(int index);

// The seeded corpus behind `vaqctl bai` and bench_bai: BaiDemoScenario(i)
// ingested under "vid<i>" with per-video model seeds derived from `seed`,
// plus the matching proxy tier (so WITH RECALL composes with WITH
// CONFIDENCE over the same corpus). Pure function of its arguments.
StatusOr<CascadeDemo> MakeBaiDemo(int num_videos, uint64_t seed);

struct BaiSweepPoint {
  double delta = 0.05;
  // Identified top-k equals the exact top-k, matched by video + clip
  // extent. Survivors are re-ranked exactly, so a correct identification
  // implies a byte-stable top list.
  bool top_match = true;
  int64_t pulls = 0;
  int64_t arms_eliminated = 0;
  int64_t stops = 0;  // Videos whose identification stopped confident.
  int64_t exact_invocations = 0;    // Exact run: seeks + sequential rows.
  int64_t sampled_invocations = 0;  // WITH CONFIDENCE run, same measure.
  double savings_x = 1.0;           // exact_invocations / sampled_invocations.
  std::string certificate;  // RenderAggregateCertificate of the run.
};

// delta <= 0 runs the exact path on both sides (savings_x == 1). `seed`
// is the identification base seed (per-video streams derive from it);
// the same (demo, delta, k, seed) is byte-identical forever.
StatusOr<BaiSweepPoint> RunBaiSweepPoint(const CascadeDemo& demo, double delta,
                                         int64_t k, uint64_t seed);

// --- Durable standing-query demo ---------------------------------------
// The restartable clip-lockstep session behind `vaqctl serve
// --checkpoint-dir`, `vaqctl recover`, the crash-recovery tests and
// bench_ckpt: the demo streams, DemoWorkload's online statements admitted
// as standing queries, and a round-robin clip schedule that can resume
// from recovered stream positions.

struct StandingDemoSpec {
  int num_streams = 2;
  int num_queries = 4;
  uint64_t seed = 11;
  bool share_detection_cache = true;
  // Neither pointer is owned; both must outlive the server.
  const fault::FaultPlan* fault_plan = nullptr;
  ckpt::Store* checkpoint_store = nullptr;
  int64_t snapshot_every_clips = serve::kDefaultSnapshotEveryClips;
};

// A server with the demo streams registered and the spec's durability
// options applied. Standing mode is single-threaded by construction, so
// the server runs inline (threads = 0). Admit queries (or Recover())
// before driving it.
StatusOr<std::unique_ptr<serve::Server>> MakeStandingDemoServer(
    const StandingDemoSpec& spec);

// Admits DemoWorkload(num_streams, num_queries, false) as standing
// queries. Call on a fresh server only — a recovered one already has
// its queries.
Status AdmitStandingDemoWorkload(serve::Server* server,
                                 const StandingDemoSpec& spec);

// Clip advances in a full run of the demo (num_streams × demo clips),
// and the advances a server has already performed (sum of its stream
// positions — exact for the round-robin schedule).
int64_t StandingDemoMaxAdvances(const StandingDemoSpec& spec);
int64_t StandingDemoAdvancesDone(const serve::Server& server,
                                 const StandingDemoSpec& spec);

// Drives the round-robin clip schedule from wherever the server is —
// fresh or recovered — until `max_total_advances` advances have happened
// session-wide. Restartable: stop anywhere ("crash"), Recover() into a
// fresh server, call again with the same target.
Status DriveStandingDemo(serve::Server* server, const StandingDemoSpec& spec,
                         int64_t max_total_advances);

// --- Traffic demo -------------------------------------------------------
// The million-user front door behind `vaqctl traffic` and bench_traffic:
// an open-loop multi-tenant workload (src/traffic/workload.h) whose query
// mix is TrafficPresets — the DemoWorkload ranked statement against the
// demo repository at varied LIMIT, the interactive (tens-of-ms modeled
// disk time) side of the demo; the standing online statements model a
// whole stream scan and are not per-session work. Service costs are
// probed once per preset on a threads = 0 serve::Server and the
// weighted-fair front door (src/traffic/front_door.h) replays the
// arrival timeline against that table. A second, tenant-tagged server
// executes each tenant's presets under its quota — the result-byte
// witness the isolation experiments diff.

// The interactive ranked query mix: DemoWorkload's ranked statement with
// LIMIT 2 + p % 5 for preset p.
std::vector<std::string> TrafficPresets(int num_presets);

struct TrafficDemoSpec {
  int num_tenants = 4;
  double duration_min = 1.0;  // Virtual minutes of offered load.
  uint64_t seed = 21;
  int num_workers = 8;        // Front-door service slots.
  double base_qps = 2.0;      // Per-tenant offered rate, queries/s.
  // Per-tenant admission quota: admitted-but-unfinished queries (queued
  // plus in service), the ServeOptions::tenant_quotas semantics. Keeping
  // it below num_workers caps how many slots one tenant can hold.
  int queue_quota = 4;
  double slo_ms = 250.0;      // Deadline class for every tenant.
  // Tenant index offering 10x its rate (-1 for none): shed at its quota,
  // everyone else's percentiles and result bytes must not move.
  int abusive_tenant = -1;
  bool record_metrics = true;  // Publish vaq_traffic_* families.
};

struct TrafficDemoResult {
  traffic::TrafficReport report;
  // Probed per-preset modeled service cost (threads = 0 reference).
  std::vector<double> preset_cost_ms;
  // Per-tenant described results from the tenant-tagged serve path
  // (sorted by admission id). Byte-identical across runs for a seed; a
  // non-abusive tenant's entry must not change when another tenant
  // turns abusive.
  std::vector<std::string> tenant_results;
  // kResourceExhausted sheds the tenant-tagged server issued (the
  // abusive tenant's submissions beyond its quota).
  int64_t tenant_quota_sheds = 0;
  bool truncated = false;  // WorkloadSpec::max_arrivals was hit.
};

StatusOr<TrafficDemoResult> RunTrafficDemo(const TrafficDemoSpec& spec);

}  // namespace tools
}  // namespace vaq

#endif  // VAQ_TOOLS_PIPELINE_SETUP_H_
