// vaqctl — command-line front end for VAQ video repositories.
//
//   vaqctl ingest --catalog DIR --name NAME --scenario SPEC [options]
//       Generate a scenario, run the ingestion phase and persist it as
//       one checksummed file, DIR/NAME. NAME uses only [A-Za-z0-9._-].
//       SPEC: youtube:<1..12> | coffee | ironman | starwars | titanic
//             | file:<scenario-spec-path> (synth/spec_file.h format)
//       options: --models maskrcnn|yolo|ideal   --seed N
//
//   vaqctl ls --catalog DIR
//       List ingested videos with their type inventories.
//
//   vaqctl rm --catalog DIR --name NAME
//       Delete an ingested video's file.
//
//   vaqctl topk --catalog DIR --action NAME [--objects a,b,...] [--k N]
//       Repository-wide ranked retrieval (RVAQ per video, merged).
//
//   vaqctl sql --catalog DIR "SELECT ... ORDER BY RANK(...) LIMIT K"
//       Run an offline statement of the paper's dialect against a video
//       registered under its catalog name.
//
//   vaqctl metrics [--scenario SPEC] [--seed N] [--format prom|json|both]
//       Run a seeded end-to-end pipeline (faulty SVAQD stream + ingest +
//       RVAQ top-K) and dump the resulting metric-registry snapshot in
//       Prometheus text and/or JSON form. The output is a pure function
//       of (--scenario, --seed): it holds the logical families only (the
//       wall-time `vaq_wall_*` families are left out), so two runs with
//       the same flags emit byte-identical snapshots. Both export formats
//       are always self-checked with the built-in linters (JSON shape +
//       promlint rules); lint failures exit 1. --selfcheck runs the
//       pipeline and the linters but prints only the verdict — the CI
//       entry point.
//
//   vaqctl serve [--threads N] [--queries M] [--streams K] [--seed S]
//                [--cache on|off] [--capacity C] [--format text|prom|both]
//       Run the concurrent serving runtime (src/serve/) over a fleet of
//       demo streams plus an ingested repository: a mixed standing-query
//       workload is admitted through the bounded queue, sharded per
//       source and executed by N workers with a shared detection cache.
//       Per-query results and merged statistics are deterministic for a
//       fixed --seed regardless of --threads.
//
//   vaqctl trace [--threads N] [--queries M] [--streams K] [--seed S]
//                [--out FILE]
//       The same serve demo with per-query tracing armed: every query
//       gets a span tree (root "q<id>", children per execution phase
//       with modeled-ms self times and logical stats), the session gets
//       one for WAL/snapshot/recovery work. Prints each query's profile
//       tree and dumps all spans as Chrome trace-event JSON to --out
//       (stdout if omitted) — open in chrome://tracing or Perfetto.
//       The JSON is linted before it is written and is byte-identical
//       across runs and across --threads for a fixed workload.
//
//   vaqctl serve --checkpoint-dir DIR [--snapshot-every N]
//                [--crash-after K] [--queries M] [--streams K] [--seed S]
//                [--cache on|off] [--format text|prom|both]
//       Durable variant: the same workload runs as standing queries in
//       clip lockstep against a checkpoint store in DIR (src/ckpt/) — a
//       clip-granularity WAL plus a full snapshot every N clips. The
//       session config is persisted alongside the checkpoints, so the
//       session is restartable by `vaqctl recover` alone. --crash-after K
//       stops dead after K clip advances (no final results, no clean
//       shutdown) to stage a crash for the recovery demo:
//
//         vaqctl serve --checkpoint-dir /tmp/ckpt --crash-after 100
//         vaqctl recover --checkpoint-dir /tmp/ckpt
//
//   vaqctl recover --checkpoint-dir DIR [--format text|prom|both]
//       Recover the durable session in DIR: restore the newest valid
//       snapshot (corrupt ones are rejected and counted), replay the
//       WAL, resume the stream schedule to completion and print the
//       results plus resumed metrics. For a fixed config the output is
//       byte-identical to a run that never crashed.
//
//   vaqctl cluster [--nodes N] [--replicas R] [--scheme hash|range]
//                  [--videos V] [--k K] [--batch B] [--seed S]
//                  [--kill-node I] [--kill-at MS]
//                  [--action NAME] [--objects a,b,...]
//       Build a demo repository of V videos, shard it across N nodes
//       (each with R follower replicas) and answer a ranked query by
//       scatter–gather top-k with the threshold-algorithm stopping rule
//       (src/cluster/). Prints the merged top-k, whether it is identical
//       to single-node RVAQ (exit 1 if not), the modeled speedup, and
//       gather/network statistics. --kill-node I (a host id below
//       N * (1 + R); -1, the default, kills none) takes that host down
//       from --kill-at virtual ms (>= 0) onward, a fault-plan window, to
//       demo replica failover.
//
//   vaqctl cascade [--recall R] [--seed S] [--videos V] [--k K]
//       Plan a model cascade over the seeded demo corpus (src/cascade/):
//       V demo videos are ingested with the expensive models and scored
//       once by the cheap proxy tier, then the cost-based planner picks
//       per-concept proxy thresholds for recall target R and the demo
//       top-K query runs both exact and planned. Prints the chosen plan,
//       the modeled cost reduction and the recall actually achieved
//       against the exact results. --recall 1.0 demonstrates the exact
//       fallback (no cascade, identical results by construction).
//
//   vaqctl traffic [--tenants N] [--duration-min M] [--seed S]
//                  [--workers W] [--qps Q] [--quota C] [--slo-ms D]
//                  [--abusive I]
//       Open-loop multi-tenant front door (src/traffic/): a seeded
//       arrival process (diurnal curve, bursts, hotspot tenants) over
//       the demo query mix, admitted through per-tenant quotas and
//       drained by a deficit-round-robin weighted-fair scheduler on
//       virtual time. Prints per-tenant admit/shed/SLO accounting and
//       exact sojourn percentiles — byte-identical per seed. With
//       --abusive I the run repeats with tenant I offering 10x its rate:
//       the abuser is shed at its quota (kResourceExhausted on the serve
//       path) and the command verifies every other tenant's p99 stayed
//       within 10% of the no-abuse baseline with identical result bytes,
//       exiting 1 on a violation.
//
//   vaqctl chaos [--trials N] [--seed S] [--canary on]
//                [--replay FILE] [--out FILE] [--shrink off]
//       Run N seeded whole-stack chaos trials (src/chaos/): each draws a
//       random scenario (standing/cluster/serve shape) plus a random
//       fault schedule (crashes, torn WAL advances, snapshot corruption,
//       node kills, partitions) and checks the invariant oracles —
//       byte-identical results vs. a fault-free reference, exact
//       progress, documented status codes, consistent recovery counters.
//       On failure the schedule is delta-debugged to a 1-minimal
//       reproducer and written to --out (default chaos_repro.json);
//       `vaqctl chaos --replay FILE` re-runs it byte-identically.
//       --canary on arms a deliberate double-apply bug to prove the
//       harness catches, shrinks and replays real failures.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <map>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "bai/sequence_arms.h"
#include "chaos/engine.h"
#include "ckpt/recovery.h"
#include "cluster/coordinator.h"
#include "cluster/partition.h"
#include "obs/query_trace.h"
#include "ckpt/serializer.h"
#include "ckpt/store.h"
#include "tools/pipeline_setup.h"
#include "vaq/vaq.h"

namespace vaq {
namespace {

// Minimal --flag value parser: flags precede or follow positionals.
// Every flag takes the next argument as its value, except --selfcheck,
// which takes none. A flag the subcommand does not read, or a value flag
// with no value left, prints a message naming the flag and exits 2
// before any work, so a mistyped flag is never silently ignored.
struct Args {
  std::vector<std::string> known;  // The subcommand's flags.
  std::map<std::string, std::string> flags;
  std::vector<std::string> positional;  // positional[0] is the subcommand.

  static Args Parse(int argc, char** argv, std::vector<std::string> known) {
    Args args;
    args.known = std::move(known);
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        args.positional.push_back(arg);
        continue;
      }
      const std::string name = arg.substr(2);
      if (!args.Knows(name)) {
        std::fprintf(stderr, "vaqctl %s: unknown flag --%s\n", argv[1],
                     name.c_str());
        std::exit(2);
      }
      if (name == "selfcheck") {
        args.flags[name];
      } else if (i + 1 < argc) {
        args.flags[name] = argv[++i];
      } else {
        std::fprintf(stderr, "vaqctl %s: --%s needs a value\n", argv[1],
                     name.c_str());
        std::exit(2);
      }
    }
    return args;
  }

  bool Knows(const std::string& name) const {
    return std::find(known.begin(), known.end(), name) != known.end();
  }

  std::string Get(const std::string& name,
                  const std::string& fallback = "") const {
    VAQ_CHECK(Knows(name)) << "--" << name << " is not a declared flag";
    auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  }

  // The numeric --flag `name` as a T, or `fallback` when it is absent.
  // The whole value is parsed with std::from_chars straight into T, so
  // garbage, trailing characters, a sign on an unsigned T, a value
  // outside T's range and, for a floating T, a non-finite value all
  // print a message naming the flag and exit 2. Commands read their
  // flags before they start any work.
  template <typename T>
  T Number(const std::string& name, T fallback) const {
    VAQ_CHECK(Knows(name)) << "--" << name << " is not a declared flag";
    const auto it = flags.find(name);
    if (it == flags.end()) return fallback;
    const std::string& text = it->second;
    T value{};
    const char* end = text.data() + text.size();
    const auto [ptr, error] = std::from_chars(text.data(), end, value);
    bool ok = error == std::errc() && ptr == end;
    if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
    if (ok) return value;
    std::string want = "a finite number";
    if constexpr (std::is_integral_v<T>) {
      want = "an integer in [" +
             std::to_string(std::numeric_limits<T>::min()) + ", " +
             std::to_string(std::numeric_limits<T>::max()) + "]";
    }
    std::fprintf(stderr, "vaqctl: --%s must be %s, got '%s'\n", name.c_str(),
                 want.c_str(), text.c_str());
    std::exit(2);
  }

  // Presence test for the valueless --selfcheck.
  bool Has(const std::string& name) const {
    VAQ_CHECK(Knows(name)) << "--" << name << " is not a declared flag";
    return flags.count(name) != 0;
  }

  // For a subcommand with two modes: exits 2 naming the first of `names`
  // given, flags the chosen mode (`mode`) does not read.
  void RejectUnread(std::initializer_list<const char*> names,
                    const char* mode) const {
    for (const char* name : names) {
      if (flags.count(name) == 0) continue;
      std::fprintf(stderr, "vaqctl %s: --%s is not read %s\n",
                   positional[0].c_str(), name, mode);
      std::exit(2);
    }
  }
};

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    const size_t comma = s.find(',', start);
    const std::string piece = s.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!piece.empty()) out.push_back(piece);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

// Scenario parsing and the seeded demo pipeline live in
// tools/pipeline_setup.h so `vaqctl metrics`, `vaqctl serve` and
// bench_serve cannot drift apart. A --scenario it rejects is a usage
// error, like a malformed number: it names the flag and exits 2.
StatusOr<synth::Scenario> ScenarioFlag(const std::string& spec,
                                       uint64_t seed) {
  StatusOr<synth::Scenario> scenario = tools::ScenarioFromFlag(spec, seed);
  if (!scenario.ok()) {
    std::fprintf(stderr, "vaqctl: --scenario '%s': %s\n", spec.c_str(),
                 scenario.status().ToString().c_str());
  }
  return scenario;
}

int CmdIngest(const Args& args) {
  const std::string catalog_dir = args.Get("catalog");
  const std::string name = args.Get("name");
  const std::string spec = args.Get("scenario");
  if (catalog_dir.empty() || name.empty() || spec.empty()) {
    std::fprintf(stderr,
                 "ingest requires --catalog, --name and --scenario\n");
    return 2;
  }
  const uint64_t seed = args.Number<uint64_t>("seed", 7);
  auto scenario = ScenarioFlag(spec, seed);
  if (!scenario.ok()) return 2;
  const std::string models = args.Get("models", "maskrcnn");
  detect::ModelBundle bundle =
      models == "yolo" ? detect::ModelBundle::YoloI3d(scenario->truth(), seed)
      : models == "ideal"
          ? detect::ModelBundle::Ideal(scenario->truth(), seed)
          : detect::ModelBundle::MaskRcnnI3d(scenario->truth(), seed);

  offline::PaperScoring scoring;
  offline::Ingestor ingestor(&scenario->vocab(), &scoring,
                             offline::IngestOptions{});
  std::printf("ingesting '%s' (%lld clips) with %s models...\n",
              scenario->name().c_str(),
              static_cast<long long>(scenario->layout().NumClips()),
              models.c_str());
  auto index_or = ingestor.Ingest(scenario->truth(), bundle);
  if (!index_or.ok()) {
    std::fprintf(stderr, "%s\n", index_or.status().ToString().c_str());
    return 1;
  }
  const storage::VideoIndex index = std::move(index_or).value();
  const storage::Catalog catalog(catalog_dir);
  const Status status = catalog.Save(name, index);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("saved %zu object + %zu action tables as '%s' in %s\n",
              index.objects.size(), index.actions.size(), name.c_str(),
              catalog_dir.c_str());
  return 0;
}

int CmdLs(const Args& args) {
  const std::string catalog_dir = args.Get("catalog");
  if (catalog_dir.empty()) {
    std::fprintf(stderr, "ls requires --catalog\n");
    return 2;
  }
  const storage::Catalog catalog(catalog_dir);
  const std::vector<std::string> names = catalog.ListVideos();
  if (names.empty()) {
    std::printf("(no ingested videos in %s)\n", catalog_dir.c_str());
    return 0;
  }
  for (const std::string& name : names) {
    auto index = catalog.Load(name);
    if (!index.ok()) {
      std::printf("%-20s  <unreadable: %s>\n", name.c_str(),
                  index.status().ToString().c_str());
      continue;
    }
    std::printf("%-20s  %6lld clips  objects:", name.c_str(),
                static_cast<long long>(index->num_clips));
    for (const auto& t : index->objects) std::printf(" %s", t.type_name.c_str());
    std::printf("  actions:");
    for (const auto& t : index->actions) std::printf(" %s", t.type_name.c_str());
    std::printf("\n");
  }
  return 0;
}

int CmdRm(const Args& args) {
  const std::string catalog_dir = args.Get("catalog");
  const std::string name = args.Get("name");
  if (catalog_dir.empty() || name.empty()) {
    std::fprintf(stderr, "rm requires --catalog and --name\n");
    return 2;
  }
  const storage::Catalog catalog(catalog_dir);
  const Status status = catalog.Delete(name);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("deleted '%s'\n", name.c_str());
  return 0;
}

int CmdTopK(const Args& args) {
  const std::string catalog_dir = args.Get("catalog");
  const std::string action = args.Get("action");
  if (catalog_dir.empty() || (action.empty() && args.Get("objects").empty())) {
    std::fprintf(stderr,
                 "topk requires --catalog and --action and/or --objects\n");
    return 2;
  }
  offline::Repository repository;
  const storage::Catalog catalog(catalog_dir);
  const Status load = repository.AddFromCatalog(catalog);
  if (!load.ok()) {
    std::fprintf(stderr, "%s\n", load.ToString().c_str());
    return 1;
  }
  offline::PaperScoring scoring;
  offline::RvaqOptions options;
  options.k = args.Number<int64_t>("k", 5);
  auto result = repository.TopK(action, SplitCommas(args.Get("objects")),
                                scoring, options);
  if (result.ok() && result->videos_queried == 0 &&
      result->videos_skipped > 0) {
    // Every video lacks a queried type: a misspelled or never-ingested
    // type, not an empty answer.
    result = Status::NotFound(
        "no video ingested every queried type (" +
        std::to_string(result->videos_skipped) + " of " +
        std::to_string(repository.num_videos()) + " videos skipped)");
  }
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("queried %lld videos (%lld without the types), %lld candidate "
              "sequences\n",
              static_cast<long long>(result->videos_queried),
              static_cast<long long>(result->videos_skipped),
              static_cast<long long>(result->candidate_sequences));
  for (size_t i = 0; i < result->top.size(); ++i) {
    const auto& entry = result->top[i];
    std::printf("#%zu  %-16s clips [%lld, %lld]  score %.1f\n", i + 1,
                entry.video.c_str(),
                static_cast<long long>(entry.sequence.clips.lo),
                static_cast<long long>(entry.sequence.clips.hi),
                entry.sequence.exact_score);
  }
  std::printf("accesses: %s\n", result->accesses.ToString().c_str());
  return 0;
}

int CmdSql(const Args& args) {
  const std::string catalog_dir = args.Get("catalog");
  if (catalog_dir.empty() || args.positional.size() < 2) {
    std::fprintf(stderr, "sql requires --catalog and a statement\n");
    return 2;
  }
  query::Session session;
  const storage::Catalog catalog(catalog_dir);
  for (const std::string& name : catalog.ListVideos()) {
    auto index = catalog.Load(name);
    if (index.ok()) session.RegisterRepository(name, std::move(*index));
  }
  auto result = session.Execute(args.positional[1]);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  // EXPLAIN ANALYZE renders the per-phase profile tree before the rows.
  if (!result->profile_text.empty()) {
    std::fputs(result->profile_text.c_str(), stdout);
  }
  for (size_t i = 0; i < result->ranked.size(); ++i) {
    std::printf("#%zu  clips [%lld, %lld]  score %.1f\n", i + 1,
                static_cast<long long>(result->ranked[i].clips.lo),
                static_cast<long long>(result->ranked[i].clips.hi),
                result->ranked[i].exact_score);
  }
  std::printf("accesses: %s\n", result->accesses.ToString().c_str());
  return 0;
}

int CmdMetrics(const Args& args) {
  const uint64_t seed = args.Number<uint64_t>("seed", 7);
  const std::string format = args.Get("format", "both");
  if (format != "prom" && format != "json" && format != "both") {
    std::fprintf(stderr, "--format must be prom, json or both\n");
    return 2;
  }

  // Determinism: scope the snapshot to this run; the export leaves out
  // the wall families.
  obs::MetricRegistry::Global().Reset();

  const std::string spec = args.Get("scenario");
  StatusOr<synth::Scenario> made =
      spec.empty() ? tools::DemoScenario(0) : ScenarioFlag(spec, seed);
  if (!made.ok()) return 2;
  synth::Scenario scenario = std::move(made).value();

  // Phase 1: the online engine over a faulty stream. The rates are high
  // enough that timeouts, outages, garbage scores, retries, breaker trips
  // and gap-policy fallbacks all occur within the demo's ~108 clips.
  const fault::FaultPlan plan(tools::DemoFaultSpec(), seed);
  const online::SvaqdOptions svaqd_options = tools::DemoSvaqdOptions(&plan);
  detect::ModelBundle models =
      detect::ModelBundle::MaskRcnnI3d(scenario.truth(), seed);
  const online::OnlineResult online_result =
      online::Svaqd(scenario.query(), scenario.layout(), svaqd_options)
          .Run(models.detector.get(), models.recognizer.get());

  // Phase 2: offline ingest + RVAQ top-K over the same scenario.
  offline::PaperScoring scoring;
  offline::Ingestor ingestor(&scenario.vocab(), &scoring,
                             offline::IngestOptions{});
  auto index_or = ingestor.Ingest(scenario.truth(), models);
  if (!index_or.ok()) {
    std::fprintf(stderr, "%s\n", index_or.status().ToString().c_str());
    return 1;
  }
  const std::string action_name =
      scenario.vocab().ActionTypeName(scenario.query().action);
  std::vector<std::string> object_names;
  for (ObjectTypeId type : scenario.query().objects) {
    object_names.push_back(scenario.vocab().ObjectTypeName(type));
  }
  auto tables_or = offline::BindByName(*index_or, action_name, object_names);
  if (!tables_or.ok()) {
    std::fprintf(stderr, "%s\n", tables_or.status().ToString().c_str());
    return 1;
  }
  offline::RvaqOptions rvaq_options;
  rvaq_options.k = 3;
  const offline::TopKResult topk =
      offline::Rvaq(&*tables_or, &scoring, rvaq_options).Run();

  // Export. Both forms are always linted, even when only one is
  // printed: a malformed snapshot must fail loudly.
  const obs::Snapshot snapshot =
      obs::ExcludeSnapshot(obs::MetricRegistry::Global().TakeSnapshot(), {});
  const std::string json = obs::ExportJson(snapshot);
  const std::string lint = obs::JsonLintError(json);
  if (!lint.empty()) {
    std::fprintf(stderr, "metrics JSON failed selfcheck: %s\n", lint.c_str());
    return 1;
  }
  const std::string prom = obs::ExportPrometheus(snapshot);
  const std::string prom_lint = obs::PromLintError(prom);
  if (!prom_lint.empty()) {
    std::fprintf(stderr, "metrics Prometheus text failed selfcheck: %s\n",
                 prom_lint.c_str());
    return 1;
  }
  if (args.Has("selfcheck")) {
    // --selfcheck: run the full pipeline and lint both export formats,
    // but print only the verdict. Exit status is the contract for CI.
    std::printf("selfcheck passed: %zu metric families, "
                "%zu Prometheus line(s), %zu JSON byte(s)\n",
                snapshot.entries.size(),
                static_cast<size_t>(
                    std::count(prom.begin(), prom.end(), '\n')),
                json.size());
    return 0;
  }
  if (format == "prom" || format == "both") {
    std::fputs(prom.c_str(), stdout);
  }
  if (format == "json" || format == "both") {
    std::printf("%s\n", json.c_str());
  }
  std::fprintf(stderr,
               "# clips=%lld degraded=%lld dropped=%lld topk=%zu "
               "accesses=%s\n",
               static_cast<long long>(online_result.clips_processed),
               static_cast<long long>(online_result.degraded_clips),
               static_cast<long long>(online_result.dropped_clips),
               topk.top.size(), topk.accesses.ToString().c_str());
  return 0;
}

// --- Durable standing-query serving (vaqctl serve --checkpoint-dir /
// vaqctl recover). The session config lives in the store next to the
// snapshots and WAL segments, so recovery needs nothing but the
// directory. The recovery driver only interprets snap-*/wal-* entries;
// "config" is invisible to it.

constexpr char kConfigEntry[] = "config";
constexpr uint32_t kConfigTag = 1;

Status WriteServeConfig(ckpt::Store* store,
                        const tools::StandingDemoSpec& spec) {
  ckpt::Payload payload;
  payload.PutI64(spec.num_streams);
  payload.PutI64(spec.num_queries);
  payload.PutU64(spec.seed);
  payload.PutBool(spec.share_detection_cache);
  payload.PutI64(spec.snapshot_every_clips);
  ckpt::Serializer serializer;
  serializer.Append(kConfigTag, payload);
  return store->Put(kConfigEntry, serializer.blob());
}

StatusOr<tools::StandingDemoSpec> ReadServeConfig(const ckpt::Store& store) {
  VAQ_ASSIGN_OR_RETURN(const std::string blob, store.Get(kConfigEntry));
  VAQ_ASSIGN_OR_RETURN(const std::vector<ckpt::Record> records,
                       ckpt::ParseBlob(blob));
  for (const ckpt::Record& record : records) {
    if (record.tag != kConfigTag) continue;
    // Bytes past the last field are ignored, so a record that still
    // carries the retired ms snapshot trigger (a trailing F64) reads too.
    ckpt::PayloadReader in(record.payload);
    tools::StandingDemoSpec spec;
    int64_t streams = 0, queries = 0;
    VAQ_RETURN_IF_ERROR(in.GetI64(&streams));
    VAQ_RETURN_IF_ERROR(in.GetI64(&queries));
    VAQ_RETURN_IF_ERROR(in.GetU64(&spec.seed));
    VAQ_RETURN_IF_ERROR(in.GetBool(&spec.share_detection_cache));
    VAQ_RETURN_IF_ERROR(in.GetI64(&spec.snapshot_every_clips));
    spec.num_streams = static_cast<int>(streams);
    spec.num_queries = static_cast<int>(queries);
    return spec;
  }
  return Status::Corruption("config entry has no config record");
}

// Finish the standing session and print results / stats / metrics; the
// tail shared by a completed durable serve and a recovery.
int FinishDurableSession(serve::Server* server, const std::string& format) {
  const std::vector<serve::ServedQuery> results = server->FinishStanding();
  if (format == "text" || format == "both") {
    for (const serve::ServedQuery& q : results) {
      std::printf("%s\n", serve::DescribeServedQuery(q).c_str());
    }
    std::printf("stats: %s\n", server->stats().ToString().c_str());
  }
  if (format == "prom" || format == "both") {
    std::vector<std::string> prefixes = serve::LogicalMetricPrefixes();
    prefixes.push_back("vaq_ckpt_");
    const obs::Snapshot snapshot = obs::FilterSnapshot(
        obs::MetricRegistry::Global().TakeSnapshot(), prefixes);
    std::fputs(obs::ExportPrometheus(snapshot).c_str(), stdout);
  }
  return 0;
}

int CmdServeDurable(const Args& args) {
  const std::string dir = args.Get("checkpoint-dir");
  const std::string cache = args.Get("cache", "on");
  const std::string format = args.Get("format", "text");
  const int64_t crash_after = args.Number<int64_t>("crash-after", -1);
  if (format != "text" && format != "prom" && format != "both") {
    std::fprintf(stderr, "--format must be text, prom or both\n");
    return 2;
  }
  tools::StandingDemoSpec spec;
  spec.num_streams = args.Number<int>("streams", 2);
  spec.num_queries = args.Number<int>("queries", 4);
  spec.seed = args.Number<uint64_t>("seed", 7);
  spec.share_detection_cache = cache == "on";
  spec.snapshot_every_clips = args.Number<int64_t>(
      "snapshot-every", serve::kDefaultSnapshotEveryClips);
  if (spec.num_streams < 1 || spec.num_queries < 1 ||
      spec.snapshot_every_clips < 1) {
    std::fprintf(stderr,
                 "--streams/--queries/--snapshot-every must be >= 1\n");
    return 2;
  }

  obs::MetricRegistry::Global().Reset();

  const fault::FaultPlan plan(tools::DemoFaultSpec(), spec.seed);
  spec.fault_plan = &plan;
  ckpt::DirStore store(dir);
  spec.checkpoint_store = &store;
  Status status = WriteServeConfig(&store, spec);
  auto server = tools::MakeStandingDemoServer(spec);
  if (status.ok()) status = server.status();
  if (status.ok()) {
    status = tools::AdmitStandingDemoWorkload(server.value().get(), spec);
  }
  const int64_t total = tools::StandingDemoMaxAdvances(spec);
  const int64_t target =
      crash_after >= 0 ? std::min(crash_after, total) : total;
  if (status.ok()) {
    status = tools::DriveStandingDemo(server.value().get(), spec, target);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("durable serve: %d stream(s), %d standing quer%s, "
              "snapshot every %lld clips, checkpoints in %s\n",
              spec.num_streams, spec.num_queries,
              spec.num_queries == 1 ? "y" : "ies",
              static_cast<long long>(spec.snapshot_every_clips),
              store.dir().c_str());
  if (target < total) {
    // Staged crash: abandon the session mid-stream. Everything durable is
    // already in the store; `vaqctl recover` picks it up from here.
    std::printf("crashed after %lld of %lld clip advances; resume with:\n"
                "  vaqctl recover --checkpoint-dir %s\n",
                static_cast<long long>(target),
                static_cast<long long>(total), store.dir().c_str());
    return 0;
  }
  return FinishDurableSession(server.value().get(), format);
}

int CmdRecover(const Args& args) {
  const std::string dir = args.Get("checkpoint-dir");
  const std::string format = args.Get("format", "text");
  if (dir.empty()) {
    std::fprintf(stderr, "vaqctl recover requires --checkpoint-dir\n");
    return 2;
  }
  if (format != "text" && format != "prom" && format != "both") {
    std::fprintf(stderr, "--format must be text, prom or both\n");
    return 2;
  }

  obs::MetricRegistry::Global().Reset();

  ckpt::DirStore store(dir);
  auto config = ReadServeConfig(store);
  if (!config.ok()) {
    std::fprintf(stderr, "no recoverable session in %s: %s\n", dir.c_str(),
                 config.status().ToString().c_str());
    return 1;
  }
  tools::StandingDemoSpec spec = config.value();
  const fault::FaultPlan plan(tools::DemoFaultSpec(), spec.seed);
  spec.fault_plan = &plan;
  spec.checkpoint_store = &store;

  auto server = tools::MakeStandingDemoServer(spec);
  Status status = server.status();
  ckpt::RecoveryReport report;
  if (status.ok()) {
    auto recovered = server.value()->Recover();
    status = recovered.status();
    if (status.ok()) report = recovered.value();
  }
  const int64_t total = tools::StandingDemoMaxAdvances(spec);
  int64_t resumed_from = 0;
  if (status.ok()) {
    resumed_from = tools::StandingDemoAdvancesDone(*server.value(), spec);
    status = tools::DriveStandingDemo(server.value().get(), spec, total);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("recovered from %s: %lld WAL record(s) replayed, "
              "%lld snapshot(s) rejected, %lld WAL byte(s) dropped\n",
              report.snapshot.empty() ? "cold start"
                                      : report.snapshot.c_str(),
              static_cast<long long>(report.wal_records),
              static_cast<long long>(report.snapshots_rejected),
              static_cast<long long>(report.wal_bytes_dropped));
  std::printf("resumed at clip advance %lld of %lld\n",
              static_cast<long long>(resumed_from),
              static_cast<long long>(total));
  return FinishDurableSession(server.value().get(), format);
}

int CmdServe(const Args& args) {
  if (!args.Get("checkpoint-dir").empty()) {
    args.RejectUnread({"threads", "capacity"}, "with --checkpoint-dir");
    return CmdServeDurable(args);
  }
  args.RejectUnread({"crash-after", "snapshot-every"},
                    "without --checkpoint-dir");
  const uint64_t seed = args.Number<uint64_t>("seed", 7);
  const int threads = args.Number<int>("threads", 4);
  const int queries = args.Number<int>("queries", 24);
  const int streams = args.Number<int>("streams", 4);
  const int capacity = args.Number<int>("capacity", queries);
  const std::string cache = args.Get("cache", "on");
  const std::string format = args.Get("format", "text");
  if (cache != "on" && cache != "off") {
    std::fprintf(stderr, "--cache must be on or off\n");
    return 2;
  }
  if (format != "text" && format != "prom" && format != "both") {
    std::fprintf(stderr, "--format must be text, prom or both\n");
    return 2;
  }
  if (queries < 1 || streams < 1 || threads < 0) {
    std::fprintf(stderr, "--queries/--streams must be >= 1, --threads >= 0\n");
    return 2;
  }

  // Same determinism regime as `vaqctl metrics`: scope the registry to
  // this run.
  obs::MetricRegistry::Global().Reset();

  const fault::FaultPlan plan(tools::DemoFaultSpec(), seed);
  serve::ServeOptions options;
  options.threads = threads;
  options.queue_capacity = capacity;
  options.share_detection_cache = cache == "on";
  options.fault_plan = &plan;
  serve::Server server(options);
  const Status registered =
      tools::RegisterDemoSources(&server, streams, /*with_repository=*/true,
                                 seed);
  if (!registered.ok()) {
    std::fprintf(stderr, "%s\n", registered.ToString().c_str());
    return 1;
  }

  int rejected = 0;
  for (const std::string& sql :
       tools::DemoWorkload(streams, queries, /*with_repository=*/true)) {
    if (!server.Submit(sql).ok()) ++rejected;
  }
  const std::vector<serve::ServedQuery> results = server.Drain();

  if (format == "text" || format == "both") {
    std::printf("submitted %d queries (%d rejected) over %d streams + "
                "repository '%s', %d worker thread(s), cache %s\n",
                queries, rejected, streams, tools::kDemoRepositoryName,
                threads, cache.c_str());
    for (const serve::ServedQuery& q : results) {
      std::printf("%s\n", serve::DescribeServedQuery(q).c_str());
    }
    std::printf("stats: %s\n", server.stats().ToString().c_str());
    const double ms_1 = serve::ModeledMakespanMs(results, 1);
    const double ms_n =
        serve::ModeledMakespanMs(results, threads > 0 ? threads : 1);
    std::printf("modeled makespan: %.1f ms @1 thread, %.1f ms @%d threads "
                "(speedup %.2fx)\n",
                ms_1, ms_n, threads > 0 ? threads : 1,
                ms_n > 0 ? ms_1 / ms_n : 1.0);
  }
  if (format == "prom" || format == "both") {
    const obs::Snapshot snapshot = obs::FilterSnapshot(
        obs::MetricRegistry::Global().TakeSnapshot(),
        serve::LogicalMetricPrefixes());
    std::fputs(obs::ExportPrometheus(snapshot).c_str(), stdout);
  }
  return 0;
}

// vaqctl trace: the same seeded serve demo as `vaqctl serve`, but with
// per-query tracing armed. Prints every query's profile tree and dumps
// all spans (session trace + per-query traces, admission order) as
// Chrome trace-event JSON — load the file in chrome://tracing or
// Perfetto. The JSON is a pure function of (--seed, --queries,
// --streams): timestamps come from modeled milliseconds, not wall
// time, so --threads only changes real duration, never the bytes.
int CmdTrace(const Args& args) {
  const uint64_t seed = args.Number<uint64_t>("seed", 7);
  const int threads = args.Number<int>("threads", 4);
  const int queries = args.Number<int>("queries", 24);
  const int streams = args.Number<int>("streams", 4);
  const std::string out_path = args.Get("out");
  if (queries < 1 || streams < 1 || threads < 0) {
    std::fprintf(stderr, "--queries/--streams must be >= 1, --threads >= 0\n");
    return 2;
  }

  obs::MetricRegistry::Global().Reset();

  const fault::FaultPlan plan(tools::DemoFaultSpec(), seed);
  serve::ServeOptions options;
  options.threads = threads;
  options.queue_capacity = queries;
  options.share_detection_cache = true;
  options.fault_plan = &plan;
  options.trace_queries = true;
  serve::Server server(options);
  const Status registered =
      tools::RegisterDemoSources(&server, streams, /*with_repository=*/true,
                                 seed);
  if (!registered.ok()) {
    std::fprintf(stderr, "%s\n", registered.ToString().c_str());
    return 1;
  }
  for (const std::string& sql :
       tools::DemoWorkload(streams, queries, /*with_repository=*/true)) {
    (void)server.Submit(sql);
  }
  std::vector<serve::ServedQuery> results = server.Drain();

  std::sort(results.begin(), results.end(),
            [](const serve::ServedQuery& a, const serve::ServedQuery& b) {
              return a.id < b.id;
            });
  std::vector<const obs::QueryTrace*> traces;
  if (server.session_trace() != nullptr) {
    traces.push_back(server.session_trace());
  }
  for (const serve::ServedQuery& q : results) {
    if (q.trace != nullptr) traces.push_back(q.trace.get());
  }

  const std::string json = obs::ExportChromeTrace(traces);
  const std::string lint = obs::JsonLintError(json);
  if (!lint.empty()) {
    std::fprintf(stderr, "trace JSON failed selfcheck: %s\n", lint.c_str());
    return 1;
  }

  for (const serve::ServedQuery& q : results) {
    if (q.trace != nullptr) std::fputs(q.trace->RenderProfile().c_str(), stdout);
  }
  if (out_path.empty()) {
    std::printf("%s\n", json.c_str());
  } else {
    std::FILE* out = std::fopen(out_path.c_str(), "wb");
    if (out == nullptr) {
      std::fprintf(stderr, "trace: cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
    std::printf("chrome trace written to %s (%zu byte(s), %zu trace(s))\n",
                out_path.c_str(), json.size(), traces.size());
  }
  return 0;
}

// vaqctl cluster: scatter–gather ranked retrieval over an in-process
// sharded cluster, checked against the single-node reference.
int CmdCluster(const Args& args) {
  const int nodes = args.Number<int>("nodes", 4);
  const int replicas = args.Number<int>("replicas", 1);
  const int videos = args.Number<int>("videos", 8);
  const int batch = args.Number<int>("batch", 4);
  const int kill_host = args.Number<int>("kill-node", -1);
  const double kill_at = args.Number<double>("kill-at", 0.0);
  const int64_t k = args.Number<int64_t>("k", 5);
  const uint64_t seed = args.Number<uint64_t>("seed", 7);
  const std::string action = args.Get("action", "running");
  const std::vector<std::string> objects =
      SplitCommas(args.Get("objects", "dog"));
  if (nodes <= 0 || videos <= 0 || batch <= 0 || k <= 0 || replicas < 0) {
    std::fprintf(stderr,
                 "cluster requires positive --nodes/--videos/--batch/--k "
                 "and --replicas >= 0\n");
    return 2;
  }
  // Hosts are the primaries [0, N), then R replicas of each.
  const int64_t hosts = int64_t{nodes} * (1 + int64_t{replicas});
  if (kill_host < -1 || kill_host >= hosts) {
    std::fprintf(stderr,
                 "cluster: --kill-node must be a host id in [0, %lld), or "
                 "-1 for no kill\n",
                 static_cast<long long>(hosts));
    return 2;
  }
  if (kill_at < 0.0) {
    std::fprintf(stderr, "cluster: --kill-at must be >= 0\n");
    return 2;
  }
  // A staged kill is one kNode window, down from --kill-at onward. Its
  // plan has seed 0: the network seeds its jitter from the plan, and a
  // run without a plan jitters with seed 0.
  fault::FaultSpec kill;
  if (kill_host >= 0) {
    kill.windows.push_back({fault::FaultDomain::kNode, kill_host, kill_at,
                            std::numeric_limits<double>::max()});
  }
  const auto kill_plan = fault::FaultPlan::Create(std::move(kill), 0);
  VAQ_CHECK_OK(kill_plan.status());  // The window's bounds are checked above.
  auto scheme = cluster::ParsePartitionScheme(args.Get("scheme", "hash"));
  if (!scheme.ok()) {
    std::fprintf(stderr, "%s\n", scheme.status().ToString().c_str());
    return 2;
  }

  obs::MetricRegistry::Global().Reset();
  offline::PaperScoring scoring;
  offline::Repository repository;
  for (int i = 0; i < videos; ++i) {
    synth::Scenario scenario = tools::DemoScenario(i);
    detect::ModelBundle models = detect::ModelBundle::MaskRcnnI3d(
        scenario.truth(), seed + static_cast<uint64_t>(i));
    offline::Ingestor ingestor(&scenario.vocab(), &scoring,
                               offline::IngestOptions{});
    auto index = ingestor.Ingest(scenario.truth(), models);
    if (!index.ok()) {
      std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
      return 1;
    }
    repository.Add("vid" + std::to_string(i), std::move(index.value()));
  }

  offline::RvaqOptions rvaq;
  rvaq.k = k;
  auto single = repository.TopK(action, objects, scoring, rvaq);
  if (!single.ok()) {
    std::fprintf(stderr, "%s\n", single.status().ToString().c_str());
    return 1;
  }

  cluster::ClusterOptions options;
  options.num_shards = nodes;
  options.num_replicas = replicas;
  options.scheme = scheme.value();
  options.batch_size = batch;
  options.fault_plan = kill_host >= 0 ? &kill_plan.value() : nullptr;
  cluster::Coordinator coordinator(&repository, options);
  auto clustered = coordinator.TopK(action, objects, scoring, rvaq);
  if (!clustered.ok()) {
    std::fprintf(stderr, "%s\n", clustered.status().ToString().c_str());
    return 1;
  }

  std::printf("cluster: %d shard(s) x %d replica(s), %s partitioning, "
              "%d video(s)\n",
              nodes, replicas, cluster::PartitionSchemeName(scheme.value()),
              videos);
  for (const offline::RepositoryRankedSequence& entry :
       clustered.value().merged.top) {
    std::printf("  %s %s score=%.4f\n", entry.video.c_str(),
                entry.sequence.clips.ToString().c_str(),
                offline::RankedMergeScore(entry.sequence));
  }
  bool identical = single.value().top.size() ==
                   clustered.value().merged.top.size();
  for (size_t i = 0; identical && i < single.value().top.size(); ++i) {
    identical = single.value().top[i].video ==
                    clustered.value().merged.top[i].video &&
                single.value().top[i].sequence.clips ==
                    clustered.value().merged.top[i].sequence.clips;
  }
  const cluster::ClusterTopKResult& r = clustered.value();
  std::printf("identical to single-node RVAQ: %s\n",
              identical ? "yes" : "NO");
  std::printf("modeled: single-node %.1f ms, cluster answer %.1f ms "
              "(speedup %.2fx, slowest shard %.1f ms)\n",
              r.single_node_ms, r.answer_ms,
              r.answer_ms > 0 ? r.single_node_ms / r.answer_ms : 1.0,
              r.max_shard_ms);
  std::printf("gather: %lld batch(es) consumed, %lld pruned by the bound; "
              "%lld/%lld entrie(s) consumed\n",
              static_cast<long long>(r.batches_consumed),
              static_cast<long long>(r.batches_pruned),
              static_cast<long long>(r.entries_consumed),
              static_cast<long long>(r.entries_total));
  std::printf("net: %lld message(s), %lld byte(s), %lld drop(s), "
              "%lld duplicate(s); failovers %lld\n",
              static_cast<long long>(r.net.messages),
              static_cast<long long>(r.net.bytes),
              static_cast<long long>(r.net.drops),
              static_cast<long long>(r.net.duplicates_suppressed),
              static_cast<long long>(r.failovers));
  return identical ? 0 : 1;
}

void ChaosProgress(const chaos::TrialResult& r) {
  if (r.failed()) {
    std::printf("trial %lld [%s]: FAIL (%zu violation(s))\n",
                static_cast<long long>(r.trial), chaos::PhaseName(r.phase),
                r.violations.size());
  } else if (r.trial % 10 == 9) {
    std::printf("trial %lld [%s]: ok\n", static_cast<long long>(r.trial),
                chaos::PhaseName(r.phase));
  }
  std::fflush(stdout);
}

int CmdChaos(const Args& args) {
  chaos::ChaosOptions options;
  options.trials = args.Number<int64_t>("trials", 20);
  options.seed = args.Number<uint64_t>("seed", 1);
  options.canary = args.Get("canary", "off") == "on";
  options.shrink = args.Get("shrink", "on") != "off";
  options.progress = &ChaosProgress;
  const std::string replay_path = args.Get("replay");
  const std::string out_path = args.Get("out", "chaos_repro.json");
  if (!replay_path.empty()) {
    // A replay runs the trial the file describes, canary included.
    args.RejectUnread({"trials", "seed", "canary", "shrink"}, "with --replay");
  }
  if (options.trials <= 0 && replay_path.empty()) {
    std::fprintf(stderr, "chaos requires positive --trials\n");
    return 2;
  }

  StatusOr<chaos::ChaosReport> report = Status::Internal("unreachable");
  if (!replay_path.empty()) {
    std::FILE* f = std::fopen(replay_path.c_str(), "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "chaos: cannot open %s\n", replay_path.c_str());
      return 2;
    }
    std::string json;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) json.append(buf, n);
    std::fclose(f);
    auto spec = chaos::ReplayFromJson(json);
    if (!spec.ok()) {
      std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
      return 2;
    }
    std::printf("replaying trial %lld of seed %llu (%zu event(s))\n",
                static_cast<long long>(spec.value().trial),
                static_cast<unsigned long long>(spec.value().seed),
                spec.value().events.size());
    report = chaos::RunReplay(spec.value(), options);
  } else {
    std::printf("chaos sweep: %lld trial(s), seed %llu%s\n",
                static_cast<long long>(options.trials),
                static_cast<unsigned long long>(options.seed),
                options.canary ? ", canary armed" : "");
    report = chaos::RunChaos(options);
  }
  if (!report.ok()) {
    std::fprintf(stderr, "chaos harness error: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  const chaos::ChaosReport& r = report.value();
  std::printf("ran %lld trial(s):", static_cast<long long>(r.trials_run));
  for (const auto& [phase, count] : r.trials_per_phase) {
    std::printf(" %s=%lld", phase.c_str(), static_cast<long long>(count));
  }
  std::printf("\ncoverage:\n");
  for (const auto& [key, count] : r.coverage) {
    std::printf("  %-32s %lld\n", key.c_str(), static_cast<long long>(count));
  }
  if (!r.failed()) {
    std::printf("all oracles held\n");
    return 0;
  }

  std::printf("FAILURE in trial %lld [%s]:\n",
              static_cast<long long>(r.failed_trial),
              chaos::PhaseName(r.failed_phase));
  for (const std::string& v : r.failure) {
    std::printf("  %s\n", v.c_str());
  }
  std::printf("schedule shrunk %lld -> %zu event(s) in %lld run(s); "
              "replay %s\n",
              static_cast<long long>(r.original_events),
              r.reproducer.events.size(),
              static_cast<long long>(r.shrink_runs),
              r.replay_confirmed ? "confirmed byte-identical"
                                 : "NOT confirmed");
  std::FILE* out = std::fopen(out_path.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "chaos: cannot write %s\n", out_path.c_str());
  } else {
    std::fwrite(r.replay_json.data(), 1, r.replay_json.size(), out);
    std::fclose(out);
    std::printf("reproducer written to %s\n", out_path.c_str());
  }
  return 1;
}

// vaqctl cascade: plan and execute a proxy-prefiltered top-k over the
// seeded demo corpus, reporting modeled cost and achieved recall.
int CmdCascade(const Args& args) {
  const double recall = args.Number<double>("recall", 0.9);
  const uint64_t seed = args.Number<uint64_t>("seed", 7);
  const int videos = args.Number<int>("videos", 4);
  const int64_t k = args.Number<int64_t>("k", 5);
  if (!(recall > 0.0) || recall > 1.0 || videos <= 0 || k <= 0) {
    std::fprintf(
        stderr,
        "cascade requires --recall in (0, 1] and positive --videos/--k\n");
    return 2;
  }

  obs::MetricRegistry::Global().Reset();
  const StatusOr<tools::CascadeDemo> demo =
      tools::MakeCascadeDemo(videos, seed);
  if (!demo.ok()) {
    std::fprintf(stderr, "%s\n", demo.status().ToString().c_str());
    return 1;
  }
  const StatusOr<tools::CascadeFrontierPoint> point =
      tools::RunCascadeFrontierPoint(demo.value(), recall, k);
  if (!point.ok()) {
    std::fprintf(stderr, "%s\n", point.status().ToString().c_str());
    return 1;
  }

  const tools::CascadeFrontierPoint& p = point.value();
  std::printf("corpus: %d demo video(s), %lld clip(s), seed %llu\n", videos,
              static_cast<long long>(p.clips_total),
              static_cast<unsigned long long>(seed));
  std::printf("plan: %s\n", p.plan_text.c_str());
  std::printf("modeled cost: %.6g ms exact -> %.6g ms planned "
              "(%.3gx reduction)\n",
              p.full_cost_ms, p.cascade_cost_ms, p.cost_reduction);
  std::printf("clips surviving: %lld/%lld  videos pruned: %lld  "
              "candidates pruned: %lld\n",
              static_cast<long long>(p.clips_surviving),
              static_cast<long long>(p.clips_total),
              static_cast<long long>(p.videos_pruned),
              static_cast<long long>(p.candidates_pruned));
  std::printf("recall: target %.6g, predicted %.6g, achieved %.6g "
              "(top-%lld)\n",
              p.recall_target, p.predicted_recall, p.achieved_recall,
              static_cast<long long>(k));
  return 0;
}

// vaqctl bai: confidence-driven adaptive sampling (WITH CONFIDENCE) over
// the seeded demo corpus — identify the top-k by best-arm identification
// at --delta, re-rank the survivors exactly, and report the
// model-invocation savings and certificate versus the exact run.
int CmdBai(const Args& args) {
  const double delta = args.Number<double>("delta", 0.05);
  const uint64_t seed = args.Number<uint64_t>("seed", 7);
  const int videos = args.Number<int>("videos", 4);
  const int64_t k = args.Number<int64_t>("k", 5);
  if (!(delta > 0.0) || delta > 1.0 || videos <= 0 || k <= 0) {
    std::fprintf(stderr,
                 "bai requires --delta in (0, 1] and positive --videos/--k\n");
    return 2;
  }

  obs::MetricRegistry::Global().Reset();
  const StatusOr<tools::CascadeDemo> demo = tools::MakeBaiDemo(videos, seed);
  if (!demo.ok()) {
    std::fprintf(stderr, "%s\n", demo.status().ToString().c_str());
    return 1;
  }
  const StatusOr<tools::BaiSweepPoint> point =
      tools::RunBaiSweepPoint(demo.value(), delta, k, bai::kQueryBaseSeed);
  if (!point.ok()) {
    std::fprintf(stderr, "%s\n", point.status().ToString().c_str());
    return 1;
  }

  const tools::BaiSweepPoint& p = point.value();
  std::printf("corpus: %d demo video(s), seed %llu, top-%lld\n", videos,
              static_cast<unsigned long long>(seed),
              static_cast<long long>(k));
  std::printf("certificate: %s\n", p.certificate.c_str());
  std::printf("model invocations: %lld exact -> %lld sampled "
              "(%.3gx savings)\n",
              static_cast<long long>(p.exact_invocations),
              static_cast<long long>(p.sampled_invocations), p.savings_x);
  std::printf("identified top-%lld %s the exact top-%lld\n",
              static_cast<long long>(k), p.top_match ? "matches" : "MISSES",
              static_cast<long long>(k));
  return p.top_match ? 0 : 1;
}

// vaqctl traffic: open-loop multi-tenant front door over the demo preset
// mix — weighted-fair DRR admission, per-tenant quota shed and SLO
// accounting, service costs probed from the serve demo. With --abusive I
// the demo runs twice (tenant I at 10x its rate, and without) and checks
// isolation: every other tenant's p99 within 10% of the no-abuse
// baseline and its serve-path result bytes identical; violations exit 1.
int CmdTraffic(const Args& args) {
  tools::TrafficDemoSpec spec;
  spec.num_tenants = args.Number<int>("tenants", 4);
  spec.duration_min = args.Number<double>("duration-min", 1.0);
  spec.seed = args.Number<uint64_t>("seed", 21);
  spec.num_workers = args.Number<int>("workers", 8);
  spec.base_qps = args.Number<double>("qps", 2.0);
  spec.queue_quota = args.Number<int>("quota", 4);
  spec.slo_ms = args.Number<double>("slo-ms", 250.0);
  const int abusive = args.Number<int>("abusive", -1);
  if (spec.num_tenants <= 0 || spec.duration_min <= 0.0 ||
      spec.num_workers <= 0 || spec.base_qps <= 0.0 ||
      spec.queue_quota <= 0 || abusive >= spec.num_tenants) {
    std::fprintf(stderr,
                 "traffic requires positive --tenants/--duration-min/"
                 "--workers/--qps/--quota and --abusive < --tenants\n");
    return 2;
  }

  obs::MetricRegistry::Global().Reset();
  // Placeholder; replaced below when --abusive is active.
  StatusOr<tools::TrafficDemoResult> baseline_or =
      Status::FailedPrecondition("no baseline run");
  if (abusive >= 0) {
    tools::TrafficDemoSpec base_spec = spec;
    base_spec.abusive_tenant = -1;
    base_spec.record_metrics = false;  // The abusive run owns the registry.
    baseline_or = tools::RunTrafficDemo(base_spec);
    if (!baseline_or.ok()) {
      std::fprintf(stderr, "%s\n", baseline_or.status().ToString().c_str());
      return 1;
    }
  }
  spec.abusive_tenant = abusive;
  const StatusOr<tools::TrafficDemoResult> result_or =
      tools::RunTrafficDemo(spec);
  if (!result_or.ok()) {
    std::fprintf(stderr, "%s\n", result_or.status().ToString().c_str());
    return 1;
  }
  const tools::TrafficDemoResult& r = result_or.value();

  std::printf("preset costs:");
  for (size_t p = 0; p < r.preset_cost_ms.size(); ++p) {
    std::printf(" p%zu=%.3fms", p, r.preset_cost_ms[p]);
  }
  std::printf("\n%s", r.report.ToString().c_str());
  std::printf("serve path: %d tenant(s), quota sheds=%lld%s\n",
              spec.num_tenants, static_cast<long long>(r.tenant_quota_sheds),
              r.truncated ? " (workload truncated at max_arrivals)" : "");

  if (abusive < 0) return 0;
  const tools::TrafficDemoResult& base = baseline_or.value();
  bool ok = true;
  for (int i = 0; i < spec.num_tenants; ++i) {
    if (i == abusive) continue;
    const double base_p99 = base.report.tenants[static_cast<size_t>(i)].p99_ms;
    const double cur_p99 = r.report.tenants[static_cast<size_t>(i)].p99_ms;
    const double tolerance = 0.10 * base_p99 + 1e-9;
    if (std::fabs(cur_p99 - base_p99) > tolerance) {
      std::printf("isolation VIOLATION: tenant t%d p99 %.3fms -> %.3fms "
                  "(>10%% of baseline)\n",
                  i, base_p99, cur_p99);
      ok = false;
    }
    if (r.tenant_results[static_cast<size_t>(i)] !=
        base.tenant_results[static_cast<size_t>(i)]) {
      std::printf("isolation VIOLATION: tenant t%d result bytes changed "
                  "under abuse\n", i);
      ok = false;
    }
  }
  if (!ok) return 1;
  std::printf("isolation: OK (tenant t%d at 10x shed %lld serve-path "
              "submission(s); every other tenant's p99 within 10%% and "
              "result bytes identical)\n",
              abusive, static_cast<long long>(r.tenant_quota_sheds));
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: vaqctl <subcommand> [--flags]\n"
      "\n"
      "subcommands:\n"
      "  ingest   generate a scenario, run the ingestion phase, persist it\n"
      "  ls       list ingested videos with their type inventories\n"
      "  rm       delete an ingested video's file from the catalog\n"
      "  topk     repository-wide ranked retrieval (RVAQ per video)\n"
      "  sql      run an offline statement of the paper's dialect\n"
      "  metrics  seeded end-to-end pipeline, dump the metric snapshot\n"
      "           (--selfcheck lints both export formats, prints verdict)\n"
      "  serve    concurrent serving runtime over demo streams\n"
      "           (--checkpoint-dir for the durable variant)\n"
      "  trace    serve demo with per-query tracing: prints profile\n"
      "           trees, dumps Chrome trace-event JSON (--out FILE)\n"
      "  recover  recover a durable session from its checkpoint dir\n"
      "  cluster  sharded scatter-gather top-k vs the single-node\n"
      "           reference (--nodes N --replicas R [--kill-node I])\n"
      "  cascade  cost-based proxy cascade over the demo corpus\n"
      "           (--recall R --seed S): prints the planned cascade,\n"
      "           modeled cost reduction and achieved recall\n"
      "  bai      confidence-driven adaptive top-k over the demo corpus\n"
      "           (--delta D --k K --seed S): best-arm identification,\n"
      "           exact re-rank of survivors, invocation savings report\n"
      "  traffic  open-loop multi-tenant front door over the demo mix\n"
      "           (--tenants N --duration-min M --seed S [--abusive I]):\n"
      "           weighted-fair admission, quota shed, SLO accounting\n"
      "  chaos    seeded whole-stack chaos sweep with invariant oracles\n"
      "           (--trials N --seed S [--canary on] [--replay FILE]\n"
      "           [--out FILE]); failures shrink to a minimal replay\n"
      "\n"
      "see the header of tools/vaqctl.cc for per-subcommand flags\n");
  return 2;
}

}  // namespace
}  // namespace vaq

int main(int argc, char** argv) {
  if (argc < 2) return vaq::Usage();
  // Each subcommand with every flag it reads.
  struct Subcommand {
    int (*run)(const vaq::Args&);
    std::vector<std::string> flags;
  };
  const std::map<std::string, Subcommand> subcommands = {
      {"ingest",
       {vaq::CmdIngest, {"catalog", "name", "scenario", "models", "seed"}}},
      {"ls", {vaq::CmdLs, {"catalog"}}},
      {"rm", {vaq::CmdRm, {"catalog", "name"}}},
      {"topk", {vaq::CmdTopK, {"catalog", "action", "objects", "k"}}},
      {"sql", {vaq::CmdSql, {"catalog"}}},
      {"metrics",
       {vaq::CmdMetrics, {"seed", "format", "scenario", "selfcheck"}}},
      {"serve",
       {vaq::CmdServe,
        {"checkpoint-dir", "snapshot-every", "crash-after", "threads",
         "queries", "streams", "seed", "cache", "capacity", "format"}}},
      {"trace",
       {vaq::CmdTrace, {"threads", "queries", "streams", "seed", "out"}}},
      {"recover", {vaq::CmdRecover, {"checkpoint-dir", "format"}}},
      {"cluster",
       {vaq::CmdCluster,
        {"nodes", "replicas", "scheme", "videos", "k", "batch", "seed",
         "kill-node", "kill-at", "action", "objects"}}},
      {"cascade", {vaq::CmdCascade, {"recall", "seed", "videos", "k"}}},
      {"bai", {vaq::CmdBai, {"delta", "k", "seed", "videos"}}},
      {"traffic",
       {vaq::CmdTraffic,
        {"tenants", "duration-min", "seed", "workers", "qps", "quota",
         "slo-ms", "abusive"}}},
      {"chaos",
       {vaq::CmdChaos,
        {"trials", "seed", "canary", "replay", "out", "shrink"}}},
  };
  const std::string command = argv[1];
  const auto it = subcommands.find(command);
  if (it == subcommands.end()) {
    std::fprintf(stderr, "vaqctl: unknown subcommand '%s'\n",
                 command.c_str());
    return vaq::Usage();
  }
  return it->second.run(vaq::Args::Parse(argc, argv, it->second.flags));
}
