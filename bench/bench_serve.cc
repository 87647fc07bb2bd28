// Serving-runtime scaling sweep: modeled makespan of the mixed
// multi-query demo workload across worker counts, with the shared
// detection cache on and off.
//
// Throughput is reported on the simulated timeline (ModeledMakespanMs —
// a deterministic list schedule over the per-stream shard chains using
// each query's simulated model/disk cost) rather than wall clock, so the
// sweep is reproducible on any machine, including single-core CI boxes
// where a real 8-thread pool cannot speed anything up. Each
// configuration still *executes* on a real pool of that size; the
// determinism property (tests/serve_determinism_test.cc) is what makes
// the per-query costs comparable across thread counts.
//
// Expectation (ISSUE acceptance criteria): >= 3x throughput at 8 threads
// vs 1 thread, and the shared cache strictly reduces total model
// invocations when several standing queries touch the same stream. Both
// are asserted here; the process exits nonzero if either fails.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <algorithm>

#include "bench/bench_util.h"
#include "fault/fault_plan.h"
#include "obs/query_trace.h"
#include "serve/server.h"
#include "tools/pipeline_setup.h"

namespace vaq {
namespace {

constexpr int kStreams = 8;
constexpr int kQueries = 48;
constexpr uint64_t kSeed = 7;

struct ConfigResult {
  int threads = 0;
  bool cache = false;
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t inferences = 0;
  int64_t bundle_reuses = 0;
  double makespan_ms = 0.0;
  // Modeled per-query answer latency (simulated ms, nearest-rank exact
  // percentiles over all served queries). The sample multiset is a pure
  // function of the workload, so these are identical at every thread
  // count — the sweep's SLO columns, not a scaling metric.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
};

ConfigResult RunConfig(int threads, bool cache,
                       const std::vector<std::string>& workload) {
  const fault::FaultPlan plan(tools::DemoFaultSpec(), kSeed);
  serve::ServeOptions options;
  options.threads = threads;
  options.queue_capacity = kQueries;
  options.share_detection_cache = cache;
  options.fault_plan = &plan;
  serve::Server server(options);
  const Status registered = tools::RegisterDemoSources(
      &server, kStreams, /*with_repository=*/true, kSeed);
  if (!registered.ok()) {
    std::fprintf(stderr, "register failed: %s\n",
                 registered.ToString().c_str());
    std::exit(1);
  }
  for (const std::string& sql : workload) {
    const auto id = server.Submit(sql);
    if (!id.ok()) {
      std::fprintf(stderr, "submit failed: %s\n",
                   id.status().ToString().c_str());
      std::exit(1);
    }
  }
  const std::vector<serve::ServedQuery> results = server.Drain();
  const serve::ServeStats stats = server.stats();
  ConfigResult out;
  out.threads = threads;
  out.cache = cache;
  out.completed = stats.completed;
  out.failed = stats.failed;
  out.inferences =
      stats.detector_stats.inferences + stats.recognizer_stats.inferences;
  out.bundle_reuses = stats.cache_bundle_reuses;
  out.makespan_ms = serve::ModeledMakespanMs(results, threads);
  std::vector<double> latencies;
  latencies.reserve(results.size());
  for (const serve::ServedQuery& q : results) {
    latencies.push_back(q.simulated_ms);
  }
  std::sort(latencies.begin(), latencies.end());
  out.p50_ms = obs::PercentileNearestRank(latencies, 0.5);
  out.p99_ms = obs::PercentileNearestRank(latencies, 0.99);
  out.p999_ms = obs::PercentileNearestRank(latencies, 0.999);
  return out;
}

}  // namespace
}  // namespace vaq

int main() {
  using namespace vaq;
  const std::vector<std::string> workload =
      tools::DemoWorkload(kStreams, kQueries, /*with_repository=*/true);
  const std::vector<int> thread_counts = {1, 2, 4, 8};

  bench::TablePrinter table(
      "Serve — modeled makespan vs worker count, shared cache on/off",
      {"threads", "cache", "completed", "inferences", "bundle_reuses",
       "makespan_ms", "speedup_vs_1", "p50_ms", "p99_ms", "p999_ms"});
  std::vector<ConfigResult> rows;
  for (const bool cache : {true, false}) {
    double base_ms = 0.0;
    for (const int threads : thread_counts) {
      const ConfigResult r = RunConfig(threads, cache, workload);
      if (threads == 1) base_ms = r.makespan_ms;
      table.AddRow({bench::Fmt(static_cast<int64_t>(r.threads)),
                    r.cache ? "on" : "off",
                    bench::Fmt(r.completed),
                    bench::Fmt(r.inferences),
                    bench::Fmt(r.bundle_reuses),
                    bench::Fmt("%.1f", r.makespan_ms),
                    bench::Fmt("%.2f", base_ms / r.makespan_ms),
                    bench::Fmt("%.2f", r.p50_ms),
                    bench::Fmt("%.2f", r.p99_ms),
                    bench::Fmt("%.2f", r.p999_ms)});
      rows.push_back(r);
    }
  }
  table.Print();

  // Acceptance metrics, taken from the cache-on sweep and the 8-thread
  // cache comparison.
  double makespan_1 = 0.0, makespan_8 = 0.0;
  int64_t inferences_on = 0, inferences_off = 0, reuses_on = 0;
  int64_t completed = 0, failed = 0;
  for (const ConfigResult& r : rows) {
    completed += r.completed;
    failed += r.failed;
    if (r.cache && r.threads == 1) makespan_1 = r.makespan_ms;
    if (r.cache && r.threads == 8) {
      makespan_8 = r.makespan_ms;
      inferences_on = r.inferences;
      reuses_on = r.bundle_reuses;
    }
    if (!r.cache && r.threads == 8) inferences_off = r.inferences;
  }
  const double speedup = makespan_8 > 0.0 ? makespan_1 / makespan_8 : 0.0;
  const double reduction =
      inferences_off > 0
          ? 1.0 - static_cast<double>(inferences_on) /
                      static_cast<double>(inferences_off)
          : 0.0;
  const bool speedup_ok = speedup >= 3.0;
  const bool cache_ok = inferences_on < inferences_off && reuses_on > 0;
  const bool all_completed = failed == 0 &&
                             completed == static_cast<int64_t>(rows.size()) *
                                              kQueries;

  std::printf("speedup @8 threads (cache on): %.2fx (require >= 3.00x): %s\n",
              speedup, speedup_ok ? "ok" : "FAIL");
  std::printf("shared cache invocation reduction @8 threads: %.1f%% "
              "(%" PRId64 " -> %" PRId64 "): %s\n",
              reduction * 100.0, inferences_off, inferences_on,
              cache_ok ? "ok" : "FAIL");
  return (speedup_ok && cache_ok && all_completed) ? 0 : 1;
}
