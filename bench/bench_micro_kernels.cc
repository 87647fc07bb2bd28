// Micro-benchmarks (google-benchmark) of the library's hot kernels:
// scan-statistic evaluation, critical-value search, interval algebra,
// score-table access paths and the simulated detector.
//
// After the google-benchmark tables, main() self-times the
// scan-statistic kernel and writes BENCH_micro.json — the first slice
// of the ROADMAP raw-speed item. The recorded ns/op is informational
// (wall clock moves with the machine); the CI-gated fields are
// generous-budget booleans that only flip on an order-of-magnitude
// regression (an accidental algorithmic blowup), never on machine
// speed.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>

#include "bench/bench_util.h"
#include "common/interval.h"
#include "common/rng.h"
#include "detect/models.h"
#include "scanstat/critical_value.h"
#include "scanstat/naus.h"
#include "storage/score_table.h"
#include "synth/generator.h"

namespace vaq {
namespace {

void BM_ScanTailProbability(benchmark::State& state) {
  const int64_t w = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scanstat::ScanStatisticTailProbability(w / 5, 0.02, w, 1000.0));
  }
}
BENCHMARK(BM_ScanTailProbability)->Arg(10)->Arg(50)->Arg(200);

void BM_CriticalValue(benchmark::State& state) {
  scanstat::ScanConfig config;
  config.window = state.range(0);
  config.horizon = 100000;
  config.alpha = 0.01;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scanstat::CriticalValue(0.02, config));
  }
}
BENCHMARK(BM_CriticalValue)->Arg(10)->Arg(100)->Arg(500);

void BM_IntervalSetIntersect(benchmark::State& state) {
  Rng rng(1);
  std::vector<Interval> a;
  std::vector<Interval> b;
  for (int64_t i = 0; i < state.range(0); ++i) {
    const int64_t lo = i * 20 + static_cast<int64_t>(rng.UniformInt(8ul));
    a.push_back(Interval(lo, lo + 6));
    const int64_t lo2 = i * 20 + static_cast<int64_t>(rng.UniformInt(8ul));
    b.push_back(Interval(lo2, lo2 + 9));
  }
  const IntervalSet sa = IntervalSet::FromIntervals(a);
  const IntervalSet sb = IntervalSet::FromIntervals(b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sa.Intersect(sb));
  }
}
BENCHMARK(BM_IntervalSetIntersect)->Arg(100)->Arg(10000);

void BM_ScoreTableAccess(benchmark::State& state) {
  Rng rng(2);
  std::vector<storage::ScoreTable::Row> rows;
  const int64_t n = 100000;
  for (int64_t c = 0; c < n; ++c) {
    rows.push_back({c, rng.UniformDouble(0, 100)});
  }
  const storage::ScoreTable table =
      std::move(storage::ScoreTable::Build(std::move(rows))).value();
  int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.RandomScore(i % n));
    ++i;
  }
}
BENCHMARK(BM_ScoreTableAccess);

void BM_DetectorMaxScore(benchmark::State& state) {
  synth::ScenarioSpec spec;
  spec.minutes = 10;
  spec.seed = 3;
  synth::ActionTrackSpec action;
  action.name = "a";
  spec.actions.push_back(action);
  synth::ObjectTrackSpec obj;
  obj.name = "o";
  obj.background_duty = 0.2;
  spec.objects.push_back(obj);
  static Vocabulary vocab;
  static const synth::GroundTruth truth = synth::Generate(spec, vocab);
  const detect::ObjectDetector detector(&truth,
                                        detect::ModelProfile::MaskRcnn(), 7);
  FrameIndex f = 0;
  const int64_t frames = truth.layout().num_frames();
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.MaxScore(0, f));
    f = (f + 1) % frames;
  }
}
BENCHMARK(BM_DetectorMaxScore);

// --- Wall-clock regression gate -----------------------------------------
// Self-timed ns/op for the scan-statistic tail-probability kernel — the
// innermost cost of every critical-value search and online threshold
// check. Each window is timed as the fastest of several multi-millisecond
// repeats (min-of-repeats suppresses scheduler noise), and the gate
// passes while every window stays under a budget ~50x the time observed
// on a current developer machine: generous enough that no realistic CI
// host trips it, tight enough that an accidental complexity blowup
// (e.g. the kernel reverting to naive recomputation) still does.

struct KernelTiming {
  int64_t window = 0;
  double ns_per_op = 0.0;
  double budget_ns = 0.0;
};

double TimeScanTailNs(int64_t window) {
  const auto run = [&](int64_t iters) {
    double sink = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int64_t i = 0; i < iters; ++i) {
      sink += scanstat::ScanStatisticTailProbability(window / 5, 0.02, window,
                                                     1000.0);
    }
    benchmark::DoNotOptimize(sink);
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count();
  };
  // Grow the iteration count until one repeat runs >= 2 ms so the timer
  // granularity is negligible, then keep the fastest of 7 repeats.
  int64_t iters = 1;
  while (run(iters) < 2e6) iters *= 2;
  double best = run(iters);
  for (int rep = 1; rep < 7; ++rep) best = std::min(best, run(iters));
  return best / static_cast<double>(iters);
}

int RunWallClockGate() {
  std::vector<KernelTiming> timings = {
      {10, 0.0, 25000.0}, {50, 0.0, 500000.0}, {200, 0.0, 5000000.0}};
  bench::TablePrinter table("Scan-statistic kernel wall clock",
                            {"window", "ns_per_op", "budget_ns", "ok"});
  bool ns_ok = true;
  for (KernelTiming& t : timings) {
    t.ns_per_op = TimeScanTailNs(t.window);
    const bool ok = t.ns_per_op <= t.budget_ns;
    if (!ok) ns_ok = false;
    table.AddRow({bench::Fmt(t.window), bench::Fmt("%.1f", t.ns_per_op),
                  bench::Fmt("%.0f", t.budget_ns), ok ? "yes" : "NO"});
  }
  table.Print();

  FILE* json = std::fopen("BENCH_micro.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_micro.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  bench::WriteJsonMeta(json, 0,
                       "scan-statistic kernel ns/op, windows {10,50,200}, "
                       "min of 7 repeats");
  for (const KernelTiming& t : timings) {
    std::fprintf(json,
                 "  \"scan_tail_ns_w%" PRId64 "\": %.1f,\n  "
                 "\"scan_tail_budget_ns_w%" PRId64 "\": %.0f,\n",
                 t.window, t.ns_per_op, t.window, t.budget_ns);
  }
  std::fprintf(json, "  \"scan_tail_ns_ok\": %s\n", ns_ok ? "true" : "false");
  std::fprintf(json, "}\n");
  std::fclose(json);

  std::printf("scan-statistic kernel within wall-clock budget: %s\n",
              ns_ok ? "ok" : "FAIL");
  return ns_ok ? 0 : 1;
}

}  // namespace
}  // namespace vaq

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return vaq::RunWallClockGate();
}
