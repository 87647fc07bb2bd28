// Micro-benchmarks of the library's hot kernels: scan-statistic
// evaluation, critical-value search, interval algebra, score-table
// access, the simulated detector and one trace span.
//
// main() self-times each kernel as the fastest of several
// multi-millisecond repeats and prints one table of ns/op, then runs the
// scan-statistic kernel's wall-clock gate. The printed ns/op is
// informational (wall clock moves with the machine); only the gate sets
// the exit code, and its budgets are generous enough that it flips on an
// order-of-magnitude regression (an accidental algorithmic blowup), never
// on machine speed. The bench_micro_kernels ctest runs it and passes on
// exit 0.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/interval.h"
#include "common/rng.h"
#include "detect/models.h"
#include "obs/trace.h"
#include "scanstat/critical_value.h"
#include "scanstat/naus.h"
#include "storage/score_table.h"
#include "synth/generator.h"

namespace vaq {
namespace {

// Keeps `value` observable so the compiler cannot drop the work that
// produced it.
template <typename T>
void Sink(const T& value) { asm volatile("" : : "r"(&value) : "memory"); }

// Self-timed ns per call of `op(i)`, i = 0, 1, ...: the iteration count
// grows until one repeat runs >= 2 ms so the timer granularity is
// negligible, then the fastest of 7 repeats is kept (min-of-repeats
// suppresses scheduler noise).
template <typename Op>
double TimeNsPerOp(Op op) {
  const auto run = [&](int64_t iters) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int64_t i = 0; i < iters; ++i) op(i);
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count();
  };
  int64_t iters = 1;
  while (run(iters) < 2e6) iters *= 2;
  double best = run(iters);
  for (int rep = 1; rep < 7; ++rep) best = std::min(best, run(iters));
  return best / static_cast<double>(iters);
}

// The ungated kernels, timed for information only.
void PrintKernelTimings() {
  bench::TablePrinter table("Micro-kernel wall clock",
                            {"kernel", "arg", "ns_per_op"});
  const auto add = [&table](const std::string& kernel, int64_t arg,
                            double ns_per_op) {
    table.AddRow({kernel, bench::Fmt(arg), bench::Fmt("%.1f", ns_per_op)});
  };

  for (const int64_t window : {10, 100, 500}) {
    scanstat::ScanConfig config;
    config.window = window;
    config.horizon = 100000;
    config.alpha = 0.01;
    add("critical_value", window, TimeNsPerOp([&config](int64_t) {
          Sink(scanstat::CriticalValue(0.02, config));
        }));
  }

  for (const int64_t n : {100, 10000}) {
    Rng rng(1);
    std::vector<Interval> a;
    std::vector<Interval> b;
    for (int64_t i = 0; i < n; ++i) {
      const int64_t lo = i * 20 + static_cast<int64_t>(rng.UniformInt(8ul));
      a.push_back(Interval(lo, lo + 6));
      const int64_t lo2 = i * 20 + static_cast<int64_t>(rng.UniformInt(8ul));
      b.push_back(Interval(lo2, lo2 + 9));
    }
    const IntervalSet sa = IntervalSet::FromIntervals(a);
    const IntervalSet sb = IntervalSet::FromIntervals(b);
    add("interval_intersect", n,
        TimeNsPerOp([&sa, &sb](int64_t) { Sink(sa.Intersect(sb)); }));
  }

  {
    constexpr int64_t kClips = 100000;
    Rng rng(2);
    std::vector<storage::ScoreTable::Row> rows;
    for (int64_t c = 0; c < kClips; ++c) {
      rows.push_back({c, rng.UniformDouble(0, 100)});
    }
    const storage::ScoreTable scores =
        std::move(storage::ScoreTable::Build(std::move(rows))).value();
    add("score_table_random", kClips, TimeNsPerOp([&scores](int64_t i) {
          Sink(scores.RandomScore(i % kClips));
        }));
  }

  {
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
    Vocabulary vocab;
    const synth::GroundTruth truth = synth::Generate(spec, vocab);
    const detect::ObjectDetector detector(
        &truth, detect::ModelProfile::MaskRcnn(), 7);
    const int64_t frames = truth.layout().num_frames();
    add("detector_max_score", frames,
        TimeNsPerOp([&detector, frames](int64_t i) {
          Sink(detector.MaxScore(0, i % frames));
        }));
  }

  // One VAQ_TRACE_SPAN open and close: two steady-clock reads, the span
  // counter and the wall histogram. obs/trace.h weighs what a span may
  // time against this figure.
  add("trace_span", 1,
      TimeNsPerOp([](int64_t) { VAQ_TRACE_SPAN("bench/micro_kernels"); }));

  table.Print();
}

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
  return TimeNsPerOp([window](int64_t) {
    Sink(scanstat::ScanStatisticTailProbability(window / 5, 0.02, window,
                                                1000.0));
  });
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

  std::printf("scan-statistic kernel within wall-clock budget: %s\n",
              ns_ok ? "ok" : "FAIL");
  return ns_ok ? 0 : 1;
}

}  // namespace
}  // namespace vaq

int main() {
  vaq::PrintKernelTimings();
  return vaq::RunWallClockGate();
}
