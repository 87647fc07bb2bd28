// vaq_perfbench: wall-clock benchmark of the VAQ public API.
//
//   vaq_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One workload per process. Set-up runs once in this process (the copy the
// loop uses); references are computed untimed, one warm-up op runs, the
// metric registry is reset, then the closed loop runs for --seconds of
// measured time in kSlices slices; its metrics take every op at the best
// time of its key (TimedLoop::Best). After each slice a set-up window runs
// more set-up repetitions in a forked child, so the repetitions behind
// setup_s (their median) are spread over the whole run like the loop's
// ops. --trace 0 prints the end-to-end metrics; --trace 1 alternates
// untraced and traced slices of the same total length, then probes every
// layer and prints the per-layer metrics. The last stdout line is the JSON
// result; everything above it is a human-readable report.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "perfbench/harness.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

// Loop slices; a set-up window follows each.
constexpr int kSlices = 4;
// A set-up window repeats set-up until it has taken kWindowMs (at least
// once, at most kMaxWindowReps times): cheap set-ups get many samples per
// window, the ranked corpus one.
constexpr double kWindowMs = 300.0;
constexpr int kMaxWindowReps = 250;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool has_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      has_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return has_workload && argc % 2 == 1 && args->seconds > 0.0;
}

// The loop's figures as run (raw) and with every op at its best; the
// metrics are the best figures.
void PrintLoop(const char* label, const TimedLoop& loop) {
  const double ops = static_cast<double>(std::max<int64_t>(1, loop.ops()));
  const Tail tail = TailLatency(loop.latencies_ms());
  const BestFigures best = loop.Best();
  std::printf("%s: ops=%lld failed=%lld fail_ratio=%.6f wall_s=%.3f "
              "keys=%lld (%.1f ops each)\n",
              label, static_cast<long long>(loop.ops()),
              static_cast<long long>(loop.failed()),
              static_cast<double>(loop.failed()) / ops, loop.wall_s(),
              static_cast<long long>(best.keys),
              ops / static_cast<double>(std::max<int64_t>(1, best.keys)));
  std::printf("                 %12s %12s\n", "raw", "best");
  std::printf("  ops_per_s      %12.4f %12.4f 1/s\n",
              loop.wall_s() > 0.0 ? ops / loop.wall_s() : 0.0, best.ops_per_s);
  std::printf("  op_p50_ms      %12.4f %12.4f ms\n", Median(loop.latencies_ms()),
              best.p50_ms);
  std::printf("  op_tail_ms     %12.4f %12.4f ms (p%g of %lld samples)\n",
              tail.value_ms, best.tail.value_ms, best.tail.percentile,
              static_cast<long long>(best.tail.samples));
  std::printf("  cpu_ms_per_op  %12.4f %12.4f ms\n", loop.cpu_ms() / ops,
              best.cpu_ms_per_op);
  std::printf("  best op ms, p10..p90:");
  for (double ms : best.deciles_ms) std::printf(" %.4f", ms);
  std::printf("\n");
}

// Every stage the set-up spans saw (median total over repetitions) and
// the remainder, so work moved into set-up shows.
void PrintSetup(const std::vector<Spans>& setups,
                const std::vector<double>& setup_ms) {
  std::printf("setup: %zu repetitions, median %.3f ms (min %.3f, max %.3f)\n",
              setup_ms.size(), Median(setup_ms),
              *std::min_element(setup_ms.begin(), setup_ms.end()),
              *std::max_element(setup_ms.begin(), setup_ms.end()));
  double accounted = 0.0;
  for (const std::string& name : setups.front().Names()) {
    std::vector<double> totals;
    for (const Spans& spans : setups) totals.push_back(spans.TotalNs(name) / 1e6);
    accounted += Median(totals);
    std::printf("  %-28s %10.3f ms\n", name.c_str(), Median(totals));
  }
  std::printf("  %-28s %10.3f ms\n", "(not in any stage)",
              Median(setup_ms) - accounted);
}

// One set-up window. A forked child runs the repetitions, each on a fresh
// workload, and sends back one line per repetition: its time in ms, then
// name=total_ns per stage. The child is a copy of this process taken
// between ops, so the live workload is untouched, the copies never count
// in this process's peak_rss_mb and their counters never reach this
// process's registry. The child dies with this process.
void SetupWindow(const Args& args, std::vector<Spans>* spans,
                 std::vector<double>* setup_ms) {
  std::fflush(stdout);
  int fds[2];
  if (pipe(fds) != 0) Require(vaq::Status::Internal("pipe failed"), "setup");
  const pid_t pid = fork();
  if (pid < 0) Require(vaq::Status::Internal("fork failed"), "setup");
  if (pid == 0) {
    close(fds[0]);
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    std::string out;
    double total_ms = 0.0;
    for (int reps = 0; reps < kMaxWindowReps && (reps == 0 || total_ms < kWindowMs);
         ++reps) {
      std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
      Spans stages;
      const double start = NowNs();
      const vaq::Status status = workload->Setup(args.seed, &stages);
      const double ms = (NowNs() - start) / 1e6;
      if (!status.ok()) {
        std::fprintf(stderr, "perfbench: setup: %s\n",
                     status.ToString().c_str());
        _exit(1);
      }
      workload.reset();
      total_ms += ms;
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", ms);
      out += buf;
      for (const std::string& name : stages.Names()) {
        std::snprintf(buf, sizeof(buf), "%.17g", stages.TotalNs(name));
        out += " " + name + "=" + buf;
      }
      out += "\n";
    }
    for (size_t sent = 0; sent < out.size();) {
      const ssize_t n = write(fds[1], out.data() + sent, out.size() - sent);
      if (n <= 0) _exit(1);
      sent += static_cast<size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string in;
  char buf[4096];
  for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) > 0;) {
    in.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int wstatus = 0;
  waitpid(pid, &wstatus, 0);
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    Require(vaq::Status::Internal("set-up window failed"), "setup");
  }
  std::istringstream lines(in);
  for (std::string line; std::getline(lines, line);) {
    std::istringstream fields(line);
    double ms = 0.0;
    fields >> ms;
    Spans& stages = spans->emplace_back();
    for (std::string field; fields >> field;) {
      const size_t eq = field.find('=');
      stages.Add(field.substr(0, eq), std::strtod(field.c_str() + eq + 1, nullptr));
    }
    setup_ms->push_back(ms);
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args) || MakeWorkload(args.workload) == nullptr) {
    std::fprintf(stderr,
                 "usage: vaq_perfbench --workload <standing_streams|"
                 "adhoc_serve|ranked_adhoc> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);

  // The first set-up repetition builds the copy the loop uses.
  std::vector<Spans> setup_spans(1);
  std::vector<double> setup_ms;
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  const double setup_start = NowNs();
  Require(workload->Setup(args.seed, &setup_spans[0]), "setup");
  setup_ms.push_back((NowNs() - setup_start) / 1e6);
  std::printf("sizes: %s\n", workload->Describe().c_str());

  Require(workload->PrepareReference(), "reference");
  Require(workload->Warmup(), "warm-up");
  // Every run times from the same registry state.
  vaq::obs::MetricRegistry::Global().Reset();

  Metrics metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  if (!args.trace) {
    TimedLoop loop(0.0);
    for (int i = 0; i < kSlices; ++i) {
      loop.Extend(args.seconds / kSlices);
      workload->Run(&loop, nullptr);
      SetupWindow(args, &setup_spans, &setup_ms);
    }
    workload->Finish(&loop, nullptr);
    PrintLoop("timed", loop);
    std::printf("%s", workload->LoopReport().c_str());
    const BestFigures best = loop.Best();
    metrics["ops_per_s"] = {best.ops_per_s, "1/s"};
    metrics["op_p50_ms"] = {best.p50_ms, "ms"};
    metrics["op_tail_ms"] = {best.tail.value_ms, "ms"};
    metrics["cpu_ms_per_op"] = {best.cpu_ms_per_op, "ms"};
    metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
    metrics["setup_s"] = {Median(setup_ms) / 1e3, "s"};
    attempted = loop.ops();
    failed = loop.failed();
  } else {
    // Untraced and traced slices alternate, so drift over the run (state
    // that grows, sessions that roll over) lands on both sides equally.
    TimedLoop plain(0.0);
    TimedLoop traced(0.0);
    Spans loop_spans;
    const double slice = args.seconds / (2 * kSlices);
    for (int i = 0; i < kSlices; ++i) {
      plain.Extend(slice);
      workload->Run(&plain, nullptr);
      traced.Extend(slice);
      workload->Run(&traced, &loop_spans);
      SetupWindow(args, &setup_spans, &setup_ms);
    }
    workload->Finish(&traced, &loop_spans);
    PrintLoop("untraced half", plain);
    std::printf("%s", workload->LoopReport().c_str());
    PrintLoop("traced half", traced);
    Require(workload->Layers(loop_spans, &metrics), "layer probes");
    metrics["obs.trace_overhead_pct"] = {
        (plain.Best().ops_per_s / traced.Best().ops_per_s - 1.0) * 100.0, "%"};
    // The workload's own set-up stages replace the probe corpus's.
    SetupLayers(setup_spans, setup_ms, &metrics);
    attempted = plain.ops() + traced.ops();
    failed = plain.failed() + traced.failed();
  }
  workload.reset();
  PrintSetup(setup_spans, setup_ms);

  std::printf("fail_ratio %.6f (%lld of %lld ops)\n",
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<long long>(failed),
              static_cast<long long>(attempted));
  for (const auto& [name, metric] : metrics) {
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   name.c_str());
      return 1;
    }
    std::printf("metric %-32s %.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::fflush(stdout);
  std::printf("%s\n",
              ResultJson(failed == 0, attempted, failed, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
