// Chaos-harness throughput and coverage: how many whole-stack
// scenario+schedule trials per second the deterministic chaos engine
// (src/chaos/) sustains, and which fault domains a fixed-seed sweep
// actually exercises.
//
// The sweep is the same code path `vaqctl chaos` and CI run: each trial
// draws a scenario and a fault schedule from (seed, trial), runs the
// faulted stack against its fault-free reference, and checks every
// invariant oracle. The bench reports trials/sec (wall clock — the
// harness itself is the system under measurement, unlike the simulated
// timelines the other benches price) and the fault-event coverage
// histogram grouped by domain (env.* injected by the environment
// FaultPlan, event.* applied by the schedule, net.*/cluster.* observed
// from the simulated network). Two assertions gate the exit code: the
// sweep must pass every oracle, and every domain must register at least
// one event — a silent-zero domain means the generator or the plumbing
// regressed.
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "chaos/engine.h"
#include "chaos/scenario.h"

namespace vaq {
namespace {

constexpr int64_t kTrials = 40;
constexpr uint64_t kSeed = 1;

// "env.timeout" -> "env"; bare keys fall into a catch-all domain.
std::string DomainOf(const std::string& key) {
  const size_t dot = key.find('.');
  return dot == std::string::npos ? "other" : key.substr(0, dot);
}

int Run() {
  chaos::ChaosOptions options;
  options.trials = kTrials;
  options.seed = kSeed;

  const auto start = std::chrono::steady_clock::now();
  const auto report = chaos::RunChaos(options);
  const auto stop = std::chrono::steady_clock::now();
  if (!report.ok()) {
    std::fprintf(stderr, "chaos sweep errored: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  const double wall_s =
      std::chrono::duration<double>(stop - start).count();
  const double trials_per_s =
      wall_s > 0.0 ? static_cast<double>(report->trials_run) / wall_s : 0.0;

  std::map<std::string, int64_t> domain_totals;
  for (const auto& [key, count] : report->coverage) {
    domain_totals[DomainOf(key)] += count;
  }

  bench::TablePrinter table(
      "Chaos harness — fault-event coverage by domain",
      {"domain", "event", "count"});
  for (const auto& [key, count] : report->coverage) {
    table.AddRow({DomainOf(key), key, bench::Fmt(count)});
  }
  for (const auto& [domain, total] : domain_totals) {
    table.AddRow({domain, "(total)", bench::Fmt(total)});
  }
  table.Print();

  std::printf("\ntrials: %" PRId64 "  wall: %.2fs  trials/sec: %.2f\n",
              report->trials_run, wall_s, trials_per_s);
  for (const auto& [phase, count] : report->trials_per_phase) {
    std::printf("phase %-8s %" PRId64 " trials\n", phase.c_str(), count);
  }

  const bool oracles_held = !report->failed();
  // env.* and event.* are generated; net.* and cluster.* are observed
  // from the cluster phase's simulated network under those faults.
  bool domains_covered = true;
  for (const char* domain : {"env", "event", "net", "cluster"}) {
    if (domain_totals[domain] <= 0) domains_covered = false;
  }

  std::printf("all oracles held across %" PRId64 " trials: %s\n",
              report->trials_run, oracles_held ? "ok" : "FAIL");
  if (!oracles_held) {
    for (const std::string& v : report->failure) {
      std::fprintf(stderr, "  violation: %s\n", v.c_str());
    }
  }
  std::printf("every fault domain exercised (env/event/net/cluster): %s\n",
              domains_covered ? "ok" : "FAIL");
  return (oracles_held && domains_covered) ? 0 : 1;
}

}  // namespace
}  // namespace vaq

int main() { return vaq::Run(); }
