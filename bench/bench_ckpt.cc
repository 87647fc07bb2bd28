// Checkpoint overhead sweep: snapshot interval × stream length for the
// durable standing-query demo session.
//
// Each configuration runs the clip-lockstep serving loop against a
// MemStore, snapshotting every N clips, and prices durability on the
// same simulated timeline the serving bench uses: a snapshot costs one
// seek (storage::kModeledSeekMs) plus a per-byte write cost, observed into
// vaq_ckpt_snapshot_modeled_ms by the server. The overhead ratio is that
// total against the session's simulated model time. Logical results must
// be byte-identical across intervals — checkpointing is pure overhead,
// never a behavior change — and at the default interval the overhead
// must stay under 10%. Both are asserted; the process exits nonzero on
// violation.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "ckpt/store.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "tools/pipeline_setup.h"

namespace vaq {
namespace {

constexpr int kStreams = 2;
constexpr int kQueries = 6;
constexpr uint64_t kSeed = 7;
// 0 disables checkpointing (the no-durability baseline row).
const int64_t kIntervals[] = {0, 4, serve::kDefaultSnapshotEveryClips, 16,
                              32};
const int64_t kStreamLengths[] = {54, 108};  // Clips driven per stream.

struct ConfigResult {
  int64_t interval = 0;
  int64_t length = 0;
  int64_t snapshots = 0;
  int64_t snapshot_bytes = 0;
  int64_t wal_records = 0;
  double snapshot_ms = 0.0;   // Modeled durability overhead.
  double simulated_ms = 0.0;  // Session model time (the work itself).
  double overhead = 0.0;      // snapshot_ms / simulated_ms.
  std::vector<std::string> described;
};

int64_t CounterValue(const char* name) {
  return obs::MetricRegistry::Global().GetCounter(name, {})->value();
}

double SnapshotOverheadMs() {
  const obs::Snapshot snap = obs::MetricRegistry::Global().TakeSnapshot();
  for (const obs::Snapshot::Entry& entry : snap.entries) {
    if (entry.name == "vaq_ckpt_snapshot_modeled_ms") return entry.hist_sum;
  }
  return 0.0;
}

ConfigResult RunConfig(int64_t interval, int64_t length) {
  obs::MetricRegistry::Global().Reset();
  const fault::FaultPlan plan(tools::DemoFaultSpec(), kSeed);
  ckpt::MemStore store;
  tools::StandingDemoSpec spec;
  spec.num_streams = kStreams;
  spec.num_queries = kQueries;
  spec.seed = kSeed;
  spec.fault_plan = &plan;
  spec.checkpoint_store = interval > 0 ? &store : nullptr;
  spec.snapshot_every_clips = interval;

  auto server = tools::MakeStandingDemoServer(spec);
  Status status = server.status();
  if (status.ok()) {
    status = tools::AdmitStandingDemoWorkload(server.value().get(), spec);
  }
  if (status.ok()) {
    status = tools::DriveStandingDemo(server.value().get(), spec,
                                      static_cast<int64_t>(kStreams) * length);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "config interval=%lld length=%lld failed: %s\n",
                 static_cast<long long>(interval),
                 static_cast<long long>(length), status.ToString().c_str());
    std::exit(1);
  }
  ConfigResult out;
  out.interval = interval;
  out.length = length;
  for (const serve::ServedQuery& q : server.value()->FinishStanding()) {
    out.described.push_back(serve::DescribeServedQuery(q));
  }
  out.snapshots = CounterValue("vaq_ckpt_snapshots_total");
  out.snapshot_bytes = CounterValue("vaq_ckpt_snapshot_bytes_total");
  out.wal_records = CounterValue("vaq_ckpt_wal_records_total");
  out.snapshot_ms = SnapshotOverheadMs();
  out.simulated_ms = server.value()->stats().total_simulated_ms;
  out.overhead =
      out.simulated_ms > 0.0 ? out.snapshot_ms / out.simulated_ms : 0.0;
  return out;
}

}  // namespace
}  // namespace vaq

int main() {
  using namespace vaq;
  bench::TablePrinter table(
      "Checkpoint — snapshot overhead vs interval and stream length",
      {"interval_clips", "stream_clips", "snapshots", "snapshot_bytes",
       "wal_records", "snapshot_ms", "session_ms", "overhead_pct"});
  bool identical = true;
  bool default_overhead_ok = true;
  for (const int64_t length : kStreamLengths) {
    std::vector<std::string> baseline;
    for (const int64_t interval : kIntervals) {
      const ConfigResult r = RunConfig(interval, length);
      if (baseline.empty()) {
        baseline = r.described;
      } else if (r.described != baseline) {
        identical = false;
      }
      if (interval == serve::kDefaultSnapshotEveryClips &&
          r.overhead > 0.10) {
        default_overhead_ok = false;
      }
      table.AddRow({bench::Fmt(r.interval), bench::Fmt(r.length),
                    bench::Fmt(r.snapshots), bench::Fmt(r.snapshot_bytes),
                    bench::Fmt(r.wal_records),
                    bench::Fmt("%.1f", r.snapshot_ms),
                    bench::Fmt("%.1f", r.simulated_ms),
                    bench::Fmt("%.2f", r.overhead * 100.0)});
    }
  }
  table.Print();

  std::printf("results identical across snapshot intervals: %s\n",
              identical ? "ok" : "FAIL");
  std::printf("overhead at default interval (%lld clips) <= 10%%: %s\n",
              static_cast<long long>(serve::kDefaultSnapshotEveryClips),
              default_overhead_ok ? "ok" : "FAIL");
  return (identical && default_overhead_ok) ? 0 : 1;
}
