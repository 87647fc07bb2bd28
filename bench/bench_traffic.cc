// Million-user front door under open-loop multi-tenant load
// (src/traffic/): sustained throughput and per-tenant p99 vs tenant
// count, a simulated-day scale point, and the fairness/isolation
// experiment the ISSUE acceptance criteria pin down.
//
// Everything runs on virtual time against probed per-preset modeled
// costs, so the numbers are a pure function of the seeds and reproduce
// bit-for-bit on any machine.
//
// Expectations (asserted, nonzero exit on failure):
//   * isolation_ok  — with one tenant offering 10x its rate, every
//     other tenant's p99 stays within 10% of the no-abuse baseline;
//   * shed_ok       — the abusive tenant is actually shed, both at the
//     front door and with kResourceExhausted on the serve path;
//   * bytes_identical — no other tenant's serve-path result bytes move
//     when the abuser shows up;
//   * deterministic_ok — the whole abusive run (report + result bytes)
//     is byte-identical when repeated with the same seed.
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "tools/pipeline_setup.h"

namespace vaq {
namespace {

constexpr uint64_t kSeed = 33;

// Moderate-load sweep configuration (per-tenant).
tools::TrafficDemoSpec SweepSpec(int tenants) {
  tools::TrafficDemoSpec spec;
  spec.num_tenants = tenants;
  spec.duration_min = 2.0;
  spec.seed = kSeed;
  spec.num_workers = 8;
  spec.base_qps = 20.0;
  spec.queue_quota = 4;
  return spec;
}

// Isolation experiment: quota (4) below the worker count (16), so the
// abuser can never hold more than a quarter of the service slots, and a
// rate high enough that 10x of it exceeds what 4 slots can drain — the
// abuser must be shed.
tools::TrafficDemoSpec IsolationSpec(int abusive_tenant) {
  tools::TrafficDemoSpec spec;
  spec.num_tenants = 4;
  spec.duration_min = 2.0;
  spec.seed = kSeed;
  spec.num_workers = 16;
  spec.base_qps = 50.0;
  spec.queue_quota = 4;
  spec.abusive_tenant = abusive_tenant;
  spec.record_metrics = false;  // Three runs share the process registry.
  return spec;
}

int Run() {
  // --- Throughput / p99 vs tenant count ---------------------------------
  bench::TablePrinter table(
      "Front door: sustained QPS and per-tenant p99 vs tenant count",
      {"tenants", "offered", "completed", "shed", "qps", "mean_p99_ms",
       "max_p99_ms"});
  for (const int tenants : {2, 4, 8}) {
    const StatusOr<tools::TrafficDemoResult> r =
        tools::RunTrafficDemo(SweepSpec(tenants));
    if (!r.ok()) {
      std::fprintf(stderr, "sweep tenants=%d failed: %s\n", tenants,
                   r.status().ToString().c_str());
      return 1;
    }
    double mean_p99_ms = 0.0;
    double max_p99_ms = 0.0;
    for (const traffic::TenantReport& t : r->report.tenants) {
      mean_p99_ms += t.p99_ms;
      max_p99_ms = std::max(max_p99_ms, t.p99_ms);
    }
    mean_p99_ms /= static_cast<double>(tenants);
    table.AddRow({bench::Fmt(static_cast<int64_t>(tenants)),
                  bench::Fmt(r->report.offered),
                  bench::Fmt(r->report.completed), bench::Fmt(r->report.shed),
                  bench::Fmt("%.2f", r->report.sustained_qps),
                  bench::Fmt("%.3f", mean_p99_ms),
                  bench::Fmt("%.3f", max_p99_ms)});
  }
  table.Print();

  // --- Scale point: one simulated day, millions of sessions -------------
  tools::TrafficDemoSpec day = SweepSpec(8);
  day.duration_min = 1440.0;  // 24 virtual hours.
  day.base_qps = 2.0;
  const StatusOr<tools::TrafficDemoResult> day_r = tools::RunTrafficDemo(day);
  if (!day_r.ok()) {
    std::fprintf(stderr, "day-scale run failed: %s\n",
                 day_r.status().ToString().c_str());
    return 1;
  }
  std::printf("simulated day: %" PRId64 " sessions offered, %" PRId64
              " completed, sustained %.2f qps%s\n",
              day_r->report.offered, day_r->report.completed,
              day_r->report.sustained_qps,
              day_r->truncated ? " (TRUNCATED)" : "");

  // --- Fairness / isolation under a 10x abusive tenant -------------------
  constexpr int kAbusive = 1;
  tools::TrafficDemoSpec base_spec = IsolationSpec(-1);
  const StatusOr<tools::TrafficDemoResult> base =
      tools::RunTrafficDemo(base_spec);
  const StatusOr<tools::TrafficDemoResult> abuse =
      tools::RunTrafficDemo(IsolationSpec(kAbusive));
  const StatusOr<tools::TrafficDemoResult> abuse2 =
      tools::RunTrafficDemo(IsolationSpec(kAbusive));
  if (!base.ok() || !abuse.ok() || !abuse2.ok()) {
    std::fprintf(stderr, "isolation runs failed\n");
    return 1;
  }

  bool isolation_ok = true;
  bool bytes_identical = true;
  double p99_delta_max_pct = 0.0;
  bench::TablePrinter iso(
      "Isolation: tenant t1 at 10x, every other tenant's p99 must hold",
      {"tenant", "base_p99_ms", "abuse_p99_ms", "delta_pct", "base_shed",
       "abuse_shed"});
  for (size_t i = 0; i < base->report.tenants.size(); ++i) {
    const traffic::TenantReport& b = base->report.tenants[i];
    const traffic::TenantReport& a = abuse->report.tenants[i];
    const double delta_pct =
        b.p99_ms > 0.0 ? 100.0 * std::fabs(a.p99_ms - b.p99_ms) / b.p99_ms
                       : 0.0;
    iso.AddRow({b.tenant, bench::Fmt("%.3f", b.p99_ms),
                bench::Fmt("%.3f", a.p99_ms), bench::Fmt("%.2f", delta_pct),
                bench::Fmt(b.shed), bench::Fmt(a.shed)});
    if (static_cast<int>(i) == kAbusive) continue;
    p99_delta_max_pct = std::max(p99_delta_max_pct, delta_pct);
    if (delta_pct > 10.0) isolation_ok = false;
    if (abuse->tenant_results[i] != base->tenant_results[i]) {
      bytes_identical = false;
    }
  }
  iso.Print();

  const int64_t abusive_shed =
      abuse->report.tenants[static_cast<size_t>(kAbusive)].shed;
  const bool shed_ok = abusive_shed > 0 && abuse->tenant_quota_sheds > 0;
  const bool deterministic_ok =
      abuse->report.ToString() == abuse2->report.ToString() &&
      abuse->tenant_results == abuse2->tenant_results;

  std::printf("abusive tenant shed (front door %" PRId64
              ", serve kResourceExhausted %" PRId64 "): %s\n",
              abusive_shed, abuse->tenant_quota_sheds,
              shed_ok ? "ok" : "FAIL");
  std::printf("other tenants' p99 within 10%% (max delta %.2f%%): %s\n",
              p99_delta_max_pct, isolation_ok ? "ok" : "FAIL");
  std::printf("other tenants' result bytes unchanged under abuse: %s\n",
              bytes_identical ? "ok" : "FAIL");
  std::printf("abusive run byte-identical when repeated: %s\n",
              deterministic_ok ? "ok" : "FAIL");
  return (isolation_ok && shed_ok && bytes_identical && deterministic_ok)
             ? 0
             : 1;
}

}  // namespace
}  // namespace vaq

int main() { return vaq::Run(); }
