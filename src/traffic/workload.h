// Open-loop multi-tenant workload generation.
//
// The front door (src/traffic/front_door.h) is exercised by an *open-loop*
// arrival process: tenants offer queries on their own schedule, indifferent
// to how fast the system drains them — the regime where queueing delay and
// overload actually show up (a closed loop self-throttles and hides both).
//
// Arrivals are a non-homogeneous Poisson process per tenant, simulated by
// thinning: gaps are drawn from the peak rate and accepted with probability
// rate(t) / peak. The instantaneous rate composes independent random
// variables, MAGPIE-style:
//
//   rate(t) = base_qps
//           * (1 + 0.5 * sin(2*pi*t / 20 s))   (the diurnal curve)
//           * (4   while t is inside a drawn burst window)
//           * (2   for hotspot tenants)
//           * (10  for the designated abusive tenant)
//
// Burst windows last 1 s and start per tenant as a Poisson process at
// one per virtual minute. These shape constants live in workload.cc; the
// spec sets the rest.
//
// Everything is a pure function of (spec, seed): each tenant draws from its
// own Rng(MixSeed(seed, tenant)), so adding a tenant never perturbs another
// tenant's arrival times, and the merged timeline is sorted by
// (at_ms, tenant) — fully deterministic.
#ifndef VAQ_TRAFFIC_WORKLOAD_H_
#define VAQ_TRAFFIC_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace vaq {
namespace traffic {

// One tenant of the front door.
struct TenantSpec {
  std::string name;        // "t0", "t1", ... — the {tenant=...} label.
  int weight = 1;          // Weighted-fair share (DRR quantum multiplier).
  // Admission quota: admitted-but-unfinished (queued + in service)
  // queries allowed before arrivals are shed.
  int queue_quota = 64;
  double rate_qps = 1.0;   // Mean offered rate at flat load, queries/s.
  double slo_ms = 250.0;   // Deadline class: sojourn above this is a miss.
  bool hotspot = false;    // Runs hot (2x its rate) the whole time.
  bool abusive = false;    // Offers 10 times its fair rate.
};

// One offered query: a tenant asks for one of the scenario presets.
struct Arrival {
  double at_ms = 0.0;
  int tenant = 0;  // Index into the TenantSpec vector.
  int preset = 0;  // Index into the query-mix presets (see tools/).
};

// Generator parameters. Defaults produce a small, CI-friendly mix; the
// bench scales duration / rates up to millions of sessions.
struct WorkloadSpec {
  int num_tenants = 4;
  double duration_ms = 60'000.0;  // Virtual observation window.
  uint64_t seed = 1;
  double base_qps = 2.0;  // Per-tenant flat rate, queries per virtual second.

  // Every hotspot_every-th tenant (0-indexed: tenants 0, k, 2k, ...) is a
  // hotspot. 0 disables.
  int hotspot_every = 3;

  // The designated abusive tenant (-1 for none) offers 10 times its
  // configured rate — the isolation experiments shed it at its quota and
  // check everyone else's percentiles stayed put.
  int abusive_tenant = -1;

  int num_presets = 4;   // Size of the query-mix preset pool.
  int queue_quota = 64;  // Per-tenant admission quota (TenantSpec).
  double slo_ms = 250.0;

  // Hard cap on generated arrivals — a mis-typed rate fails loudly in the
  // report (truncated = true) instead of eating all memory.
  size_t max_arrivals = 5'000'000;
};

// Derives the tenant table from a spec: names "t0"..; hotspot flags by
// hotspot_every; the abusive tenant marked; weights all 1 (fair split).
std::vector<TenantSpec> MakeTenants(const WorkloadSpec& spec);

// Generates the merged open-loop arrival timeline, sorted by
// (at_ms, tenant). `truncated` (optional) reports whether max_arrivals was
// hit. Pure function of `spec`.
std::vector<Arrival> GenerateArrivals(const WorkloadSpec& spec,
                                      bool* truncated = nullptr);

}  // namespace traffic
}  // namespace vaq

#endif  // VAQ_TRAFFIC_WORKLOAD_H_
