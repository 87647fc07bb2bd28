// Multi-tenant weighted-fair front door (simulated).
//
// A deficit-round-robin scheduler over per-tenant FIFO queues, drained by a
// fixed pool of virtual workers on fault::SimClock time:
//
//   * Admission: an arrival is enqueued unless its tenant already has
//     queue_quota queries admitted-but-unfinished — queued plus in
//     service, the ServeOptions::tenant_quotas semantics — then it is
//     shed, charged to that tenant alone. The quota is the isolation
//     mechanism twice over: an abusive tenant offering 10x its rate is
//     shed at its own limit, and because in-service queries count, one
//     tenant can never hold more than queue_quota of the worker slots —
//     sizing quotas below num_workers leaves guaranteed headroom for
//     everyone else's percentiles.
//   * Scheduling: classic DRR with a per-tenant deficit denominated in
//     modeled milliseconds. Each visit tops the deficit up by a 5 ms
//     quantum * weight; a tenant serves while its deficit covers the
//     head-of-line cost, then yields. Long queries cannot starve light
//     tenants — over any window each backlogged tenant gets service time
//     proportional to its weight.
//   * Accounting: per-tenant sojourn (completion - arrival) percentiles by
//     exact nearest-rank over all samples, SLO misses against the
//     tenant's deadline class, and shed/admit/complete counts. Published
//     as vaq_traffic_* metric families when record_metrics is set.
//
// The whole simulation is a pure function of (tenants, arrivals, costs,
// options): byte-identical reports for a given seed on any machine.
#ifndef VAQ_TRAFFIC_FRONT_DOOR_H_
#define VAQ_TRAFFIC_FRONT_DOOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "traffic/workload.h"

namespace vaq {
namespace traffic {

struct FrontDoorOptions {
  int num_workers = 4;       // Virtual service slots draining the queues.
  bool record_metrics = true;  // Publish vaq_traffic_* families.
};

// Per-tenant accounting over the run.
struct TenantReport {
  std::string tenant;
  int64_t offered = 0;    // Arrivals addressed to this tenant.
  int64_t admitted = 0;   // Passed the quota gate.
  int64_t shed = 0;       // Rejected at the quota gate.
  int64_t completed = 0;
  int64_t slo_misses = 0;  // Sojourn above the tenant's slo_ms.
  double p50_ms = 0.0;     // Exact nearest-rank sojourn percentiles.
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double max_ms = 0.0;
  int max_queue = 0;       // High-water queue depth (<= queue_quota).
};

struct TrafficReport {
  std::vector<TenantReport> tenants;
  int64_t offered = 0;
  int64_t admitted = 0;
  int64_t shed = 0;
  int64_t completed = 0;
  double makespan_ms = 0.0;     // Virtual time the last query completed.
  double sustained_qps = 0.0;   // completed / makespan, in queries/s.

  // Deterministic multi-line rendering (one line per tenant + a total).
  std::string ToString() const;
};

// Runs the front-door simulation. `preset_cost_ms[p]` is the modeled
// service time of preset p (probe it once with a threads=0 serve::Server;
// see tools::RunTrafficDemo). Arrivals must be sorted by (at_ms, tenant),
// as GenerateArrivals emits them.
TrafficReport RunFrontDoor(const std::vector<TenantSpec>& tenants,
                           const std::vector<Arrival>& arrivals,
                           const std::vector<double>& preset_cost_ms,
                           const FrontDoorOptions& options = {});

}  // namespace traffic
}  // namespace vaq

#endif  // VAQ_TRAFFIC_FRONT_DOOR_H_
