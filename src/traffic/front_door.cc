#include "traffic/front_door.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <limits>

#include "common/logging.h"
#include "fault/sim_clock.h"
#include "obs/metrics.h"
#include "obs/query_trace.h"

namespace vaq {
namespace traffic {
namespace {

std::string FormatMs(double ms) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

// DRR refill per visit, in modeled ms (times the tenant's weight).
constexpr double kQuantumMs = 5.0;

// DRR state over the per-tenant FIFOs.
struct Scheduler {
  const std::vector<TenantSpec>* tenants;
  std::vector<std::deque<Arrival>> queues;
  std::vector<double> deficit;
  int cursor = 0;
  int64_t queued = 0;

  // Picks the tenant whose head-of-line query is served next. Must only
  // be called with queued > 0. Each visit tops the tenant's deficit up by
  // one quantum * weight; a tenant whose deficit covers its head keeps
  // the floor (the cursor stays) until the deficit runs dry.
  int Select(const std::vector<double>& preset_cost_ms) {
    const int n = static_cast<int>(queues.size());
    while (true) {
      if (queues[static_cast<size_t>(cursor)].empty()) {
        cursor = (cursor + 1) % n;
        continue;
      }
      const Arrival& head = queues[static_cast<size_t>(cursor)].front();
      const double cost = preset_cost_ms[static_cast<size_t>(head.preset)];
      if (deficit[static_cast<size_t>(cursor)] >= cost) return cursor;
      deficit[static_cast<size_t>(cursor)] +=
          kQuantumMs * (*tenants)[static_cast<size_t>(cursor)].weight;
      if (deficit[static_cast<size_t>(cursor)] >= cost) return cursor;
      cursor = (cursor + 1) % n;
    }
  }

  // Dequeues tenant t's head after Select chose it. When the remaining
  // deficit no longer covers the new head (or the queue drained), the
  // tenant's visit is over and the cursor moves on — Select tops a
  // tenant up at most once per visit, which is what bounds any tenant's
  // service share at weight/sum(weights) under saturation.
  Arrival Pop(int t, const std::vector<double>& preset_cost_ms) {
    Arrival head = queues[static_cast<size_t>(t)].front();
    queues[static_cast<size_t>(t)].pop_front();
    --queued;
    deficit[static_cast<size_t>(t)] -=
        preset_cost_ms[static_cast<size_t>(head.preset)];
    if (queues[static_cast<size_t>(t)].empty()) {
      // A tenant going idle forfeits its deficit (the DRR rule that
      // stops an idle tenant from banking service time).
      deficit[static_cast<size_t>(t)] = 0.0;
      cursor = (t + 1) % static_cast<int>(queues.size());
    } else if (deficit[static_cast<size_t>(t)] <
               preset_cost_ms[static_cast<size_t>(
                   queues[static_cast<size_t>(t)].front().preset)]) {
      cursor = (t + 1) % static_cast<int>(queues.size());
    }
    return head;
  }
};

}  // namespace

std::string TrafficReport::ToString() const {
  std::string out;
  for (const TenantReport& t : tenants) {
    out += "tenant " + t.tenant + ": offered=" + std::to_string(t.offered) +
           " admitted=" + std::to_string(t.admitted) +
           " shed=" + std::to_string(t.shed) +
           " completed=" + std::to_string(t.completed) +
           " slo_miss=" + std::to_string(t.slo_misses) +
           " p50=" + FormatMs(t.p50_ms) + "ms p99=" + FormatMs(t.p99_ms) +
           "ms p999=" + FormatMs(t.p999_ms) +
           "ms max_queue=" + std::to_string(t.max_queue) + "\n";
  }
  out += "total: offered=" + std::to_string(offered) +
         " admitted=" + std::to_string(admitted) +
         " shed=" + std::to_string(shed) +
         " completed=" + std::to_string(completed) +
         " makespan=" + FormatMs(makespan_ms) +
         "ms sustained_qps=" + FormatMs(sustained_qps) + "\n";
  return out;
}

TrafficReport RunFrontDoor(const std::vector<TenantSpec>& tenants,
                           const std::vector<Arrival>& arrivals,
                           const std::vector<double>& preset_cost_ms,
                           const FrontDoorOptions& options) {
  VAQ_CHECK_GT(options.num_workers, 0);
  VAQ_CHECK(!tenants.empty());
  const size_t n = tenants.size();

  Scheduler sched;
  sched.tenants = &tenants;
  sched.queues.resize(n);
  sched.deficit.assign(n, 0.0);

  TrafficReport report;
  report.tenants.resize(n);
  for (size_t i = 0; i < n; ++i) report.tenants[i].tenant = tenants[i].name;
  std::vector<std::vector<double>> sojourns(n);

  // Virtual workers: free_at[w] is when slot w can take its next query,
  // worker_tenant[w] whose query it is currently running (-1 idle).
  std::vector<double> free_at(static_cast<size_t>(options.num_workers), 0.0);
  std::vector<int> worker_tenant(static_cast<size_t>(options.num_workers),
                                 -1);

  const auto admit = [&](const Arrival& a) {
    TenantReport& t = report.tenants[static_cast<size_t>(a.tenant)];
    ++t.offered;
    ++report.offered;
    const TenantSpec& spec = tenants[static_cast<size_t>(a.tenant)];
    auto& queue = sched.queues[static_cast<size_t>(a.tenant)];
    // The quota counts admitted-but-unfinished: queued plus still in
    // service at the arrival instant (every dispatch at or before this
    // time has already been decided, so the scan is exact).
    int pending = static_cast<int>(queue.size());
    for (size_t w = 0; w < free_at.size(); ++w) {
      if (worker_tenant[w] == a.tenant && free_at[w] > a.at_ms) ++pending;
    }
    if (pending >= spec.queue_quota) {
      ++t.shed;
      ++report.shed;
      return;
    }
    queue.push_back(a);
    ++sched.queued;
    ++t.admitted;
    ++report.admitted;
    t.max_queue = std::max(t.max_queue, static_cast<int>(queue.size()));
  };
  fault::SimClock clock;
  size_t next = 0;

  while (true) {
    if (sched.queued == 0) {
      if (next >= arrivals.size()) break;
      clock.AdvanceTo(arrivals[next].at_ms);
      admit(arrivals[next]);
      ++next;
      continue;
    }
    // Earliest-free worker; ties break to the lowest index so the
    // schedule is deterministic.
    size_t w = 0;
    for (size_t i = 1; i < free_at.size(); ++i) {
      if (free_at[i] < free_at[w]) w = i;
    }
    const double dispatch_at = std::max(free_at[w], clock.now_ms());
    // Everything arriving by the dispatch instant joins the queues first
    // (admission sees the true queue depth at its own arrival time — the
    // queue cannot have drained in between, the workers were busy).
    while (next < arrivals.size() && arrivals[next].at_ms <= dispatch_at) {
      admit(arrivals[next]);
      ++next;
    }
    clock.AdvanceTo(dispatch_at);
    const int tenant = sched.Select(preset_cost_ms);
    const Arrival q = sched.Pop(tenant, preset_cost_ms);
    const double done_at =
        dispatch_at + preset_cost_ms[static_cast<size_t>(q.preset)];
    free_at[w] = done_at;
    worker_tenant[w] = tenant;
    TenantReport& t = report.tenants[static_cast<size_t>(tenant)];
    ++t.completed;
    ++report.completed;
    const double sojourn_ms = done_at - q.at_ms;
    sojourns[static_cast<size_t>(tenant)].push_back(sojourn_ms);
    if (sojourn_ms > tenants[static_cast<size_t>(tenant)].slo_ms) {
      ++t.slo_misses;
    }
    report.makespan_ms = std::max(report.makespan_ms, done_at);
  }

  for (size_t i = 0; i < n; ++i) {
    std::vector<double>& samples = sojourns[i];
    std::sort(samples.begin(), samples.end());
    TenantReport& t = report.tenants[i];
    t.p50_ms = obs::PercentileNearestRank(samples, 0.5);
    t.p99_ms = obs::PercentileNearestRank(samples, 0.99);
    t.p999_ms = obs::PercentileNearestRank(samples, 0.999);
    t.max_ms = samples.empty() ? 0.0 : samples.back();
  }
  if (report.makespan_ms > 0.0) {
    report.sustained_qps =
        static_cast<double>(report.completed) / (report.makespan_ms / 1000.0);
  }

  if (options.record_metrics) {
    obs::MetricRegistry& registry = obs::MetricRegistry::Global();
    for (size_t i = 0; i < n; ++i) {
      const TenantReport& t = report.tenants[i];
      const obs::Labels by_tenant = {{"tenant", t.tenant}};
      registry.GetCounter("vaq_traffic_offered_total", by_tenant)
          ->Increment(t.offered);
      registry.GetCounter("vaq_traffic_shed_total", by_tenant)
          ->Increment(t.shed);
      registry.GetCounter("vaq_traffic_completed_total", by_tenant)
          ->Increment(t.completed);
      registry.GetCounter("vaq_traffic_slo_miss_total", by_tenant)
          ->Increment(t.slo_misses);
      const auto quantile = [&](const char* q) {
        obs::Labels labels = by_tenant;
        labels.emplace_back("quantile", q);
        return labels;
      };
      registry.GetGauge("vaq_traffic_sojourn_ms", quantile("0.5"))
          ->Set(t.p50_ms);
      registry.GetGauge("vaq_traffic_sojourn_ms", quantile("0.99"))
          ->Set(t.p99_ms);
      registry.GetGauge("vaq_traffic_sojourn_ms", quantile("0.999"))
          ->Set(t.p999_ms);
    }
  }
  return report;
}

}  // namespace traffic
}  // namespace vaq
