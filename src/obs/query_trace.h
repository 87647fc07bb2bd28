// Per-query cost attribution: profile trees, context propagation, Chrome
// trace export and exact-sample latency percentiles.
//
// The process-global registry (obs/metrics.h) answers "how much did this
// *process* spend"; a `QueryTrace` answers "where did *this query's*
// simulated milliseconds and model calls go" once the query crosses the
// serve worker pool or the cluster scatter–gather. A trace is a tree of
// named phase nodes; every node accumulates self simulated-ms plus named
// integer stats (model calls, cache hits, pruned clips, net bytes, ...).
//
// A `QueryContext` is the handle threaded through execution: a pointer to
// the owning trace plus the node the current phase should charge. All
// operations no-op on a null trace, so instrumented code paths cost one
// branch when tracing is off. Cross-thread propagation is explicit —
// the admitting thread mints the context, the worker installs it with
// `ScopedQueryContext`, and leaf code (e.g. the resilient model wrappers)
// reads `CurrentQueryContext()` instead of growing a parameter on every
// engine signature.
//
// Determinism: nodes are created get-or-create by (parent, name) in
// first-creation order, and only one thread executes a given query at a
// time (the serve layer pins a query to one worker; the cluster
// coordinator is single-threaded per query), so the tree shape, the
// rendered profile and the exported Chrome JSON are byte-identical per
// seed at any thread or shard count. Timestamps never enter a trace —
// `ExportChromeTrace` lays spans out on a virtual timeline derived from
// the accumulated simulated-ms alone.
#ifndef VAQ_OBS_QUERY_TRACE_H_
#define VAQ_OBS_QUERY_TRACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace vaq {
namespace obs {

// A tree of phase nodes for one query. Thread-compatible: concurrent
// calls are safe (internal mutex), but deterministic node ordering is
// only guaranteed when one thread at a time grows a given subtree.
class QueryTrace {
 public:
  struct Node {
    std::string name;
    int parent = -1;  // -1 for the root.
    std::vector<int> children;
    double self_ms = 0.0;
    std::map<std::string, int64_t> stats;  // Sorted for rendering.
  };

  // Creates the root node (id 0) named `root_name` — conventionally the
  // query id ("q3") or statement form ("explain").
  explicit QueryTrace(std::string root_name);

  // Get-or-create the child of `parent` named `name`; returns its id.
  // Repeated phases fold into one node (their ms and stats accumulate).
  int Child(int parent, const std::string& name);

  void AddMs(int node, double ms);
  void AddStat(int node, const std::string& key, int64_t delta);

  // Deterministic profile tree, one node per line:
  //   <root>  self=0.000ms total=12.340ms
  //     <child>  self=12.340ms total=12.340ms  rows=120 seeks=4
  // total = self + sum of children's totals.
  std::string RenderProfile() const;

  const std::string& root_name() const;
  // Copy of the node table (for exporters and tests).
  std::vector<Node> snapshot() const;

 private:
  mutable std::mutex mu_;
  std::vector<Node> nodes_;
};

// The handle threaded through execution: which trace, which node to
// charge. Copyable by value; a default context traces nothing.
struct QueryContext {
  QueryTrace* trace = nullptr;
  int node = 0;

  bool active() const { return trace != nullptr; }
  // Context for the child phase `name` (no-op context when inactive).
  QueryContext Child(const std::string& name) const;
  void AddMs(double ms) const;
  void AddStat(const std::string& key, int64_t delta) const;
};

// Thread-local current context, for leaf code that cannot take a context
// parameter (the resilient model wrappers). Defaults to inactive.
const QueryContext& CurrentQueryContext();

// Installs `ctx` as the thread's current context for the scope.
class ScopedQueryContext {
 public:
  explicit ScopedQueryContext(const QueryContext& ctx);
  ~ScopedQueryContext();

  ScopedQueryContext(const ScopedQueryContext&) = delete;
  ScopedQueryContext& operator=(const ScopedQueryContext&) = delete;

 private:
  QueryContext prev_;
};

// Chrome trace-event JSON ("X" complete events) over the given traces,
// one tid per trace, laid out on a virtual timeline (root at 0, each
// child starts after its earlier siblings' totals). Node stats become
// event args. The output passes `JsonLintError` (obs/export.h) and is a
// pure function of the traces' contents.
std::string ExportChromeTrace(const std::vector<const QueryTrace*>& traces);

// Nearest-rank percentile over an ascending-sorted sample vector;
// returns 0.0 when empty.
double PercentileNearestRank(const std::vector<double>& sorted,
                             double quantile);

// Exact-sample latency percentile tracker. Every `Record` adds its
// sample to a sorted run-length multiset — one (value, count) run per
// distinct value, so memory grows with the distinct values, not the
// samples — and republishes nearest-rank p50/p99/p999 as
//   <name>{path="<path>",quantile="0.5|0.99|0.999"}
// gauges plus a <name>_count{path=...} counter in the global registry.
// Because the gauges are a pure function of the sample *multiset*, the
// exported values are identical at any thread count for a fixed
// workload.
class LatencyRecorder {
 public:
  LatencyRecorder(const std::string& name, const std::string& path);

  // Arbitrary-label variant: publishes <name>{<labels>,quantile=...}
  // gauges plus <name>_count{<labels>}. The multi-tenant front door uses
  // it for per-tenant percentiles ({tenant="..."}).
  LatencyRecorder(const std::string& name, const Labels& labels);

  void Record(double ms);

  int64_t count() const;
  // Every sample recorded, ascending (the runs expanded).
  std::vector<double> sorted_samples() const;

 private:
  // PercentileNearestRank over the expanded runs. Caller holds mu_.
  double PercentileLocked(double quantile) const;

  mutable std::mutex mu_;
  // Sample value -> how many times it was recorded.
  std::map<double, int64_t> runs_;
  int64_t samples_ = 0;
  Gauge* p50_;
  Gauge* p99_;
  Gauge* p999_;
  Counter* count_;
};

}  // namespace obs
}  // namespace vaq

#endif  // VAQ_OBS_QUERY_TRACE_H_
