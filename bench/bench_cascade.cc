// Cost-vs-recall frontier of the ingest-time proxy cascade
// (src/cascade/): the demo corpus is planned and executed at a sweep of
// WITH RECALL targets, reporting the modeled inference bill, the
// surviving-clip fraction and the recall actually achieved against the
// exact top-k.
//
// Costs are the planner's modeled inference bills (the same
// ModelProfile::inference_ms accounting the EXPLAIN ANALYZE profiles
// use), so the frontier is reproducible on any machine.
//
// Expectation (ISSUE acceptance criteria): the frontier is monotone —
// loosening the recall target never raises the modeled cost — and the
// cascade at tau = 0.9 cuts the modeled cost by >= 3x on the demo
// workload. Both are asserted here; the process exits nonzero if either
// fails. The tau = 1.0 point must plan exact (no cascade) and return the
// exact results verbatim.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "tools/pipeline_setup.h"

namespace vaq {
namespace {

constexpr int kVideos = 6;
constexpr uint64_t kSeed = 7;
constexpr int64_t kK = 5;

int Run() {
  const StatusOr<tools::CascadeDemo> demo =
      tools::MakeCascadeDemo(kVideos, kSeed);
  if (!demo.ok()) {
    std::fprintf(stderr, "cascade demo setup failed: %s\n",
                 demo.status().ToString().c_str());
    return 1;
  }

  const std::vector<double> targets = {1.0, 0.99, 0.95, 0.9, 0.8, 0.7};
  bench::TablePrinter table(
      "Proxy cascade cost-vs-recall frontier (modeled)",
      {"tau", "plan", "cost_ms", "reduction", "surviving", "predicted",
       "achieved"});
  std::vector<tools::CascadeFrontierPoint> points;
  for (const double tau : targets) {
    const StatusOr<tools::CascadeFrontierPoint> point =
        tools::RunCascadeFrontierPoint(demo.value(), tau, kK);
    if (!point.ok()) {
      std::fprintf(stderr, "frontier point tau=%.2f failed: %s\n", tau,
                   point.status().ToString().c_str());
      return 1;
    }
    const tools::CascadeFrontierPoint& p = point.value();
    points.push_back(p);
    table.AddRow({bench::Fmt("%.2f", p.recall_target),
                  p.use_cascade ? "cascade" : "exact",
                  bench::Fmt("%.0f", p.cascade_cost_ms),
                  bench::Fmt("%.2f", p.cost_reduction),
                  bench::Fmt(p.clips_surviving) + "/" +
                      bench::Fmt(p.clips_total),
                  bench::Fmt("%.3f", p.predicted_recall),
                  bench::Fmt("%.3f", p.achieved_recall)});
  }
  table.Print();

  // The frontier must be monotone: a looser recall target can only
  // lower the modeled cost (the planner falls back to exact whenever
  // the cascade would not win, so cost is capped at full cost too).
  bool monotone_ok = true;
  for (size_t i = 1; i < points.size(); ++i) {
    if (points[i].cascade_cost_ms > points[i - 1].cascade_cost_ms + 1e-9) {
      monotone_ok = false;
    }
  }
  double reduction_tau90 = 0.0;
  bool recall_ok = true;
  for (const tools::CascadeFrontierPoint& p : points) {
    if (p.recall_target == 0.9) reduction_tau90 = p.cost_reduction;
    if (p.achieved_recall + 1e-9 < p.recall_target) recall_ok = false;
  }
  const bool reduction_ok = reduction_tau90 >= 3.0;
  const bool exact_identical =
      !points.empty() && !points.front().use_cascade &&
      points.front().achieved_recall == 1.0;

  std::printf("frontier monotone (cost never rises as tau loosens): %s\n",
              monotone_ok ? "ok" : "FAIL");
  std::printf("modeled cost reduction @tau=0.9: %.2fx (require >= 3.00x): "
              "%s\n",
              reduction_tau90, reduction_ok ? "ok" : "FAIL");
  std::printf("achieved recall >= target at every point: %s\n",
              recall_ok ? "ok" : "FAIL");
  std::printf("tau=1.0 plans exact and returns exact results: %s\n",
              exact_identical ? "ok" : "FAIL");
  return (monotone_ok && reduction_ok && recall_ok && exact_identical) ? 0
                                                                       : 1;
}

}  // namespace
}  // namespace vaq

int main() { return vaq::Run(); }
