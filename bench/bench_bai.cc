// Confidence sweep of the best-arm-identification subsystem (src/bai/):
// the seeded BAI demo corpus is queried exactly and WITH CONFIDENCE
// delta in {0.2, 0.1, 0.05, 0.01}, reporting model invocations (table
// seeks + sequential rows — the per-entry model work RVAQ charges), the
// identification certificate and whether the identified top-k matches
// the exact top-k.
//
// Costs are deterministic access counts (no wall clock), so the sweep is
// reproducible on any machine and its stdout is byte-stable per seed
// (the bench_stdout.bai ctest pins it).
//
// Expectation (ISSUE acceptance criteria): at every delta the identified
// top-k equals the exact top-k, every video's identification stops
// confident, and delta = 0.05 saves >= 5x model invocations against the
// exact run. All three are asserted here; the process exits nonzero if
// any fails.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bai/sequence_arms.h"
#include "bench/bench_util.h"
#include "tools/pipeline_setup.h"

namespace vaq {
namespace {

constexpr int kVideos = 4;
constexpr uint64_t kSeed = 7;
constexpr int64_t kK = 1;

int Run() {
  const StatusOr<tools::CascadeDemo> demo = tools::MakeBaiDemo(kVideos, kSeed);
  if (!demo.ok()) {
    std::fprintf(stderr, "bai demo setup failed: %s\n",
                 demo.status().ToString().c_str());
    return 1;
  }

  const std::vector<double> deltas = {0.2, 0.1, 0.05, 0.01};
  bench::TablePrinter table(
      "Adaptive sampling confidence sweep (model invocations)",
      {"delta", "pulls", "eliminated", "stops", "exact", "sampled",
       "savings", "top_match"});
  std::vector<tools::BaiSweepPoint> points;
  for (const double delta : deltas) {
    const StatusOr<tools::BaiSweepPoint> point = tools::RunBaiSweepPoint(
        demo.value(), delta, kK, bai::kQueryBaseSeed);
    if (!point.ok()) {
      std::fprintf(stderr, "sweep point delta=%.2f failed: %s\n", delta,
                   point.status().ToString().c_str());
      return 1;
    }
    const tools::BaiSweepPoint& p = point.value();
    points.push_back(p);
    table.AddRow({bench::Fmt("%.2f", p.delta), bench::Fmt(p.pulls),
                  bench::Fmt(p.arms_eliminated), bench::Fmt(p.stops),
                  bench::Fmt(p.exact_invocations),
                  bench::Fmt(p.sampled_invocations),
                  bench::Fmt("%.2fx", p.savings_x),
                  p.top_match ? "yes" : "NO"});
  }
  table.Print();

  double savings_tau05 = 0.0;
  bool match_ok = true;
  bool stops_ok = true;
  for (const tools::BaiSweepPoint& p : points) {
    if (p.delta == 0.05) savings_tau05 = p.savings_x;
    if (!p.top_match) match_ok = false;
    if (p.stops != kVideos) stops_ok = false;
  }
  const bool savings_ok = savings_tau05 >= 5.0;

  std::printf("identified top-%" PRId64 " equals exact at every delta: %s\n",
              kK, match_ok ? "ok" : "FAIL");
  std::printf("every video stops confident at every delta: %s\n",
              stops_ok ? "ok" : "FAIL");
  std::printf("invocation savings @delta=0.05: %.2fx (require >= 5.00x): "
              "%s\n",
              savings_tau05, savings_ok ? "ok" : "FAIL");
  return (match_ok && stops_ok && savings_ok) ? 0 : 1;
}

}  // namespace
}  // namespace vaq

int main() { return vaq::Run(); }
