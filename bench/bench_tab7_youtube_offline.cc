// Table 7: offline performance on the YouTube dataset (queries q1 and q2,
// K = 5).
//
// Paper shape per query: FA >> RVAQ-noSkip >> Pq-Traverse > RVAQ on
// runtime; FA >> RVAQ-noSkip >> RVAQ on random accesses.
#include "bench/bench_util.h"
#include "bench/offline_util.h"

int main() {
  using namespace vaq;
  bench::TablePrinter table(
      "Table 7 — offline performance on YouTube (K=5): modeled_runtime_s; "
      "seeks x1000",
      {"query", "FA", "RVAQ-noSkip", "Pq-Traverse", "RVAQ"});
  auto cell = [](const offline::TopKResult& result) {
    return bench::Fmt("%.2f", result.accesses.ModeledMs() /
                                  1000.0) +
           "; " + bench::Fmt("%.3f",
                             static_cast<double>(result.accesses.seeks()) /
                                 1000.0);
  };
  for (int qi : {1, 2}) {
    bench::OfflineFixture fixture(synth::Scenario::YouTube(qi));
    const int64_t k = 5;
    table.AddRow({"q" + std::to_string(qi),
                  cell(offline::FaTopK(fixture.tables, fixture.scoring, k)),
                  cell(fixture.RunRvaq(k, /*use_skip=*/false)),
                  cell(offline::PqTraverse(fixture.tables, fixture.scoring,
                                           k)),
                  cell(fixture.RunRvaq(k))});
  }
  table.Print();
  return 0;
}
