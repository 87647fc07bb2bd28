// Table 6: offline performance on the movie "Coffee and Cigarettes"
// (q: smoking ∧ wine glass ∧ cup) as K varies.
//
// For each algorithm the bench reports the number of random (seek-like)
// accesses — the paper's primary metric — plus the modeled disk runtime
// under the bench_util.h cost model.
//
// Paper shape: FA worst; RVAQ-noSkip in between; Pq-Traverse constant in
// K; RVAQ cheapest and growing with K.
#include <initializer_list>

#include "bench/bench_util.h"
#include "bench/offline_util.h"

int main() {
  using namespace vaq;
  bench::OfflineFixture fixture(
      synth::Scenario::Movie(synth::MovieId::kCoffeeAndCigarettes));
  std::printf("Pq: %zu candidate sequences, %lld clips, %lld total clips\n",
              fixture.pq.size(),
              static_cast<long long>(fixture.pq.TotalLength()),
              static_cast<long long>(fixture.index.num_clips));

  bench::TablePrinter table(
      "Table 6 — performance on Coffee and Cigarettes "
      "(modeled_runtime_s; seeks x1000)",
      {"method", "K=1", "K=5", "K=9", "K=11", "K=13", "K=15"});

  auto cell = [](const offline::TopKResult& result) {
    return bench::Fmt("%.2f", result.accesses.ModeledMs() /
                                  1000.0) +
           "; " + bench::Fmt("%.3f",
                             static_cast<double>(result.accesses.seeks()) /
                                 1000.0);
  };

  const std::vector<int64_t> ks = {1, 5, 9, 11, 13, 15};
  std::vector<std::string> fa_row = {"FA"};
  std::vector<std::string> noskip_row = {"RVAQ-noSkip"};
  std::vector<std::string> traverse_row = {"Pq-Traverse"};
  std::vector<std::string> rvaq_row = {"RVAQ"};
  for (const int64_t k : ks) {
    fa_row.push_back(cell(offline::FaTopK(fixture.tables, fixture.scoring,
                                          k)));
    noskip_row.push_back(cell(fixture.RunRvaq(k, /*use_skip=*/false)));
    traverse_row.push_back(
        cell(offline::PqTraverse(fixture.tables, fixture.scoring, k)));
    rvaq_row.push_back(cell(fixture.RunRvaq(k)));
  }
  table.AddRow(fa_row);
  table.AddRow(noskip_row);
  table.AddRow(traverse_row);
  table.AddRow(rvaq_row);
  table.Print();
  return 0;
}
