// Table 8: speedup of RVAQ over Pq-Traverse on the movies Iron Man,
// Star Wars 3 and Titanic, as K varies up to the total number of result
// sequences ("max K").
//
// Paper shape: ~2.7-3.7x at K=1, decaying towards ~1x at max K (where
// every sequence's exact score must be produced anyway). The bench also
// reports RVAQ's ranked-result accuracy against ground truth (§5.3 text:
// precision > 81%, F1 > 82.9%, top-10 perfect).
#include <initializer_list>

#include "bench/bench_util.h"
#include "bench/offline_util.h"
#include "eval/metrics.h"

int main() {
  using namespace vaq;
  bench::TablePrinter table(
      "Table 8 — speedup of RVAQ against Pq-Traverse (modeled runtime)",
      {"movie", "K=1", "K=3", "K=5", "K=7", "K=9", "K=11", "maxK", "maxK_is"});
  bench::TablePrinter accuracy(
      "§5.3 — RVAQ ranked-result accuracy vs ground truth",
      {"movie", "pq_seqs", "precision", "F1", "top10_precision"});

  for (const synth::MovieId id :
       {synth::MovieId::kIronMan, synth::MovieId::kStarWars3,
        synth::MovieId::kTitanic}) {
    bench::OfflineFixture fixture(synth::Scenario::Movie(id));
    const int64_t max_k = static_cast<int64_t>(fixture.pq.size());
    std::vector<std::string> row = {synth::MovieName(id)};
    for (int64_t k : {1L, 3L, 5L, 7L, 9L, 11L, max_k}) {
      k = std::min(k, max_k);
      const double traverse_ms =
          offline::PqTraverse(fixture.tables, fixture.scoring, k)
              .accesses.ModeledMs();
      const double rvaq_ms = fixture.RunRvaq(k).accesses.ModeledMs();
      row.push_back(bench::Fmt("%.2fx", traverse_ms / rvaq_ms));
    }
    row.push_back(bench::Fmt(max_k));
    table.AddRow(row);

    // Accuracy of the full ranking against ground truth.
    const offline::TopKResult all = fixture.RunRvaq(max_k);
    IntervalSet result_set;
    for (const offline::RankedSequence& seq : all.top) {
      result_set.Add(seq.clips);
    }
    const IntervalSet truth = fixture.scenario.TruthClips();
    const eval::F1Result f1 = eval::SequenceF1(result_set, truth, 0.5);
    // Top-10 precision: how many of the 10 best-ranked sequences match a
    // truth sequence at IoU 0.5.
    int top10_tp = 0;
    int top10_n = 0;
    for (size_t i = 0; i < all.top.size() && i < 10; ++i) {
      ++top10_n;
      for (const Interval& gt : truth.intervals()) {
        if (IntervalIoU(all.top[i].clips, gt) >= 0.5) {
          ++top10_tp;
          break;
        }
      }
    }
    accuracy.AddRow(
        {synth::MovieName(id), bench::Fmt(max_k),
         bench::Fmt("%.3f", f1.precision), bench::Fmt("%.3f", f1.f1),
         bench::Fmt("%.2f", top10_n > 0 ? static_cast<double>(top10_tp) /
                                              top10_n
                                        : 0.0)});
  }
  table.Print();
  accuracy.Print();
  return 0;
}
