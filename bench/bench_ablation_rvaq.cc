// Ablation: RVAQ design choices called out in DESIGN.md.
//
// On the Coffee-and-Cigarettes workload, toggles:
//   * dynamic skip on/off (the §4.3 mechanism);
//   * two-sided vs literal one-sided bound bookkeeping;
//   * exact-score finalization on/off;
// reporting iterations, seeks and modeled runtime for each.
#include <initializer_list>

#include "bench/bench_util.h"
#include "bench/offline_util.h"

int main() {
  using namespace vaq;
  bench::OfflineFixture fixture(
      synth::Scenario::Movie(synth::MovieId::kCoffeeAndCigarettes));
  bench::TablePrinter table(
      "Ablation — RVAQ variants on Coffee and Cigarettes (K=5)",
      {"variant", "iterations", "seeks", "sequential_rows",
       "modeled_runtime_s"});

  struct Variant {
    const char* name;
    offline::RvaqOptions options;
  };
  offline::RvaqOptions base;
  base.k = 5;
  std::vector<Variant> variants;
  variants.push_back({"default (skip, two-sided, exact)", base});
  {
    offline::RvaqOptions v = base;
    v.use_skip = false;
    variants.push_back({"no dynamic skip", v});
  }
  {
    offline::RvaqOptions v = base;
    v.two_sided_bounds = false;
    variants.push_back({"one-sided bounds (paper literal)", v});
  }
  {
    offline::RvaqOptions v = base;
    v.exact_scores = false;
    variants.push_back({"no exact-score finalization", v});
  }
  {
    offline::RvaqOptions v = base;
    v.use_skip = false;
    v.two_sided_bounds = false;
    variants.push_back({"neither skip nor two-sided", v});
  }

  for (const Variant& variant : variants) {
    const offline::TopKResult result =
        offline::Rvaq(&fixture.tables, &fixture.scoring, variant.options)
            .Run();
    table.AddRow({variant.name, bench::Fmt(result.iterations),
                  bench::Fmt(result.accesses.seeks()),
                  bench::Fmt(result.accesses.sequential_rows()),
                  bench::Fmt("%.2f",
                             result.accesses.ModeledMs() /
                                 1000.0)});
  }
  table.Print();
  return 0;
}
