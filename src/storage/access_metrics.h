// Mirrors an AccessCounter into the process-wide metric registry.
//
// The offline engines keep their paper-facing access accounting in
// `AccessCounter` (one per table, summed per run); an `AccessMirror`
// folds a finished run's totals into the labeled family
//
//   vaq_storage_accesses_total{engine="rvaq",kind="random"}
//
// so the Prometheus/JSON exporters see the same numbers Tables 6-8
// report. All five kinds are registered together, even when zero,
// keeping the snapshot shape independent of the data. Engines hold one
// mirror per process, a function-local static built at the first run:
//
//   static const storage::AccessMirror mirror("rvaq");
//   mirror.Add(result.accesses);
#ifndef VAQ_STORAGE_ACCESS_METRICS_H_
#define VAQ_STORAGE_ACCESS_METRICS_H_

#include <string>

#include "obs/metrics.h"
#include "storage/access_counter.h"

namespace vaq {
namespace storage {

class AccessMirror {
 public:
  explicit AccessMirror(const std::string& engine)
      : sorted_(Resolve(engine, "sorted")),
        reverse_(Resolve(engine, "reverse")),
        random_(Resolve(engine, "random")),
        range_scan_(Resolve(engine, "range_scan")),
        range_row_(Resolve(engine, "range_row")) {}

  void Add(const AccessCounter& counter) const {
    sorted_->Increment(counter.sorted_accesses);
    reverse_->Increment(counter.reverse_accesses);
    random_->Increment(counter.random_accesses);
    range_scan_->Increment(counter.range_scans);
    range_row_->Increment(counter.range_rows);
  }

 private:
  static obs::Counter* Resolve(const std::string& engine, const char* kind) {
    return obs::MetricRegistry::Global().GetCounter(
        "vaq_storage_accesses_total", {{"engine", engine}, {"kind", kind}});
  }

  obs::Counter* const sorted_;
  obs::Counter* const reverse_;
  obs::Counter* const random_;
  obs::Counter* const range_scan_;
  obs::Counter* const range_row_;
};

}  // namespace storage
}  // namespace vaq

#endif  // VAQ_STORAGE_ACCESS_METRICS_H_
