// Snapshot exporters: Prometheus text exposition and JSON.
//
// Both render a `Snapshot` (obs/metrics.h) deterministically — families
// sorted by (name, labels), doubles formatted by one shared routine — so
// two snapshots with equal values export byte-identical strings (the
// property the tier-1 `vaqctl metrics` determinism check relies on).
//
// Prometheus text follows the exposition format: one `# TYPE` line per
// family, histogram expansion into cumulative `_bucket{le=...}` series
// plus `_sum` and `_count`. JSON is a single object:
//
//   {"metrics": [{"name": ..., "labels": {...}, "type": "counter",
//                 "value": N}, ...,
//                {"name": ..., "type": "histogram",
//                 "buckets": [{"le": 1, "count": 3}, ...],
//                 "count": N, "sum": X}]}
#ifndef VAQ_OBS_EXPORT_H_
#define VAQ_OBS_EXPORT_H_

#include <string>

#include "obs/metrics.h"

namespace vaq {
namespace obs {

std::string ExportPrometheus(const Snapshot& snapshot);
std::string ExportJson(const Snapshot& snapshot);

// Minimal structural JSON validator (objects, arrays, strings, numbers,
// true/false/null; UTF-8 passthrough). Returns an empty string when
// `text` parses as exactly one JSON value, otherwise a diagnostic with
// the failing byte offset. Used by `vaqctl metrics --selfcheck` and the
// tier-1 ctest entry to prove the JSON export is well-formed without an
// external parser dependency.
std::string JsonLintError(const std::string& text);

// Promlint-style validator for the Prometheus text exposition format.
// Returns an empty string when `text` is a well-formed exposition,
// otherwise a line-numbered diagnostic. Checks: every line is a `# TYPE`
// declaration or a sample; names and label names match the Prometheus
// charset; label values are quoted with valid escapes; sample values
// parse (including +Inf/-Inf/NaN); every sample belongs to a declared
// family (histograms via `_bucket`/`_sum`/`_count`); histogram bucket
// series are cumulative-monotone, end with le="+Inf", and `_count`
// equals the +Inf bucket. Used by `vaqctl metrics --selfcheck`.
std::string PromLintError(const std::string& text);

}  // namespace obs
}  // namespace vaq

#endif  // VAQ_OBS_EXPORT_H_
