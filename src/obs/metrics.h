// Process-wide metric registry.
//
// The paper's evaluation is entirely metric-driven (F1 per query, model
// invocations and frame skips for the online engines, random accesses for
// the offline ones), but until now every component kept its own ad-hoc
// counters. `MetricRegistry` gives them a single home with a uniform
// export path (obs/export.h: Prometheus text and JSON):
//
//   * `Counter` — monotone int64 (invocations, retries, rejections);
//   * `Gauge`  — last-write-wins double (queue depth, breaker state);
//   * `Histogram` — the one bucket ladder, `LatencyBucketsMs`, plus
//     count/sum (latencies).
//
// Instruments are *labeled families*: the same name may exist with
// different label sets, e.g.
//
//   vaq_model_calls_total{domain="detector",outcome="ok"}
//   vaq_model_calls_total{domain="detector",outcome="timeout"}
//
// Registration (Get*) takes a mutex, sorts the labels and searches a
// map; the returned pointer is stable for the registry's lifetime, so hot
// paths resolve once and then touch a single relaxed `std::atomic` —
// cheap enough to sit inside the per-frame model loop. A call site that
// runs per query, per video, per message or per clip, with labels fixed
// at the site, resolves once, at its first use, in a function-local
// static:
//
//   static obs::Counter* const pruned = obs::MetricRegistry::Global()
//       .GetCounter("vaq_cascade_videos_pruned_total");
//   pruned->Increment();
//
// Resolving at first use, not eagerly, keeps registration timing: a
// family appears in snapshots only once something has recorded into it.
// A label value that varies at run time over a closed set takes one
// call site per value; objects built per query (Rvaq, Net) resolve per
// process, never in their constructors.
//
// Determinism: every engine records *logical* quantities (event counts,
// simulated milliseconds), and snapshots iterate families in sorted
// (name, labels) order, so a seeded run exports a byte-identical
// snapshot every time (the tier-1 `vaqctl metrics` check and
// tests/obs_integration_test.cc both assert this). Wall time lives only
// in `vaq_wall_*` families (`IsWallFamily`), which span closes fill;
// `ExcludeSnapshot` and checkpoints leave them out.
#ifndef VAQ_OBS_METRICS_H_
#define VAQ_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace vaq {
namespace obs {

// Label set of one family member, e.g. {{"model", "yolo"}}. Order is
// irrelevant: keys are sorted during canonicalization.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Monotone event counter. Relaxed atomics: per-series totals are exact
// because increments are atomic; no cross-series ordering is implied.
class Counter {
 public:
  void Increment(int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Last-write-wins instantaneous value. Stored as raw bits so the hot path
// stays a single atomic store (std::atomic<double> arithmetic is not
// needed; Add is a CAS loop for the rare accumulating gauge).
class Gauge {
 public:
  void Set(double v) { bits_.store(ToBits(v), std::memory_order_relaxed); }
  void Add(double d) {
    uint64_t old = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(old, ToBits(FromBits(old) + d),
                                        std::memory_order_relaxed)) {
    }
  }
  double value() const {
    return FromBits(bits_.load(std::memory_order_relaxed));
  }
  void Reset() { Set(0.0); }

 private:
  static uint64_t ToBits(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
  }
  static double FromBits(uint64_t bits) {
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::atomic<uint64_t> bits_{0};
};

// The one histogram ladder (ms): inclusive upper bounds from 0.1 ms to
// 1e7 ms, each at most 5x the one below, so a quantile read from the
// buckets is off by at most that factor. The top reaches the modeled
// range: one served online statement over the 6-minute demo stream
// costs up to 937,800 simulated ms.
const std::vector<double>& LatencyBucketsMs();

// Fixed-bucket histogram over LatencyBucketsMs(); an implicit +inf bucket
// catches the rest. Cumulative counts are derived at snapshot time
// (Prometheus convention).
class Histogram {
 public:
  Histogram();

  void Observe(double v);

  // Per-bucket (non-cumulative) count; index LatencyBucketsMs().size()
  // is +inf.
  int64_t bucket_count(size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  void Reset();

  // Overwrites the histogram with a snapshot taken by TakeSnapshot
  // (checkpoint recovery). `bucket_counts` must have
  // LatencyBucketsMs().size() + 1 entries. Not atomic with respect to
  // concurrent Observe calls; recovery runs single-threaded before any
  // engine restarts.
  void RestoreState(const std::vector<int64_t>& bucket_counts, int64_t count,
                    double sum);

 private:
  // LatencyBucketsMs().size() + 1.
  std::unique_ptr<std::atomic<int64_t>[]> counts_;
  std::atomic<int64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};
};

// A point-in-time copy of every registered instrument, ordered by
// (name, canonical labels) — the exporters' input.
struct Snapshot {
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    Labels labels;  // Canonical (key-sorted) order.
    Kind kind = Kind::kCounter;
    int64_t counter_value = 0;
    double gauge_value = 0.0;
    // Histogram payload (parallel to bounds, plus the +inf bucket last).
    // A snapshot taken by this build carries LatencyBucketsMs(); one from
    // a build with another ladder does not restore.
    std::vector<double> bounds;
    std::vector<int64_t> bucket_counts;
    int64_t hist_count = 0;
    double hist_sum = 0.0;
  };
  std::vector<Entry> entries;
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // The process-wide registry every engine records into.
  static MetricRegistry& Global();

  // Get-or-create. The returned pointer is stable until the registry is
  // destroyed (never, for Global()); callers cache it. Aborts if `name`
  // is already registered with a different instrument kind.
  Counter* GetCounter(const std::string& name, const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  Histogram* GetHistogram(const std::string& name, const Labels& labels = {});

  Snapshot TakeSnapshot() const;

  // Zeroes every instrument (pointers stay valid). Tests and one-shot
  // tools use this to scope a snapshot to a single run.
  void Reset();

  // Number of Get* calls so far (never reset). Tests read it to assert
  // that a repeated query resolves no instrument.
  int64_t lookups() const;

 private:
  friend Status RestoreSnapshot(const Snapshot& snap);

  struct Instrument {
    Snapshot::Kind kind;
    Labels labels;  // Canonical order, for snapshots.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  // Keyed by (name, canonical label string): std::map keeps snapshot
  // iteration deterministically sorted.
  mutable std::mutex mu_;
  std::map<std::pair<std::string, std::string>, Instrument> instruments_;
  int64_t lookups_ = 0;  // Guarded by mu_.
};

// Canonical label rendering: key-sorted `k1="v1",k2="v2"` with
// backslash/quote/newline escaping (the Prometheus text convention).
std::string CanonicalLabels(Labels labels);

// Loads `snap` back into the global registry: instruments are created on
// demand and overwritten with the recorded values. Instruments registered
// but absent from `snap` are left untouched — recovery paths Reset()
// first when they need a clean slate. Every entry is checked first: one
// whose kind disagrees with the instrument it would overwrite (or with an
// earlier entry for the same instrument), or a histogram whose bounds are
// not LatencyBucketsMs() or whose counts are not one more than its
// bounds, fails the call with kFailedPrecondition naming the family, and
// nothing is overwritten.
Status RestoreSnapshot(const Snapshot& snap);

// True for the families that hold wall-clock time (the `vaq_wall_`
// prefix). They are local to one process and one run: never compared,
// never checkpointed.
bool IsWallFamily(const std::string& name);

// Subset of `in` whose family names start with any of `prefixes`, order
// preserved. Tools and tests use this to export or compare only the
// *logical* families of a run (event counts, simulated milliseconds) and
// leave out timing-dependent ones such as queue-depth gauges.
Snapshot FilterSnapshot(const Snapshot& in,
                        const std::vector<std::string>& prefixes);

// The complement: every entry whose family name starts with none of
// `prefixes` and is not a wall family. Identity checks compare this:
// `ExcludeSnapshot(snap, {})` is every logical family. The cluster
// determinism suite compares a distributed run against the single-node
// reference after excluding the cluster's own `vaq_cluster_*` transport
// accounting — everything that remains must match byte-for-byte.
Snapshot ExcludeSnapshot(const Snapshot& in,
                         const std::vector<std::string>& prefixes);

}  // namespace obs
}  // namespace vaq

#endif  // VAQ_OBS_METRICS_H_
