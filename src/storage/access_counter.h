// Access accounting for clip score tables.
//
// The paper's offline evaluation (§5.3, Tables 6-8) reports the *number of
// random accesses to secondary storage* as its primary platform-independent
// cost metric. Every ScoreTable operation is classified as a sorted access
// (next row in score order), a reverse access (next row from the bottom) or
// a random access (score lookup by clip id) and counted here.
//
// Not thread-safe: a counter belongs to the query thread that owns the
// table view it accounts for. Concurrent runtimes (src/serve/) keep one
// AccessCounter per worker and combine them with operator+= once the
// workers have drained — counters are never shared hot.
#ifndef VAQ_STORAGE_ACCESS_COUNTER_H_
#define VAQ_STORAGE_ACCESS_COUNTER_H_

#include <cstdint>
#include <string>

namespace vaq {
namespace storage {

// The repo's one modeled disk cost (profiles, shard scans, serving,
// benches): a seek-like access costs kModeledSeekMs, a sequentially
// streamed row kModeledRowMs. The 500:1 ratio reflects magnetic storage,
// which the paper's runtime ordering (random-access-bound FA slowest,
// sequential Pq-Traverse fast) presupposes.
inline constexpr double kModeledSeekMs = 5.0;
inline constexpr double kModeledRowMs = 0.01;

struct AccessCounter {
  int64_t sorted_accesses = 0;   // Rows read in score order (sequential).
  int64_t reverse_accesses = 0;  // Rows read from the bottom (sequential).
  int64_t random_accesses = 0;   // Single-clip score lookups (seeks).
  int64_t range_scans = 0;       // Contiguous clip-range reads (one seek).
  int64_t range_rows = 0;        // Rows delivered by range scans.

  int64_t total() const {
    return sorted_accesses + reverse_accesses + random_accesses +
           range_rows;
  }
  // Seek-like operations: what dominates on disk (the paper's "number of
  // random disk accesses").
  int64_t seeks() const { return random_accesses + range_scans; }
  // Sequentially streamed rows.
  int64_t sequential_rows() const {
    return sorted_accesses + reverse_accesses + range_rows;
  }
  void Reset() { *this = AccessCounter(); }

  // Modeled disk time: puts the offline algorithms on the paper's
  // runtime scale (Tables 6-8).
  double ModeledMs() const {
    return static_cast<double>(seeks()) * kModeledSeekMs +
           static_cast<double>(sequential_rows()) * kModeledRowMs;
  }

  // Merge at drain of worker-local accumulators: N counters filled on N
  // threads and added on one thread afterwards total exactly what a
  // single-thread run would have counted.
  AccessCounter& operator+=(const AccessCounter& other) {
    sorted_accesses += other.sorted_accesses;
    reverse_accesses += other.reverse_accesses;
    random_accesses += other.random_accesses;
    range_scans += other.range_scans;
    range_rows += other.range_rows;
    return *this;
  }

  std::string ToString() const {
    return "{sorted=" + std::to_string(sorted_accesses) +
           ", reverse=" + std::to_string(reverse_accesses) +
           ", random=" + std::to_string(random_accesses) +
           ", range_scans=" + std::to_string(range_scans) +
           ", range_rows=" + std::to_string(range_rows) + "}";
  }
};

}  // namespace storage
}  // namespace vaq

#endif  // VAQ_STORAGE_ACCESS_COUNTER_H_
