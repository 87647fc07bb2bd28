// One cluster node's shard-local ranked execution.
//
// A `Node` owns a list of video names (its shard of the repository) and
// answers a conjunctive ranked query by running per-video RVAQ — the
// exact single-node code path (offline::RankedScan) over the exact
// single-node per-video K, in video-name order — and sorting the union
// of per-video winners by descending merge score. The coordinator then
// gathers this stream in fixed-size batches, each annotated with the
// highest score still unsent (the shard's remaining upper bound), which
// is what the threshold-algorithm stopping rule consumes.
//
// Execution is lazy and at-most-once per query: a clean run touches each
// video exactly once across the whole cluster, so every engine-level
// metric (vaq_rvaq_*, vaq_storage_accesses_total, ...) lands on the same
// final value as the single-node reference. A follower replica holds the
// same shard and only executes when the coordinator fails over to it.
//
// Batches are a pure function of (shard run, batch size, batch index):
// any replica serves any batch index identically, which is why failover
// needs no hand-off protocol beyond re-pointing fetches.
#ifndef VAQ_CLUSTER_NODE_H_
#define VAQ_CLUSTER_NODE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "offline/repository.h"

namespace vaq {
namespace cluster {

// Modeled disk cost of a shard scan, matching the serving layer's model
// (serve::Server) so single-node and per-shard timings are comparable.
inline constexpr double kShardSeekMs = 5.0;
inline constexpr double kShardRowMs = 0.01;

// One candidate on the wire.
struct ShardEntry {
  std::string video;
  int rank_in_video = 0;  // Position in the per-video RVAQ top list.
  offline::RankedSequence sequence;
  double merge_score = 0.0;  // offline::RankedMergeScore(sequence).
};

// Modeled payload size of one entry (name, interval, bounds, score).
int64_t EntryWireBytes(const ShardEntry& entry);

// A completed shard-local scan: the node's full candidate stream plus
// the accounting the coordinator folds into the global result, summed
// over the shard's videos. The accounting is deterministic per shard
// contents — a replica's run reports identical numbers, so failover
// cannot skew the gathered totals or the adaptive-sampling certificate.
struct ShardRun : offline::RankedScanTotals {
  std::vector<ShardEntry> entries;  // merge_score desc, ties (video, rank).
  double modeled_ms = 0.0;  // Modeled sequential disk time of the scan.
};

// One gather batch: a slice of the shard run, named by index range.
struct ShardBatch {
  int shard = 0;
  int index = 0;     // Batch number within the stream.
  size_t begin = 0;  // ShardRun::entries [begin, end): up to batch_size.
  size_t end = 0;
  // Highest merge score still unsent after this batch — the shard's
  // remaining upper bound. -infinity when the stream is exhausted.
  double next_bound = -std::numeric_limits<double>::infinity();
  bool more = false;
  int64_t wire_bytes = 0;
};

class Node {
 public:
  // `repository` is not owned and must outlive the node. `videos` is
  // this node's shard (sorted by PartitionNames).
  Node(int id, const offline::Repository* repository,
       std::vector<std::string> videos);

  int id() const { return id_; }
  const std::vector<std::string>& videos() const { return videos_; }

  // Runs the shard-local scan of a conjunctive query, one scan->Video()
  // per shard video, at most once: a repeat call returns the cached run.
  // `scan` is the statement's, shared by every node it reaches — the
  // simulation runs all nodes on the coordinator's thread, so one
  // workspace serves the statement. Thread-compatible, not thread-safe.
  StatusOr<const ShardRun*> RunRanked(offline::RankedScan* scan);

  // Whether the shard scan has executed for the current query.
  bool has_run() const { return has_run_; }

  // The cached run; valid only when has_run().
  const ShardRun* run() const { return &run_; }

  // Batch `index` of the cached run (RunRanked first). Its entries stay
  // in the run, which outlives every batch of the query.
  ShardBatch Batch(int shard, int index, int batch_size) const;

  // Total batches of the cached run under `batch_size`.
  int NumBatches(int batch_size) const;

  // Drops the cached run (the node is reused for the next query).
  void ResetRun();

 private:
  int id_;
  const offline::Repository* repository_;
  std::vector<std::string> videos_;
  bool has_run_ = false;
  ShardRun run_;
};

}  // namespace cluster
}  // namespace vaq

#endif  // VAQ_CLUSTER_NODE_H_
