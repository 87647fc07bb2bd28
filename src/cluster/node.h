// One cluster node's shard-local ranked execution.
//
// A `Node` holds its shard of the repository as resolved videos and
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
#include <string>
#include <vector>

#include "cluster/net.h"
#include "common/status.h"
#include "offline/repository.h"

namespace vaq {
namespace cluster {

// One video of a shard, resolved once per layout.
struct ShardVideo {
  std::string name;
  const storage::VideoIndex* index = nullptr;
  int rank = 0;  // Position in the repository's sorted name list.
};

// One candidate on the wire.
struct ShardEntry {
  const ShardVideo* video = nullptr;  // The node's; outlives the run.
  int rank_in_video = 0;  // Position in the per-video RVAQ top list.
  offline::RankedSequence sequence;
  double merge_score = 0.0;  // offline::RankedMergeScore(sequence).
};

// A completed shard-local scan: the node's full candidate stream plus
// the accounting the coordinator folds into the global result, summed
// over the shard's videos. The accounting is deterministic per shard
// contents — a replica's run reports identical numbers, so failover
// cannot skew the gathered totals or the adaptive-sampling certificate.
struct ShardRun : offline::RankedScanTotals {
  // merge_score desc, ties (video rank, rank in video).
  std::vector<ShardEntry> entries;
  double modeled_ms = 0.0;  // Modeled sequential disk time of the scan.
};

class Node {
 public:
  // `videos` is this node's shard in name order; their indexes are not
  // owned and must outlive the node.
  Node(int id, std::vector<ShardVideo> videos);

  int id() const { return id_; }

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

  // The reply to `request`, a query or fetch of batch `request.index`,
  // from the cached run (RunRanked first): the request's coordinates
  // with the batch's slice, bound and continuation. Its entries stay in
  // the run, which outlives every batch of the query.
  Message Batch(const Message& request, int batch_size) const;

  // Modeled wire size of a batch reply: its entries plus a header.
  int64_t WireBytes(const Message& batch) const;

  // Total batches of the cached run under `batch_size`.
  int NumBatches(int batch_size) const;

  // Drops the cached run (the node is reused for the next query); the
  // next run reuses its storage.
  void ResetRun();

 private:
  int id_;
  std::vector<ShardVideo> videos_;
  bool has_run_ = false;
  ShardRun run_;
};

}  // namespace cluster
}  // namespace vaq

#endif  // VAQ_CLUSTER_NODE_H_
