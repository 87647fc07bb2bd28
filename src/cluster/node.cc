#include "cluster/node.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace vaq {
namespace cluster {

int64_t EntryWireBytes(const ShardEntry& entry) {
  // Name + interval endpoints + three bounds + rank + framing.
  return static_cast<int64_t>(entry.video.size()) + 48;
}

Node::Node(int id, const offline::Repository* repository,
           std::vector<std::string> videos)
    : id_(id), repository_(repository), videos_(std::move(videos)) {}

StatusOr<const ShardRun*> Node::RunRanked(offline::RankedScan* scan) {
  if (has_run_) return &run_;
  run_ = ShardRun();
  for (const std::string& name : videos_) {
    const storage::VideoIndex* index = repository_->Find(name);
    VAQ_CHECK(index != nullptr);
    VAQ_ASSIGN_OR_RETURN(const std::vector<offline::RankedSequence>* top,
                         scan->Video(name, *index, &run_));
    for (size_t rank = 0; rank < top->size(); ++rank) {
      ShardEntry entry;
      entry.video = name;
      entry.rank_in_video = static_cast<int>(rank);
      entry.sequence = (*top)[rank];
      entry.merge_score = offline::RankedMergeScore(entry.sequence);
      run_.entries.push_back(std::move(entry));
    }
  }
  run_.modeled_ms = run_.accesses.ModeledMs(kShardSeekMs, kShardRowMs);
  // The gather stream: descending merge score. The tie order does not
  // affect the merged result (the coordinator re-sorts consumed entries
  // into single-node order), but (video, rank) keeps it deterministic —
  // and, being unique per entry, makes this order total.
  std::sort(run_.entries.begin(), run_.entries.end(),
            [](const ShardEntry& a, const ShardEntry& b) {
              if (a.merge_score != b.merge_score) {
                return a.merge_score > b.merge_score;
              }
              if (a.video != b.video) return a.video < b.video;
              return a.rank_in_video < b.rank_in_video;
            });
  has_run_ = true;
  return &run_;
}

ShardBatch Node::Batch(int shard, int index, int batch_size) const {
  VAQ_CHECK(has_run_);
  VAQ_CHECK_GT(batch_size, 0);
  ShardBatch batch;
  batch.shard = shard;
  batch.index = index;
  const size_t size = run_.entries.size();
  batch.begin = std::min(size, static_cast<size_t>(index) *
                                   static_cast<size_t>(batch_size));
  batch.end = std::min(size, batch.begin + static_cast<size_t>(batch_size));
  for (size_t i = batch.begin; i < batch.end; ++i) {
    batch.wire_bytes += EntryWireBytes(run_.entries[i]);
  }
  batch.wire_bytes += 32;  // Header: shard, index, bound, count.
  if (batch.end < size) {
    batch.more = true;
    batch.next_bound = run_.entries[batch.end].merge_score;
  }
  return batch;
}

int Node::NumBatches(int batch_size) const {
  VAQ_CHECK(has_run_);
  VAQ_CHECK_GT(batch_size, 0);
  return static_cast<int>((run_.entries.size() +
                           static_cast<size_t>(batch_size) - 1) /
                          static_cast<size_t>(batch_size));
}

void Node::ResetRun() {
  has_run_ = false;
  run_ = ShardRun();
}

}  // namespace cluster
}  // namespace vaq
