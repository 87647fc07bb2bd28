#include "cluster/node.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace vaq {
namespace cluster {
namespace {

// Modeled payload size of one entry: name + interval endpoints + three
// bounds + rank + framing.
int64_t EntryWireBytes(const ShardEntry& entry) {
  return static_cast<int64_t>(entry.video->name.size()) + 48;
}

}  // namespace

Node::Node(int id, std::vector<ShardVideo> videos)
    : id_(id), videos_(std::move(videos)) {}

StatusOr<const ShardRun*> Node::RunRanked(offline::RankedScan* scan) {
  if (has_run_) return &run_;
  // A fresh run that keeps the entries' storage.
  run_.entries.clear();
  run_ = ShardRun{{}, std::move(run_.entries), 0.0};
  for (const ShardVideo& video : videos_) {
    VAQ_ASSIGN_OR_RETURN(const std::vector<offline::RankedSequence>* top,
                         scan->Video(video.name, *video.index, &run_));
    for (size_t rank = 0; rank < top->size(); ++rank) {
      const offline::RankedSequence& sequence = (*top)[rank];
      run_.entries.push_back(ShardEntry{&video, static_cast<int>(rank),
                                        sequence,
                                        offline::RankedMergeScore(sequence)});
    }
  }
  run_.modeled_ms = run_.accesses.ModeledMs();
  // The gather stream: descending merge score. The tie order does not
  // affect the merged result (the coordinator merges by single-node
  // position), but (video rank, rank) keeps it deterministic — and,
  // being unique per entry, makes this order total. Video ranks follow
  // the name order, so this is the (video name, rank) order.
  std::sort(run_.entries.begin(), run_.entries.end(),
            [](const ShardEntry& a, const ShardEntry& b) {
              if (a.merge_score != b.merge_score) {
                return a.merge_score > b.merge_score;
              }
              if (a.video->rank != b.video->rank) {
                return a.video->rank < b.video->rank;
              }
              return a.rank_in_video < b.rank_in_video;
            });
  has_run_ = true;
  return &run_;
}

Message Node::Batch(const Message& request, int batch_size) const {
  VAQ_CHECK(has_run_);
  VAQ_CHECK_GT(batch_size, 0);
  Message batch = request;
  const size_t size = run_.entries.size();
  batch.begin = std::min(size, static_cast<size_t>(request.index) *
                                   static_cast<size_t>(batch_size));
  batch.end = std::min(size, batch.begin + static_cast<size_t>(batch_size));
  batch.more = batch.end < size;
  batch.next_bound = batch.more ? run_.entries[batch.end].merge_score
                                : -std::numeric_limits<double>::infinity();
  return batch;
}

int64_t Node::WireBytes(const Message& batch) const {
  int64_t bytes = 32;  // Header: shard, index, bound, count.
  for (size_t i = batch.begin; i < batch.end; ++i) {
    bytes += EntryWireBytes(run_.entries[i]);
  }
  return bytes;
}

int Node::NumBatches(int batch_size) const {
  VAQ_CHECK(has_run_);
  VAQ_CHECK_GT(batch_size, 0);
  return static_cast<int>((run_.entries.size() +
                           static_cast<size_t>(batch_size) - 1) /
                          static_cast<size_t>(batch_size));
}

void Node::ResetRun() { has_run_ = false; }

}  // namespace cluster
}  // namespace vaq
