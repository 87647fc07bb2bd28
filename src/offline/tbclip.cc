#include "offline/tbclip.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace vaq {
namespace offline {

TbClipIterator::TbClipIterator(const QueryTables* tables,
                               ClipScoreSource* source,
                               const std::vector<bool>* skip) {
  Reset(tables, source, skip);
}

void TbClipIterator::Reset(const QueryTables* tables, ClipScoreSource* source,
                           const std::vector<bool>* skip) {
  VAQ_CHECK(tables != nullptr);
  VAQ_CHECK(source != nullptr);
  VAQ_CHECK(skip != nullptr);
  VAQ_CHECK_EQ(static_cast<int64_t>(skip->size()), tables->num_clips);
  tables_ = tables;
  source_ = source;
  skip_ = skip;
  const size_t n = static_cast<size_t>(tables->num_clips);
  const size_t num_tables = tables->tables.size();
  // A clip enters each list (and the pending list) at most once, so
  // reserving n reallocates a list only when n grows, not per doubling.
  for (SideState& side : sides_) {
    side.stamp = 0;
    side.seen_count.assign(n, 0);
    side.seen_list.clear();
    side.seen_list.reserve(n);
    side.complete_cursor = 0;
    side.complete.clear();
    side.complete.reserve(n);
  }
  pending_.reserve(n);
  // Before any row is read, the top side knows no ceiling.
  sides_[0].thresholds.assign(num_tables,
                              std::numeric_limits<double>::infinity());
  sides_[1].thresholds.assign(num_tables, 0.0);
  processed_.assign(n, false);
  clips_processed_ = 0;
}

TbClipIterator::Entry TbClipIterator::SelectExtreme(bool top_side) {
  SideState& side = sides_[top_side ? 0 : 1];
  const std::vector<const storage::ScoreTable*>& tables =
      tables_->AllTables();
  const int64_t num_tables = static_cast<int64_t>(tables.size());
  const int64_t num_rows = tables_->num_clips;

  // Step 1: parallel sorted (or reverse) access until some complete clip
  // is unprocessed and unskipped.
  auto have_candidate = [&]() {
    // Drop decided clips from the front of the complete queue.
    while (side.complete_cursor <
           static_cast<int64_t>(side.complete.size())) {
      const ClipIndex c =
          side.complete[static_cast<size_t>(side.complete_cursor)];
      if (Usable(c)) return true;
      ++side.complete_cursor;
    }
    return false;
  };

  while (!have_candidate() && side.stamp < num_rows) {
    for (int64_t t = 0; t < num_tables; ++t) {
      const storage::ScoreRow row =
          top_side ? tables[static_cast<size_t>(t)]->SortedRow(side.stamp)
                   : tables[static_cast<size_t>(t)]->ReverseRow(side.stamp);
      source_->NoteKnownEntry(static_cast<int>(t), row.clip, row.score);
      side.thresholds[static_cast<size_t>(t)] = row.score;
      int16_t& count = side.seen_count[static_cast<size_t>(row.clip)];
      if (count == 0) side.seen_list.push_back(row.clip);
      ++count;
      if (count == num_tables) side.complete.push_back(row.clip);
    }
    ++side.stamp;
  }
  if (!have_candidate()) return Entry{};  // Side exhausted.

  // Step 2: determine the extreme among the usable seen clips. Clips with
  // fully-known entries are scored for free; partially-known clips are
  // only completed by (counted) random accesses when their
  // threshold-filled bound could still beat the current extreme — this is
  // the "important difference" from a plain Fagin evaluation (§4.4): the
  // monotone score bound prunes most random accesses.
  Entry best;
  auto consider = [&](ClipIndex clip, double score) {
    if (!best.valid() ||
        (top_side ? score > best.score : score < best.score)) {
      best.clip = clip;
      best.score = score;
    }
  };
  pending_.clear();
  for (ClipIndex clip : side.seen_list) {
    if (!Usable(clip)) continue;
    if (source_->HasScore(clip)) {
      consider(clip, source_->Score(clip));  // Cached: free.
    } else {
      pending_.emplace_back(source_->BoundWith(clip, side.thresholds), clip);
    }
  }
  // Most promising bounds first (largest for top, smallest for bottom).
  std::sort(pending_.begin(), pending_.end(),
            [&](const auto& a, const auto& b) {
              return top_side ? a.first > b.first : a.first < b.first;
            });
  for (const auto& [bound, clip] : pending_) {
    if (best.valid() &&
        (top_side ? bound <= best.score : bound >= best.score)) {
      break;  // No remaining clip can beat the extreme.
    }
    consider(clip, source_->Score(clip));
  }
  return best;
}

bool TbClipIterator::Next(Entry* top, Entry* bottom) {
  *top = SelectExtreme(/*top_side=*/true);
  *bottom = SelectExtreme(/*top_side=*/false);
  if (top->valid()) {
    processed_[static_cast<size_t>(top->clip)] = true;
    ++clips_processed_;
  }
  if (bottom->valid() && bottom->clip != top->clip) {
    processed_[static_cast<size_t>(bottom->clip)] = true;
    ++clips_processed_;
  }
  return top->valid() || bottom->valid();
}

}  // namespace offline
}  // namespace vaq
