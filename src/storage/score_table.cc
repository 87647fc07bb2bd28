#include "storage/score_table.h"

#include <algorithm>
#include <limits>
#include <string>

#include "common/logging.h"

namespace vaq {
namespace storage {

StatusOr<ScoreTable> ScoreTable::Build(std::vector<Row> rows) {
  if (rows.size() > static_cast<size_t>(std::numeric_limits<int32_t>::max())) {
    return Status::InvalidArgument("score table holds more than INT32_MAX "
                                   "rows: " + std::to_string(rows.size()));
  }
  ScoreTable table;
  table.by_clip_.assign(rows.size(), 0.0);
  std::vector<bool> seen(rows.size(), false);
  for (const Row& row : rows) {
    if (row.clip < 0 || row.clip >= static_cast<int64_t>(rows.size())) {
      return Status::InvalidArgument("clip id out of range: " +
                                     std::to_string(row.clip));
    }
    if (seen[static_cast<size_t>(row.clip)]) {
      return Status::InvalidArgument("duplicate clip id: " +
                                     std::to_string(row.clip));
    }
    seen[static_cast<size_t>(row.clip)] = true;
    table.by_clip_[static_cast<size_t>(row.clip)] = row.score;
  }
  // Stable order among ties: lower clip id first, to keep runs
  // deterministic.
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.clip < b.clip;
  });
  table.by_rank_.reserve(rows.size());
  for (const Row& row : rows) {
    table.by_rank_.push_back(static_cast<int32_t>(row.clip));
  }
  return table;
}

ScoreTable::Row ScoreTable::SortedRow(int64_t rank) const {
  VAQ_CHECK_GE(rank, 0);
  VAQ_CHECK_LT(rank, num_rows());
  ++counter_.sorted_accesses;
  return RowAt(by_rank_[static_cast<size_t>(rank)]);
}

ScoreTable::Row ScoreTable::ReverseRow(int64_t rank) const {
  VAQ_CHECK_GE(rank, 0);
  VAQ_CHECK_LT(rank, num_rows());
  ++counter_.reverse_accesses;
  return RowAt(by_rank_[static_cast<size_t>(num_rows() - 1 - rank)]);
}

double ScoreTable::RandomScore(ClipIndex cid) const {
  VAQ_CHECK_GE(cid, 0);
  VAQ_CHECK_LT(cid, num_rows());
  ++counter_.random_accesses;
  return by_clip_[static_cast<size_t>(cid)];
}

void ScoreTable::RangeScores(ClipIndex lo, ClipIndex hi,
                             std::vector<double>* out) const {
  VAQ_CHECK_GE(lo, 0);
  VAQ_CHECK_LE(lo, hi);
  VAQ_CHECK_LT(hi, num_rows());
  ++counter_.range_scans;
  counter_.range_rows += hi - lo + 1;
  for (ClipIndex c = lo; c <= hi; ++c) {
    out->push_back(by_clip_[static_cast<size_t>(c)]);
  }
}

double ScoreTable::PeekScore(ClipIndex cid) const {
  VAQ_CHECK_GE(cid, 0);
  VAQ_CHECK_LT(cid, num_rows());
  return by_clip_[static_cast<size_t>(cid)];
}

}  // namespace storage
}  // namespace vaq
