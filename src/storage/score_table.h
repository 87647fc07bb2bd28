// Clip score tables (§4.2 of the paper).
//
// During ingestion, every object type o_i and action type a_j gets a table
// table_{o_i} : {cid, Score} holding one row per clip, ordered by Score
// descending. Query processing touches tables through three counted access
// paths mirroring the top-k literature [Fagin]:
//
//   * sorted access   — read the row at a given rank from the top;
//   * reverse access  — read the row at a given rank from the bottom
//                       (TBClip's bottom cursor, Algorithm 5 step 3);
//   * random access   — look up the score of a given clip id.
//
// Tables persist inside the ingested-video catalog (storage/catalog.h),
// which stores each table's scores in clip order and rebuilds it here.
#ifndef VAQ_STORAGE_SCORE_TABLE_H_
#define VAQ_STORAGE_SCORE_TABLE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "storage/access_counter.h"
#include "video/layout.h"

namespace vaq {
namespace storage {

// One row of a clip score table.
struct ScoreRow {
  ClipIndex clip = 0;
  double score = 0.0;
};

// A clip score table held in memory, with counted access paths.
class ScoreTable {
 public:
  using Row = ScoreRow;

  ScoreTable() = default;

  // Builds a table from one row per clip. Clip ids must be exactly
  // 0..rows.size()-1 (every clip of the video has a score; §4.2 stores a
  // row even for zero scores so sorted access can reach every clip), and
  // there are at most INT32_MAX rows.
  static StatusOr<ScoreTable> Build(std::vector<Row> rows);

  int64_t num_rows() const { return static_cast<int64_t>(by_clip_.size()); }
  // Sorted access: the row with the `rank`-th highest score (0-based).
  Row SortedRow(int64_t rank) const;
  // Reverse access: the row with the `rank`-th lowest score (0-based).
  Row ReverseRow(int64_t rank) const;
  // Random access: the score of clip `cid`.
  double RandomScore(ClipIndex cid) const;
  // Range scan over the contiguous clips [lo, hi]. Contiguous clip ids
  // are physically adjacent in the by-clip projection of the table, so a
  // range costs one seek plus sequential rows.
  void RangeScores(ClipIndex lo, ClipIndex hi, std::vector<double>* out)
      const;

  // Uncounted internal lookups (for building ground truth in tests or
  // result verification; not part of the costed query path).
  double PeekScore(ClipIndex cid) const;

  const AccessCounter& counter() const { return counter_; }
  void ResetCounter() const { counter_.Reset(); }

 private:
  Row RowAt(int32_t clip) const {
    return Row{clip, by_clip_[static_cast<size_t>(clip)]};
  }

  // The sorted order as clip ids (score descending, ties by clip id); a
  // row's score is read from by_clip_, so each clip costs 12 bytes.
  std::vector<int32_t> by_rank_;
  std::vector<double> by_clip_;  // Dense score array indexed by clip id.
  mutable AccessCounter counter_;
};

}  // namespace storage
}  // namespace vaq

#endif  // VAQ_STORAGE_SCORE_TABLE_H_
