#include "offline/baselines.h"

#include <algorithm>

#include "common/logging.h"

namespace vaq {
namespace offline {
namespace {

void ResetCounters(const QueryTables& tables) {
  for (const storage::ScoreTable* t : tables.AllTables()) t->ResetCounter();
}

storage::AccessCounter CollectCounters(const QueryTables& tables) {
  storage::AccessCounter total;
  for (const storage::ScoreTable* t : tables.AllTables()) {
    total += t->counter();
  }
  return total;
}

// Ranks the sequences of `pq` by exact score (all clip scores must be
// obtainable through `source`) and keeps the best `k`.
std::vector<RankedSequence> RankSequences(const IntervalSet& pq,
                                          const ScoringModel& scoring,
                                          ClipScoreSource& source,
                                          int64_t k) {
  std::vector<RankedSequence> ranked;
  ranked.reserve(pq.size());
  for (const Interval& iv : pq.intervals()) {
    RankedSequence seq;
    seq.clips = iv;
    double score = scoring.Identity();
    for (ClipIndex c = iv.lo; c <= iv.hi; ++c) {
      score = scoring.Combine(score, source.Score(c));
    }
    seq.exact_score = score;
    seq.lower_bound = score;
    seq.upper_bound = score;
    seq.has_exact = true;
    ranked.push_back(seq);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const RankedSequence& a, const RankedSequence& b) {
                     return a.exact_score > b.exact_score;
                   });
  if (static_cast<int64_t>(ranked.size()) > k) {
    ranked.resize(static_cast<size_t>(k));
  }
  return ranked;
}

}  // namespace

TopKResult FaTopK(const QueryTables& tables, const ScoringModel& scoring,
                  int64_t k) {
  ResetCounters(tables);
  TopKResult result;
  result.pq = tables.ComputePq();

  ClipScoreSource source(&tables, &scoring);
  const std::vector<const storage::ScoreTable*> all = tables.AllTables();

  // Clips whose score FA must produce: all clips of all candidate
  // sequences.
  int64_t remaining = result.pq.TotalLength();
  std::vector<bool> needed(static_cast<size_t>(tables.num_clips), false);
  for (const Interval& iv : result.pq.intervals()) {
    for (ClipIndex c = iv.lo; c <= iv.hi; ++c) {
      needed[static_cast<size_t>(c)] = true;
    }
  }

  // Parallel sorted access; each produced clip inside P_q is completed by
  // random accesses at once (clips outside P_q are disregarded).
  for (int64_t rank = 0; rank < tables.num_clips && remaining > 0; ++rank) {
    for (size_t t = 0; t < all.size(); ++t) {
      const storage::ScoreRow row = all[t]->SortedRow(rank);
      source.NoteKnownEntry(static_cast<int>(t), row.clip, row.score);
      if (needed[static_cast<size_t>(row.clip)] &&
          !source.HasScore(row.clip)) {
        source.Score(row.clip);
        --remaining;
      }
    }
  }

  result.top = RankSequences(result.pq, scoring, source, k);
  result.accesses = CollectCounters(tables);
  return result;
}

TopKResult PqTraverse(const QueryTables& tables, const ScoringModel& scoring,
                      int64_t k) {
  ResetCounters(tables);
  TopKResult result;
  result.pq = tables.ComputePq();

  // One contiguous range scan per (sequence, table): the clips of a
  // sequence are adjacent, so this baseline is all sequential I/O.
  std::vector<RankedSequence> ranked;
  ranked.reserve(result.pq.size());
  for (const Interval& iv : result.pq.intervals()) {
    RankedSequence seq;
    seq.clips = iv;
    seq.exact_score = ExactSequenceScore(tables, scoring, iv);
    seq.lower_bound = seq.exact_score;
    seq.upper_bound = seq.exact_score;
    seq.has_exact = true;
    ranked.push_back(seq);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const RankedSequence& a, const RankedSequence& b) {
                     return a.exact_score > b.exact_score;
                   });
  if (static_cast<int64_t>(ranked.size()) > k) {
    ranked.resize(static_cast<size_t>(k));
  }
  result.top = std::move(ranked);
  result.accesses = CollectCounters(tables);
  return result;
}

}  // namespace offline
}  // namespace vaq
