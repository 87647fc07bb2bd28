#include "offline/rvaq.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "offline/tbclip.h"
#include "storage/access_metrics.h"

namespace vaq {
namespace offline {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

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

// Empties `result` for a new run, keeping the storage of `top` and `pq`.
void ResetResult(TopKResult* result) {
  std::vector<RankedSequence> top = std::move(result->top);
  IntervalSet pq = std::move(result->pq);
  top.clear();
  *result = TopKResult();
  result->top = std::move(top);
  result->pq = std::move(pq);
}

// Sorts `order` (indices into `keys`) by key descending, ties by index:
// the permutation a stable sort of the identity order produces, without
// a stable sort's temporary buffer.
template <typename Key>
void SortIndicesDescending(std::vector<size_t>* order, size_t n, Key key) {
  order->resize(n);
  for (size_t i = 0; i < n; ++i) (*order)[i] = i;
  std::sort(order->begin(), order->end(), [&](size_t a, size_t b) {
    const double ka = key(a);
    const double kb = key(b);
    if (ka != kb) return ka > kb;
    return a < b;
  });
}

}  // namespace

Rvaq::Rvaq(const QueryTables* tables, const ScoringModel* scoring,
           RvaqOptions options)
    : tables_(tables), scoring_(scoring), options_(options) {
  VAQ_CHECK(tables != nullptr);
  VAQ_CHECK(scoring != nullptr);
  VAQ_CHECK_GE(options.k, 1);
}

TopKResult Rvaq::Run() const {
  RvaqWorkspace workspace;
  Run(&workspace);
  return std::move(workspace.result_);
}

const TopKResult& Rvaq::Run(RvaqWorkspace* workspace) const {
  using SeqState = RvaqWorkspace::SeqState;
  VAQ_TRACE_SPAN("rvaq/run");
  const auto start = std::chrono::steady_clock::now();
  ResetCounters(*tables_);

  TopKResult& result = workspace->result_;
  ResetResult(&result);
  {
    VAQ_TRACE_SPAN("rvaq/compute_pq");
    tables_->ComputePq(&result.pq, &workspace->pq_cover_,
                       &workspace->pq_scratch_);
  }

  // Cascade pre-filter: drop candidate sequences with no surviving clip.
  // Retained intervals keep their FULL extent — the proxy only decides
  // which sequences participate, never which of their clips score — so
  // every retained sequence's bounds and exact score are byte-identical
  // to an unfiltered run. Every subset of P_q's canonical intervals, in
  // order, is canonical too, so candidates stay a plain ordered list.
  std::vector<Interval>& candidates = workspace->candidates_;
  candidates.clear();
  if (options_.clip_filter == nullptr) {
    candidates.assign(result.pq.intervals().begin(),
                      result.pq.intervals().end());
  } else {
    const std::vector<Interval>& surviving =
        options_.clip_filter->intervals();
    for (const Interval& iv : result.pq.intervals()) {
      bool keep = false;
      for (const Interval& f : surviving) {
        if (f.lo > iv.hi) break;
        if (iv.Overlaps(f)) {
          keep = true;
          break;
        }
      }
      if (keep) {
        candidates.push_back(iv);
      } else {
        ++result.candidates_pruned;
      }
    }
    static obs::Counter* const candidates_pruned =
        obs::MetricRegistry::Global().GetCounter(
            "vaq_cascade_candidates_pruned_total");
    candidates_pruned->Increment(result.candidates_pruned);
  }

  ClipScoreSource& source = workspace->source_;
  source.Reset(tables_, scoring_);

  // Adaptive identification (WITH CONFIDENCE δ, src/bai/): sample clip
  // scores through `source` to identify a >= k superset of the top-k, then
  // hand only the surviving arms to the exact bound loop below. Pulls run
  // AFTER the cascade pre-filter (proxy prune first, then sample) and
  // charge real random accesses through the shared source, whose cache
  // then warms the survivors' exact re-ranking. Survivors keep their full
  // extent, so their bounds and exact scores are byte-identical to an
  // unfiltered run — only set membership is approximate, at confidence δ.
  if (options_.identifier != nullptr &&
      static_cast<int64_t>(candidates.size()) > options_.k) {
    VAQ_TRACE_SPAN("rvaq/bai_identify");
    const IdentifyOutcome outcome = options_.identifier->Identify(
        candidates, options_.k, options_.identifier_seed, &source);
    VAQ_CHECK_EQ(outcome.keep.size(), candidates.size());
    size_t kept = 0;
    for (size_t i = 0; i < outcome.keep.size(); ++i) {
      if (outcome.keep[i]) candidates[kept++] = candidates[i];
    }
    candidates.resize(kept);
    VAQ_CHECK_GE(static_cast<int64_t>(kept), options_.k);
    result.bai_pulls = outcome.pulls;
    result.bai_arms_eliminated = outcome.arms_eliminated;
    result.bai_stopped = outcome.stopped;
    result.bai_stopping_statistic = outcome.stopping_statistic;
    static obs::Counter* const pulls =
        obs::MetricRegistry::Global().GetCounter("vaq_bai_pulls_total");
    static obs::Counter* const arms_eliminated =
        obs::MetricRegistry::Global().GetCounter(
            "vaq_bai_arms_eliminated_total");
    pulls->Increment(outcome.pulls);
    arms_eliminated->Increment(outcome.arms_eliminated);
    if (outcome.stopped) {
      static obs::Counter* const stops =
          obs::MetricRegistry::Global().GetCounter("vaq_bai_stops_total");
      stops->Increment(1);
    }
  }

  // Candidate sequence states.
  std::vector<SeqState>& seqs = workspace->seqs_;
  seqs.clear();
  seqs.reserve(candidates.size());
  for (const Interval& iv : candidates) {
    seqs.push_back(SeqState{iv, scoring_->Identity(), scoring_->Identity(),
                            iv.length(), iv.length(), kInf, -kInf,
                            /*decided=*/false});
  }

  // Skip set: clips outside P_q never participate (§4.3, first bullet).
  // Clips of pruned candidate sequences stay skipped too.
  std::vector<bool>& skip = workspace->skip_;
  skip.assign(static_cast<size_t>(tables_->num_clips), true);
  for (const Interval& iv : candidates) {
    for (ClipIndex c = iv.lo; c <= iv.hi; ++c) {
      skip[static_cast<size_t>(c)] = false;
    }
  }

  const int64_t k = options_.k;
  std::vector<size_t>& winners = workspace->winners_;

  // Emits `winners` (best lower bound first) as the result.
  auto finalize = [&]() -> const TopKResult& {
    VAQ_TRACE_SPAN("rvaq/finalize");
    std::vector<RankedSequence>& rows = workspace->rows_;
    rows.clear();
    rows.reserve(winners.size());
    for (size_t w : winners) {
      const SeqState& s = seqs[w];
      RankedSequence out;
      out.clips = s.clips;
      out.lower_bound = s.b_lo == -kInf ? scoring_->Identity() : s.b_lo;
      out.upper_bound = s.b_up;
      if (options_.exact_scores) {
        // Cost-based choice: a fresh range scan per table costs one seek
        // each, while completing cached clips costs one random access per
        // missing entry. The bound loop usually leaves winners mostly
        // cached, so the random path wins at large K.
        int64_t missing = 0;
        for (ClipIndex c = s.clips.lo; c <= s.clips.hi; ++c) {
          missing += source.MissingEntries(c);
        }
        if (missing < tables_->num_tables()) {
          double exact = scoring_->Identity();
          for (ClipIndex c = s.clips.lo; c <= s.clips.hi; ++c) {
            exact = scoring_->Combine(exact, source.Score(c));
          }
          out.exact_score = exact;
        } else {
          out.exact_score = ExactSequenceScore(*tables_, *scoring_, s.clips,
                                               &workspace->exact_);
        }
        out.has_exact = true;
      }
      rows.push_back(out);
    }
    // With exact scores the winners are ranked by them, ties keeping the
    // lower-bound order.
    std::vector<size_t>& row_order = workspace->row_order_;
    if (options_.exact_scores) {
      SortIndicesDescending(&row_order, rows.size(),
                            [&](size_t i) { return rows[i].exact_score; });
    } else {
      row_order.resize(rows.size());
      for (size_t i = 0; i < rows.size(); ++i) row_order[i] = i;
    }
    result.top.reserve(rows.size());
    for (size_t i : row_order) result.top.push_back(rows[i]);
    result.accesses = CollectCounters(*tables_);
    static const storage::AccessMirror accesses("rvaq");
    static obs::Counter* const iterations =
        obs::MetricRegistry::Global().GetCounter("vaq_rvaq_iterations_total");
    accesses.Add(result.accesses);
    iterations->Increment(result.iterations);
    result.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    return result;
  };

  // Fewer candidates than K: everything is a winner.
  if (static_cast<int64_t>(seqs.size()) <= k) {
    winners.resize(seqs.size());
    for (size_t i = 0; i < seqs.size(); ++i) winners[i] = i;
    return finalize();
  }

  // Marks every clip of a decided sequence skippable (§4.3).
  auto skip_sequence = [&](const SeqState& s) {
    if (!options_.use_skip) return;
    for (ClipIndex c = s.clips.lo; c <= s.clips.hi; ++c) {
      skip[static_cast<size_t>(c)] = true;
    }
  };
  // Ranks the candidates by lower bound, ties by position.
  std::vector<size_t>& order = workspace->order_;
  auto rank_by_lower_bound = [&] {
    SortIndicesDescending(&order, seqs.size(),
                          [&](size_t i) { return seqs[i].b_lo; });
  };
  // Finalizes the first `count` sequences of `order`.
  auto finalize_leading = [&](size_t count) -> const TopKResult& {
    winners.assign(order.begin(),
                   order.begin() + static_cast<std::ptrdiff_t>(count));
    return finalize();
  };

  TbClipIterator& iterator = workspace->iterator_;
  iterator.Reset(tables_, &source, &skip);
  TbClipIterator::Entry top;
  TbClipIterator::Entry bottom;
  std::vector<double>& lows = workspace->lows_;
  std::vector<bool>& in_topk = workspace->in_topk_;
  VAQ_TRACE_SPAN("rvaq/bound_loop");
  while (iterator.Next(&top, &bottom)) {
    ++result.iterations;
    // Fold the new extreme clips into their sequences' partial scores.
    for (SeqState& s : seqs) {
      if (top.valid() && s.clips.Contains(top.clip)) {
        s.s_up = scoring_->Combine(s.s_up, top.score);
        --s.l_up;
        if (options_.two_sided_bounds) {
          s.s_lo = scoring_->Combine(s.s_lo, top.score);
          --s.l_lo;
        }
      }
      if (bottom.valid() && bottom.clip != top.clip &&
          s.clips.Contains(bottom.clip)) {
        s.s_lo = scoring_->Combine(s.s_lo, bottom.score);
        --s.l_lo;
        if (options_.two_sided_bounds) {
          s.s_up = scoring_->Combine(s.s_up, bottom.score);
          --s.l_up;
        }
      }
    }
    // Refresh bounds (Eqs. 13-14). Decided sequences keep frozen bounds.
    for (SeqState& s : seqs) {
      if (s.decided) continue;
      if (top.valid()) {
        s.b_up = scoring_->Combine(s.s_up,
                                   scoring_->Repeat(top.score, s.l_up));
      }
      if (bottom.valid()) {
        s.b_lo = scoring_->Combine(s.s_lo,
                                   scoring_->Repeat(bottom.score, s.l_lo));
      }
    }

    // B_lo^K: the K-th highest lower bound.
    lows.resize(seqs.size());
    for (size_t i = 0; i < seqs.size(); ++i) lows[i] = seqs[i].b_lo;
    std::nth_element(lows.begin(), lows.begin() + (k - 1), lows.end(),
                     std::greater<double>());
    const double b_lo_k = lows[static_cast<size_t>(k - 1)];

    // Membership of the current top-K-by-lower-bound set, with ties broken
    // deterministically by index.
    rank_by_lower_bound();
    in_topk.assign(seqs.size(), false);
    for (int64_t i = 0; i < k; ++i) {
      in_topk[order[static_cast<size_t>(i)]] = true;
    }

    // B_up^¬K: the highest upper bound outside the top-K set.
    double b_up_not_k = -kInf;
    for (size_t i = 0; i < seqs.size(); ++i) {
      if (!in_topk[i]) b_up_not_k = std::max(b_up_not_k, seqs[i].b_up);
    }

    // Decide sequences (dynamic skip, §4.3): a confirmed loser or a
    // confirmed winner.
    for (size_t i = 0; i < seqs.size(); ++i) {
      SeqState& s = seqs[i];
      if (s.decided) continue;
      if (s.b_up < b_lo_k || (in_topk[i] && s.b_lo > b_up_not_k)) {
        s.decided = true;
        skip_sequence(s);
      }
    }

    // Stopping condition (Eq. 15).
    if (b_lo_k >= b_up_not_k) return finalize_leading(static_cast<size_t>(k));
  }

  // Iterator exhausted without triggering Eq. 15 (possible when skipping
  // is disabled and ties persist): every clip has been processed, so the
  // lower bounds are exact.
  rank_by_lower_bound();
  return finalize_leading(std::min(static_cast<size_t>(k), order.size()));
}

}  // namespace offline
}  // namespace vaq
