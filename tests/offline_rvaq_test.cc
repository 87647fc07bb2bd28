#include "offline/rvaq.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "offline/baselines.h"
#include "storage/score_table.h"

namespace vaq {
namespace offline {
namespace {

// A random offline instance: three score tables (two objects + action) and
// a set of candidate sequences standing in for the materialized individual
// sequences (every per-type sequence set equals the common one, so
// ComputePq() returns it directly).
struct Instance {
  std::vector<storage::ScoreTable> tables;
  IntervalSet pq;
  QueryTables query;

  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;
  Instance() = default;
};

std::unique_ptr<Instance> RandomInstance(uint64_t seed, int64_t num_clips,
                                         bool integer_scores = true) {
  Rng rng(seed);
  auto inst = std::make_unique<Instance>();
  for (int t = 0; t < 3; ++t) {
    std::vector<storage::ScoreTable::Row> rows;
    for (int64_t c = 0; c < num_clips; ++c) {
      const double s = integer_scores
                           ? std::floor(rng.UniformDouble(0, 12))
                           : rng.UniformDouble(0, 12);
      rows.push_back({c, s});
    }
    inst->tables.push_back(
        std::move(storage::ScoreTable::Build(std::move(rows))).value());
  }
  int64_t cursor = 0;
  while (cursor < num_clips - 3) {
    const int64_t lo = cursor + 1 + static_cast<int64_t>(rng.UniformInt(4ul));
    const int64_t hi = lo + 1 + static_cast<int64_t>(rng.UniformInt(5ul));
    if (hi >= num_clips) break;
    inst->pq.Add(Interval(lo, hi));
    cursor = hi + 1;
  }
  inst->query.num_clips = num_clips;
  inst->query.tables = {&inst->tables[0], &inst->tables[1],
                        &inst->tables[2]};
  inst->query.sequences = {&inst->pq, &inst->pq, &inst->pq};
  inst->query.schema.num_objects = 2;
  inst->query.schema.has_action = true;
  inst->query.schema.clauses = {{0}, {1}, {2}};
  return inst;
}

std::vector<double> SortedScores(const TopKResult& result) {
  std::vector<double> out;
  for (const RankedSequence& s : result.top) out.push_back(s.exact_score);
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Correctness: every algorithm returns the same top-K score multiset as the
// brute-force baseline across many random instances (including tied
// scores, which integer tables make frequent).
// ---------------------------------------------------------------------------

class TopKEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TopKEquivalence, AllAlgorithmsAgreeWithBruteForce) {
  PaperScoring scoring;
  for (int round = 0; round < 20; ++round) {
    const uint64_t seed = GetParam() * 1000 + static_cast<uint64_t>(round);
    auto inst = RandomInstance(seed, 30);
    if (inst->pq.size() < 2) continue;
    const int64_t max_k = static_cast<int64_t>(inst->pq.size());
    for (int64_t k = 1; k <= max_k; ++k) {
      const TopKResult expected = PqTraverse(inst->query, scoring, k);
      const TopKResult fa = FaTopK(inst->query, scoring, k);
      EXPECT_EQ(SortedScores(fa), SortedScores(expected))
          << "FA seed=" << seed << " k=" << k;
      RvaqOptions options;
      options.k = k;
      const TopKResult rvaq = Rvaq(&inst->query, &scoring, options).Run();
      EXPECT_EQ(SortedScores(rvaq), SortedScores(expected))
          << "RVAQ seed=" << seed << " k=" << k;
      RvaqOptions no_skip = options;
      no_skip.use_skip = false;
      const TopKResult rvaq_ns =
          Rvaq(&inst->query, &scoring, no_skip).Run();
      EXPECT_EQ(SortedScores(rvaq_ns), SortedScores(expected))
          << "noSkip seed=" << seed << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopKEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(RvaqTest, ContinuousScoresAgreeToo) {
  PaperScoring scoring;
  for (uint64_t seed = 100; seed < 120; ++seed) {
    auto inst = RandomInstance(seed, 40, /*integer_scores=*/false);
    if (inst->pq.size() < 3) continue;
    RvaqOptions options;
    options.k = 2;
    const TopKResult rvaq = Rvaq(&inst->query, &scoring, options).Run();
    const TopKResult expected = PqTraverse(inst->query, scoring, 2);
    ASSERT_EQ(rvaq.top.size(), expected.top.size());
    for (size_t i = 0; i < rvaq.top.size(); ++i) {
      // With continuous scores ties are measure-zero: exact order match.
      EXPECT_EQ(rvaq.top[i].clips, expected.top[i].clips) << "seed=" << seed;
    }
  }
}

TEST(RvaqTest, BoundsBracketExactScores) {
  PaperScoring scoring;
  auto inst = RandomInstance(7, 40, /*integer_scores=*/false);
  RvaqOptions options;
  options.k = 3;
  const TopKResult result = Rvaq(&inst->query, &scoring, options).Run();
  for (const RankedSequence& seq : result.top) {
    ASSERT_TRUE(seq.has_exact);
    EXPECT_LE(seq.lower_bound, seq.exact_score + 1e-9);
    EXPECT_GE(seq.upper_bound, seq.exact_score - 1e-9);
  }
}

TEST(RvaqTest, SkipReducesRandomAccesses) {
  PaperScoring scoring;
  int64_t with_skip = 0;
  int64_t without_skip = 0;
  for (uint64_t seed = 50; seed < 60; ++seed) {
    auto inst = RandomInstance(seed, 60, /*integer_scores=*/false);
    if (static_cast<int64_t>(inst->pq.size()) <= 2) continue;
    RvaqOptions options;
    options.k = 2;
    with_skip += Rvaq(&inst->query, &scoring, options)
                     .Run()
                     .accesses.random_accesses;
    options.use_skip = false;
    without_skip += Rvaq(&inst->query, &scoring, options)
                        .Run()
                        .accesses.random_accesses;
  }
  EXPECT_LT(with_skip, without_skip);
}

TEST(RvaqTest, KLargerThanCandidatesReturnsAll) {
  PaperScoring scoring;
  auto inst = RandomInstance(9, 30);
  RvaqOptions options;
  options.k = 100;
  const TopKResult result = Rvaq(&inst->query, &scoring, options).Run();
  EXPECT_EQ(result.top.size(), inst->pq.size());
  EXPECT_EQ(result.iterations, 0);  // No bound loop needed.
  // Results are sorted by exact score descending.
  for (size_t i = 1; i < result.top.size(); ++i) {
    EXPECT_GE(result.top[i - 1].exact_score, result.top[i].exact_score);
  }
}

TEST(RvaqTest, EmptyPqYieldsNoResults) {
  PaperScoring scoring;
  auto inst = RandomInstance(11, 20);
  IntervalSet empty;
  inst->query.sequences = {&empty, &empty, &empty};
  RvaqOptions options;
  options.k = 3;
  const TopKResult result = Rvaq(&inst->query, &scoring, options).Run();
  EXPECT_TRUE(result.top.empty());
  EXPECT_TRUE(result.pq.empty());
}

TEST(RvaqTest, WithoutExactScoresReturnsCorrectSet) {
  PaperScoring scoring;
  for (uint64_t seed = 200; seed < 210; ++seed) {
    auto inst = RandomInstance(seed, 40, /*integer_scores=*/false);
    if (static_cast<int64_t>(inst->pq.size()) <= 3) continue;
    RvaqOptions options;
    options.k = 3;
    options.exact_scores = false;
    const TopKResult cheap = Rvaq(&inst->query, &scoring, options).Run();
    const TopKResult expected = PqTraverse(inst->query, scoring, 3);
    // Same set of sequences (order may differ without exact scores).
    std::vector<int64_t> a;
    std::vector<int64_t> b;
    for (const auto& s : cheap.top) a.push_back(s.clips.lo);
    for (const auto& s : expected.top) b.push_back(s.clips.lo);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "seed=" << seed;
  }
}

TEST(RvaqTest, OneSidedBoundsAblationStillFindsCorrectSet) {
  PaperScoring scoring;
  for (uint64_t seed = 300; seed < 310; ++seed) {
    auto inst = RandomInstance(seed, 30, /*integer_scores=*/false);
    if (static_cast<int64_t>(inst->pq.size()) <= 2) continue;
    RvaqOptions options;
    options.k = 2;
    options.two_sided_bounds = false;  // The paper's literal bookkeeping.
    const TopKResult one_sided = Rvaq(&inst->query, &scoring, options).Run();
    const TopKResult expected = PqTraverse(inst->query, scoring, 2);
    // One-sided bounds stay loose for clips drained from the opposite
    // cursor, so exactness of the full set is NOT guaranteed (the reason
    // two_sided_bounds is the default). The ablation still returns k
    // sequences and its best sequence matches brute force on these
    // instances.
    ASSERT_EQ(one_sided.top.size(), expected.top.size());
    EXPECT_DOUBLE_EQ(one_sided.top[0].exact_score,
                     expected.top[0].exact_score)
        << "seed=" << seed;
  }
}

// ---------------------------------------------------------------------------
// Workspace reuse: a ranked statement runs every video through one
// RvaqWorkspace. Back-to-back runs over instances of varying shape must
// each match a fresh run bit for bit, so a buffer a run fails to reset
// (sized or filled by the previous instance) shows up as a difference.
// ---------------------------------------------------------------------------

// An instance whose tables each carry their own individual sequences,
// under a conjunctive schema or a random CNF schema over the tables.
struct SchemaInstance {
  std::vector<storage::ScoreTable> tables;
  std::vector<IntervalSet> sequences;
  QueryTables query;
};

std::unique_ptr<SchemaInstance> RandomSchemaInstance(Rng* rng,
                                                     int64_t num_clips,
                                                     int num_tables, bool cnf) {
  auto inst = std::make_unique<SchemaInstance>();
  // The query points into both vectors: size them before taking pointers.
  inst->tables.reserve(static_cast<size_t>(num_tables));
  inst->sequences.resize(static_cast<size_t>(num_tables));
  for (int t = 0; t < num_tables; ++t) {
    std::vector<storage::ScoreTable::Row> rows;
    for (int64_t c = 0; c < num_clips; ++c) {
      // Integer scores make ties frequent.
      rows.push_back({c, std::floor(rng->UniformDouble(0, 10))});
    }
    inst->tables.push_back(
        std::move(storage::ScoreTable::Build(std::move(rows))).value());
    IntervalSet& seqs = inst->sequences[static_cast<size_t>(t)];
    for (int64_t lo = rng->UniformInt(0, 3); lo < num_clips;) {
      const int64_t hi = std::min(num_clips - 1, lo + rng->UniformInt(0, 9));
      seqs.Add(Interval(lo, hi));
      lo = hi + 1 + rng->UniformInt(0, 4);
    }
    inst->query.tables.push_back(&inst->tables.back());
    inst->query.sequences.push_back(&seqs);
  }
  inst->query.num_clips = num_clips;
  TableSchema& schema = inst->query.schema;
  if (!cnf) {
    schema.num_objects = num_tables - 1;
    schema.has_action = true;
    for (int t = 0; t < num_tables; ++t) schema.clauses.push_back({t});
    return inst;
  }
  // Every table in some clause; clauses of one to three literals, some
  // shared between clauses.
  for (int t = 0; t < num_tables; ++t) {
    if (schema.clauses.empty() || rng->UniformInt(0, 1) == 0) {
      schema.clauses.emplace_back();
    }
    schema.clauses.back().push_back(t);
  }
  if (num_tables > 1 && rng->UniformInt(0, 1) == 0) {
    schema.clauses.push_back(
        {static_cast<int>(rng->UniformInt(0, num_tables - 1))});
  }
  return inst;
}

// A deterministic stand-in for the WITH CONFIDENCE identifier: pulls one
// seeded clip score per arm through the source (charging its random
// accesses and warming its cache) and eliminates a seeded subset of
// arms, keeping at least k.
class SampledIdentifier : public SequenceIdentifier {
 public:
  IdentifyOutcome Identify(const std::vector<Interval>& candidates,
                           int64_t k, uint64_t seed,
                           ClipScoreSource* source) const override {
    Rng rng(seed);
    IdentifyOutcome out;
    out.keep.assign(candidates.size(), true);
    out.pulls_per_arm.assign(candidates.size(), 1);
    for (const Interval& arm : candidates) {
      out.stopping_statistic +=
          source->Score(rng.UniformInt(arm.lo, arm.hi));
      ++out.pulls;
    }
    int64_t kept = static_cast<int64_t>(candidates.size());
    for (size_t i = 0; i < candidates.size() && kept > k; ++i) {
      if (rng.UniformInt(0, 1) == 0) {
        out.keep[i] = false;
        --kept;
        ++out.arms_eliminated;
      }
    }
    out.stopped = kept == k;
    return out;
  }
};

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// Every field of two results but wall_ms, doubles compared bit for bit.
void ExpectBitIdentical(const TopKResult& got, const TopKResult& want) {
  ASSERT_EQ(got.top.size(), want.top.size());
  for (size_t i = 0; i < got.top.size(); ++i) {
    const RankedSequence& g = got.top[i];
    const RankedSequence& w = want.top[i];
    EXPECT_EQ(g.clips, w.clips) << "rank " << i;
    EXPECT_TRUE(SameBits(g.lower_bound, w.lower_bound)) << "rank " << i;
    EXPECT_TRUE(SameBits(g.upper_bound, w.upper_bound)) << "rank " << i;
    EXPECT_TRUE(SameBits(g.exact_score, w.exact_score)) << "rank " << i;
    EXPECT_EQ(g.has_exact, w.has_exact) << "rank " << i;
  }
  EXPECT_EQ(got.pq, want.pq);
  EXPECT_EQ(got.accesses.sorted_accesses, want.accesses.sorted_accesses);
  EXPECT_EQ(got.accesses.reverse_accesses, want.accesses.reverse_accesses);
  EXPECT_EQ(got.accesses.random_accesses, want.accesses.random_accesses);
  EXPECT_EQ(got.accesses.range_scans, want.accesses.range_scans);
  EXPECT_EQ(got.accesses.range_rows, want.accesses.range_rows);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.candidates_pruned, want.candidates_pruned);
  EXPECT_EQ(got.bai_pulls, want.bai_pulls);
  EXPECT_EQ(got.bai_arms_eliminated, want.bai_arms_eliminated);
  EXPECT_EQ(got.bai_stopped, want.bai_stopped);
  EXPECT_TRUE(
      SameBits(got.bai_stopping_statistic, want.bai_stopping_statistic));
}

TEST(RvaqWorkspaceTest, BackToBackRunsMatchFreshRunsBitForBit) {
  const PaperScoring paper;
  const CnfScoring cnf;
  const SampledIdentifier identifier;
  RvaqWorkspace workspace;
  int filtered = 0;
  int identified = 0;
  int looped = 0;
  for (uint64_t seed = 0; seed < 240; ++seed) {
    Rng rng(MixSeed(seed, 0x7773ULL));
    // Clip counts and table counts both shrink and grow between runs.
    const int64_t num_clips = rng.UniformInt(1, 120);
    const int num_tables = static_cast<int>(rng.UniformInt(1, 4));
    const bool cnf_schema = rng.UniformInt(0, 1) == 1;
    auto inst = RandomSchemaInstance(&rng, num_clips, num_tables, cnf_schema);
    const ScoringModel& scoring =
        cnf_schema ? static_cast<const ScoringModel&>(cnf) : paper;
    RvaqOptions options;
    options.k = rng.UniformInt(1, 6);
    options.use_skip = rng.UniformInt(0, 1) == 1;
    options.two_sided_bounds = rng.UniformInt(0, 3) != 0;
    options.exact_scores = rng.UniformInt(0, 3) != 0;
    IntervalSet surviving;
    if (rng.UniformInt(0, 2) == 0) {
      for (int64_t c = 0; c < num_clips; ++c) {
        if (rng.UniformInt(0, 3) == 0) surviving.Add(Interval(c, c));
      }
      options.clip_filter = &surviving;
      ++filtered;
    }
    if (rng.UniformInt(0, 2) == 0) {
      options.identifier = &identifier;
      options.identifier_seed = seed;
      ++identified;
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    const TopKResult fresh = Rvaq(&inst->query, &scoring, options).Run();
    // Half the runs bind through the workspace's own table storage, as a
    // repository statement does.
    const QueryTables* tables = &inst->query;
    if (seed % 2 == 1) {
      *workspace.tables() = inst->query;
      tables = workspace.tables();
    }
    const TopKResult& reused = Rvaq(tables, &scoring, options).Run(&workspace);
    ExpectBitIdentical(reused, fresh);
    if (HasFatalFailure()) return;
    if (fresh.iterations > 0) ++looped;
  }
  // The draws reach the filter, the identifier and the bound loop often.
  EXPECT_GT(filtered, 40);
  EXPECT_GT(identified, 40);
  EXPECT_GT(looped, 80);
}

TEST(FaTopKTest, StopsBeforeFullScan) {
  PaperScoring scoring;
  auto inst = RandomInstance(13, 200, /*integer_scores=*/false);
  const TopKResult result = FaTopK(inst->query, scoring, 3);
  // FA needs every P_q clip produced but not the whole table.
  EXPECT_LT(result.accesses.sorted_accesses, 3 * 200);
  EXPECT_GT(result.accesses.sorted_accesses, 0);
}

TEST(PqTraverseTest, CostIndependentOfK) {
  PaperScoring scoring;
  auto inst = RandomInstance(17, 100, /*integer_scores=*/false);
  const TopKResult k1 = PqTraverse(inst->query, scoring, 1);
  const TopKResult k5 = PqTraverse(inst->query, scoring, 5);
  EXPECT_EQ(k1.accesses.range_scans, k5.accesses.range_scans);
  EXPECT_EQ(k1.accesses.range_rows, k5.accesses.range_rows);
  EXPECT_EQ(k1.accesses.random_accesses, 0);
  // One range scan per (sequence, table).
  EXPECT_EQ(k1.accesses.range_scans,
            static_cast<int64_t>(inst->pq.size()) * 3);
  EXPECT_EQ(k1.accesses.range_rows, inst->pq.TotalLength() * 3);
}

TEST(QueryViewTest, ComputePqIntersectsAllPredicates) {
  auto inst = RandomInstance(19, 30);
  // Restrict one object's sequences: Pq must shrink accordingly.
  IntervalSet restricted =
      IntervalSet::FromIntervals({inst->pq.intervals().front()});
  inst->query.sequences[0] = &restricted;
  EXPECT_EQ(inst->query.ComputePq(), restricted.Intersect(inst->pq));
}

TEST(QueryViewTest, ClipScoreSourceCachesAndCounts) {
  auto inst = RandomInstance(23, 10);
  PaperScoring scoring;
  ClipScoreSource source(&inst->query, &scoring);
  for (auto* t : inst->query.AllTables()) t->ResetCounter();
  source.Score(4);
  int64_t after_first = 0;
  for (auto* t : inst->query.AllTables()) {
    after_first += t->counter().random_accesses;
  }
  EXPECT_EQ(after_first, 3);  // One random access per table.
  source.Score(4);  // Cached.
  int64_t after_second = 0;
  for (auto* t : inst->query.AllTables()) {
    after_second += t->counter().random_accesses;
  }
  EXPECT_EQ(after_second, 3);
  // Known entries eliminate their table's random access.
  source.NoteKnownEntry(0, 7, inst->tables[0].PeekScore(7));
  source.Score(7);
  int64_t after_third = 0;
  for (auto* t : inst->query.AllTables()) {
    after_third += t->counter().random_accesses;
  }
  EXPECT_EQ(after_third, 5);
}

TEST(QueryViewTest, BoundWithIsMonotoneEnvelope) {
  auto inst = RandomInstance(29, 10);
  PaperScoring scoring;
  ClipScoreSource source(&inst->query, &scoring);
  const std::vector<double> high_fill = {100, 100, 100};
  const std::vector<double> low_fill = {0, 0, 0};
  for (ClipIndex c = 0; c < 10; ++c) {
    const double upper = source.BoundWith(c, high_fill);
    const double lower = source.BoundWith(c, low_fill);
    const double exact = source.Score(c);
    EXPECT_GE(upper, exact);
    EXPECT_LE(lower, exact);
  }
}

TEST(ScoringTest, PaperScoringBehaviour) {
  PaperScoring scoring;
  TableSchema two_obj_act;
  two_obj_act.num_objects = 2;
  two_obj_act.has_action = true;
  EXPECT_DOUBLE_EQ(scoring.ClipScore({2, 3, 4}, two_obj_act), 20.0);
  TableSchema two_obj;
  two_obj.num_objects = 2;
  EXPECT_DOUBLE_EQ(scoring.ClipScore({2, 3}, two_obj), 5.0);
  TableSchema act_only;
  act_only.has_action = true;
  EXPECT_DOUBLE_EQ(scoring.ClipScore({4}, act_only), 4.0);
  EXPECT_DOUBLE_EQ(scoring.Identity(), 0.0);
  EXPECT_DOUBLE_EQ(scoring.Combine(2, 3), 5.0);
  EXPECT_DOUBLE_EQ(scoring.Repeat(2.5, 4), 10.0);
  EXPECT_DOUBLE_EQ(scoring.AggregateTypeScores({1, 2, 3.5}), 6.5);
}

TEST(ScoringTest, CnfScoringBehaviour) {
  CnfScoring scoring;
  TableSchema schema;
  schema.clauses = {{0, 1}, {2}};
  // (2 + 3) * 4 = 20.
  EXPECT_DOUBLE_EQ(scoring.ClipScore({2, 3, 4}, schema), 20.0);
  // Shared-literal clause.
  schema.clauses = {{0}, {0, 1}};
  EXPECT_DOUBLE_EQ(scoring.ClipScore({2, 3}, schema), 2.0 * 5.0);
}

}  // namespace
}  // namespace offline
}  // namespace vaq
