#include "common/interval.h"

#include <bitset>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace vaq {
namespace {

TEST(IntervalTest, BasicProperties) {
  const Interval iv(3, 7);
  EXPECT_FALSE(iv.empty());
  EXPECT_EQ(iv.length(), 5);
  EXPECT_TRUE(iv.Contains(3));
  EXPECT_TRUE(iv.Contains(7));
  EXPECT_FALSE(iv.Contains(8));
  EXPECT_TRUE(Interval(5, 2).empty());
  EXPECT_EQ(Interval(5, 2).length(), 0);
}

TEST(IntervalTest, Overlaps) {
  EXPECT_TRUE(Interval(1, 5).Overlaps(Interval(5, 9)));
  EXPECT_FALSE(Interval(1, 5).Overlaps(Interval(6, 9)));
  EXPECT_FALSE(Interval(1, 5).Overlaps(Interval(9, 6)));
}

TEST(IntervalIoUTest, HandComputedCases) {
  EXPECT_DOUBLE_EQ(IntervalIoU(Interval(0, 9), Interval(0, 9)), 1.0);
  EXPECT_DOUBLE_EQ(IntervalIoU(Interval(0, 4), Interval(5, 9)), 0.0);
  // [0,5] vs [3,9]: intersection 3, union 10.
  EXPECT_DOUBLE_EQ(IntervalIoU(Interval(0, 5), Interval(3, 9)), 0.3);
  EXPECT_DOUBLE_EQ(IntervalIoU(Interval(0, 5), Interval(6, 2)), 0.0);
}

TEST(IntervalSetTest, FromIntervalsNormalizes) {
  const IntervalSet set = IntervalSet::FromIntervals(
      {Interval(5, 7), Interval(1, 2), Interval(3, 4), Interval(9, 8)});
  // [1,2] and [3,4] are adjacent -> merge; [5,7] adjacent to [3,4]? 4+1=5
  // -> all merge into [1,7].
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set[0], Interval(1, 7));
}

TEST(IntervalSetTest, FromIndicators) {
  const IntervalSet set = IntervalSet::FromIndicators(
      {false, true, true, false, true, false, false, true});
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(set[0], Interval(1, 2));
  EXPECT_EQ(set[1], Interval(4, 4));
  EXPECT_EQ(set[2], Interval(7, 7));
  EXPECT_EQ(set.TotalLength(), 4);
}

TEST(IntervalSetTest, AddFastAndSlowPaths) {
  IntervalSet set;
  set.Add(Interval(10, 12));
  set.Add(Interval(14, 15));  // Gap: new interval.
  set.Add(Interval(16, 18));  // Adjacent: merge with tail.
  set.Add(Interval(2, 4));    // Before the front: renormalize.
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(set[0], Interval(2, 4));
  EXPECT_EQ(set[1], Interval(10, 12));
  EXPECT_EQ(set[2], Interval(14, 18));
  set.Add(Interval(5, 9));  // Bridges front and middle.
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set[0], Interval(2, 12));
}

TEST(IntervalSetTest, ContainsUsesBinarySearch) {
  const IntervalSet set =
      IntervalSet::FromIntervals({Interval(2, 4), Interval(8, 9)});
  EXPECT_FALSE(set.Contains(1));
  EXPECT_TRUE(set.Contains(2));
  EXPECT_TRUE(set.Contains(4));
  EXPECT_FALSE(set.Contains(5));
  EXPECT_TRUE(set.Contains(8));
  EXPECT_FALSE(set.Contains(10));
}

TEST(IntervalSetTest, IntersectHandCases) {
  const IntervalSet a =
      IntervalSet::FromIntervals({Interval(0, 5), Interval(10, 20)});
  const IntervalSet b =
      IntervalSet::FromIntervals({Interval(3, 12), Interval(18, 25)});
  const IntervalSet c = a.Intersect(b);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0], Interval(3, 5));
  EXPECT_EQ(c[1], Interval(10, 12));
  EXPECT_EQ(c[2], Interval(18, 20));
}

TEST(IntervalSetTest, ComplementWithin) {
  const IntervalSet set =
      IntervalSet::FromIntervals({Interval(2, 3), Interval(6, 7)});
  const IntervalSet comp = set.ComplementWithin(Interval(0, 9));
  ASSERT_EQ(comp.size(), 3u);
  EXPECT_EQ(comp[0], Interval(0, 1));
  EXPECT_EQ(comp[1], Interval(4, 5));
  EXPECT_EQ(comp[2], Interval(8, 9));
}

// ---------------------------------------------------------------------------
// Property tests: IntervalSet operations agree with a brute-force bitmask
// model over a small universe, across many random instances.
// ---------------------------------------------------------------------------

constexpr int kUniverse = 64;

IntervalSet RandomSet(Rng& rng) {
  std::vector<Interval> intervals;
  const int pieces = static_cast<int>(rng.UniformInt(0, 6));
  for (int i = 0; i < pieces; ++i) {
    const int64_t lo = rng.UniformInt(0, kUniverse - 1);
    const int64_t hi = lo + rng.UniformInt(-2, 10);
    intervals.push_back(Interval(lo, std::min<int64_t>(hi, kUniverse - 1)));
  }
  return IntervalSet::FromIntervals(std::move(intervals));
}

std::bitset<kUniverse> ToBits(const IntervalSet& set) {
  std::bitset<kUniverse> bits;
  for (const Interval& iv : set.intervals()) {
    for (int64_t x = iv.lo; x <= iv.hi; ++x) bits.set(static_cast<size_t>(x));
  }
  return bits;
}

// Checks the canonical-form invariant: sorted, disjoint, non-adjacent.
void ExpectCanonical(const IntervalSet& set) {
  for (size_t i = 0; i < set.size(); ++i) {
    EXPECT_LE(set[i].lo, set[i].hi);
    if (i > 0) {
      EXPECT_GT(set[i].lo, set[i - 1].hi + 1);
    }
  }
}

class IntervalSetPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntervalSetPropertyTest, OperationsMatchBitmaskModel) {
  Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    const IntervalSet a = RandomSet(rng);
    const IntervalSet b = RandomSet(rng);
    ExpectCanonical(a);
    ExpectCanonical(b);
    const auto bits_a = ToBits(a);
    const auto bits_b = ToBits(b);

    const IntervalSet inter = a.Intersect(b);
    ExpectCanonical(inter);
    EXPECT_EQ(ToBits(inter), bits_a & bits_b);

    IntervalSet uni;
    uni.AssignUnion(a, b);
    ExpectCanonical(uni);
    EXPECT_EQ(ToBits(uni), bits_a | bits_b);

    const IntervalSet comp = a.ComplementWithin(Interval(0, kUniverse - 1));
    ExpectCanonical(comp);
    EXPECT_EQ(ToBits(comp), ~bits_a);

    EXPECT_EQ(a.TotalLength(), static_cast<int64_t>(bits_a.count()));
    for (int64_t x = 0; x < kUniverse; ++x) {
      EXPECT_EQ(a.Contains(x), bits_a.test(static_cast<size_t>(x)));
    }
    // Intersection is commutative and idempotent.
    EXPECT_EQ(a.Intersect(b), b.Intersect(a));
    EXPECT_EQ(a.Intersect(a), a);
    // Union with complement covers the universe.
    EXPECT_EQ(uni.Intersect(a), a);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSetPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace vaq
