#include "eval/metrics.h"

#include <gtest/gtest.h>

namespace vaq {
namespace eval {
namespace {

IntervalSet Set(std::vector<Interval> ivs) {
  return IntervalSet::FromIntervals(std::move(ivs));
}

TEST(F1FromCountsTest, ZeroDenominators) {
  const F1Result empty = F1FromCounts(0, 0, 0);
  EXPECT_DOUBLE_EQ(empty.precision, 1.0);
  EXPECT_DOUBLE_EQ(empty.recall, 1.0);
  const F1Result all_fn = F1FromCounts(0, 0, 3);
  EXPECT_DOUBLE_EQ(all_fn.precision, 0.0);
  EXPECT_DOUBLE_EQ(all_fn.recall, 0.0);
  EXPECT_DOUBLE_EQ(all_fn.f1, 0.0);
  const F1Result all_fp = F1FromCounts(0, 3, 0);
  EXPECT_DOUBLE_EQ(all_fp.precision, 0.0);
}

TEST(F1FromCountsTest, BalancedCase) {
  const F1Result r = F1FromCounts(8, 2, 2);
  EXPECT_DOUBLE_EQ(r.precision, 0.8);
  EXPECT_DOUBLE_EQ(r.recall, 0.8);
  EXPECT_DOUBLE_EQ(r.f1, 0.8);
}

TEST(SequenceF1Test, PerfectMatch) {
  const IntervalSet truth = Set({{0, 9}, {20, 29}});
  const F1Result r = SequenceF1(truth, truth, 0.5);
  EXPECT_EQ(r.true_positives, 2);
  EXPECT_EQ(r.false_positives, 0);
  EXPECT_EQ(r.false_negatives, 0);
  EXPECT_DOUBLE_EQ(r.f1, 1.0);
}

TEST(SequenceF1Test, IoUThresholdGoverns) {
  const IntervalSet truth = Set({{0, 9}});
  // [0,6] vs [0,9]: IoU = 7/10.
  EXPECT_DOUBLE_EQ(SequenceF1(Set({{0, 6}}), truth, 0.5).f1, 1.0);
  EXPECT_DOUBLE_EQ(SequenceF1(Set({{0, 6}}), truth, 0.8).f1, 0.0);
  // [0,4] vs [0,9]: IoU = 0.5 exactly (inclusive threshold).
  EXPECT_DOUBLE_EQ(SequenceF1(Set({{0, 4}}), truth, 0.5).f1, 1.0);
  // [0,3] vs [0,9]: IoU = 0.4 < 0.5.
  const F1Result r = SequenceF1(Set({{0, 3}}), truth, 0.5);
  EXPECT_EQ(r.false_positives, 1);
  EXPECT_EQ(r.false_negatives, 1);
}

TEST(SequenceF1Test, FragmentationPenalizedBothWays) {
  // One truth interval split into three short results: all fragments fail
  // IoU 0.5, so 3 FP + 1 FN — the metric the clip-size experiments rely on.
  const IntervalSet truth = Set({{0, 29}});
  const IntervalSet frags = Set({{0, 8}, {11, 19}, {22, 29}});
  const F1Result r = SequenceF1(frags, truth, 0.5);
  EXPECT_EQ(r.true_positives, 0);
  EXPECT_EQ(r.false_positives, 3);
  EXPECT_EQ(r.false_negatives, 1);
}

TEST(SequenceF1Test, EmptySides) {
  // Empty vs empty is a vacuous perfect match.
  EXPECT_DOUBLE_EQ(SequenceF1(Set({}), Set({}), 0.5).f1, 1.0);
  const F1Result no_results = SequenceF1(Set({}), Set({{0, 5}}), 0.5);
  EXPECT_EQ(no_results.false_negatives, 1);
  const F1Result no_truth = SequenceF1(Set({{0, 5}}), Set({}), 0.5);
  EXPECT_EQ(no_truth.false_positives, 1);
}

TEST(FrameLevelF1Test, CountsFrames) {
  const VideoLayout layout(100, 5, 2);  // 10-frame clips.
  // Result clips [0,1] = frames 0..19; truth frames 10..29.
  const F1Result r =
      FrameLevelF1Frames(Set({{0, 1}}), Set({{10, 29}}), layout);
  EXPECT_EQ(r.true_positives, 10);
  EXPECT_EQ(r.false_positives, 10);
  EXPECT_EQ(r.false_negatives, 10);
  EXPECT_NEAR(r.f1, 0.5, 1e-12);
}

TEST(FrameLevelF1Test, ClipTruthVariant) {
  const VideoLayout layout(100, 5, 2);
  const F1Result r = FrameLevelF1(Set({{2, 3}}), Set({{2, 3}}), layout);
  EXPECT_DOUBLE_EQ(r.f1, 1.0);
}

}  // namespace
}  // namespace eval
}  // namespace vaq
