#include "common/math_util.h"

#include <cmath>

#include <gtest/gtest.h>

namespace vaq {
namespace {

TEST(LogChooseTest, MatchesSmallFactorials) {
  EXPECT_NEAR(LogChoose(5, 2), std::log(10.0), 1e-12);
  EXPECT_NEAR(LogChoose(10, 5), std::log(252.0), 1e-12);
  EXPECT_NEAR(LogChoose(52, 5), std::log(2598960.0), 1e-9);
  EXPECT_DOUBLE_EQ(LogChoose(5, 0), 0.0);
  EXPECT_DOUBLE_EQ(LogChoose(5, 5), 0.0);
  EXPECT_DOUBLE_EQ(LogChoose(5, 6), kNegInf);
  EXPECT_DOUBLE_EQ(LogChoose(5, -1), kNegInf);
}

TEST(LogChooseTest, SymmetryAndPascal) {
  for (int64_t n = 1; n <= 40; ++n) {
    for (int64_t k = 0; k <= n; ++k) {
      EXPECT_NEAR(LogChoose(n, k), LogChoose(n, n - k), 1e-9);
      if (k >= 1 && n >= 1) {
        // C(n, k) = C(n-1, k-1) + C(n-1, k), compared in log space.
        // C(n-1, n) = 0 is exp(-inf), so the sum stays exact at k = n.
        EXPECT_NEAR(LogChoose(n, k),
                    std::log(std::exp(LogChoose(n - 1, k - 1)) +
                             std::exp(LogChoose(n - 1, k))),
                    1e-8)
            << n << "," << k;
      }
    }
  }
}

TEST(ClampProbabilityTest, Clamps) {
  EXPECT_DOUBLE_EQ(ClampProbability(-0.5), 0.0);
  EXPECT_DOUBLE_EQ(ClampProbability(0.5), 0.5);
  EXPECT_DOUBLE_EQ(ClampProbability(1.5), 1.0);
}

}  // namespace
}  // namespace vaq
