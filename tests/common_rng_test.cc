#include "common/rng.h"

#include <cmath>
#include <cstdint>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

namespace vaq {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(7);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.UniformInt(-3, 4);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 4);
  }
  // All 8 values should appear.
  bool seen[8] = {};
  for (int i = 0; i < 10000; ++i) seen[rng.UniformInt(-3, 4) + 3] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(RngTest, BernoulliMatchesRate) {
  Rng rng(11);
  for (double p : {0.0, 0.01, 0.3, 1.0}) {
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) hits += rng.Bernoulli(p) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.02) << "p=" << p;
  }
}

// Moment checks for the continuous distributions (parameterized sweep).
class RngMomentsTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(RngMomentsTest, GammaMeanAndVariance) {
  const auto [shape, scale] = GetParam();
  Rng rng(13);
  const int n = 40000;
  double sum = 0;
  double sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Gamma(shape, scale);
    ASSERT_GE(x, 0.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, shape * scale, 0.08 * shape * scale + 0.02);
  EXPECT_NEAR(var, shape * scale * scale,
              0.20 * shape * scale * scale + 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RngMomentsTest,
    ::testing::Combine(::testing::Values(0.5, 1.0, 2.5, 8.0),
                       ::testing::Values(0.5, 2.0)));

TEST(RngTest, BetaMeanMatches) {
  Rng rng(17);
  for (auto [a, b] : {std::pair{2.0, 5.0}, {5.0, 2.0}, {1.0, 1.0}}) {
    double sum = 0;
    const int n = 30000;
    for (int i = 0; i < n; ++i) {
      const double x = rng.Beta(a, b);
      ASSERT_GE(x, 0.0);
      ASSERT_LE(x, 1.0);
      sum += x;
    }
    EXPECT_NEAR(sum / n, a / (a + b), 0.01) << a << "," << b;
  }
}

TEST(RngTest, NormalMoments) {
  Rng rng(19);
  double sum = 0;
  double sum2 = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = 3.0 + 2.0 * rng.Normal();
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(sum2 / n - mean * mean, 4.0, 0.15);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(23);
  double sum = 0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(0.25);
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(RngTest, GeometricMean) {
  Rng rng(29);
  double sum = 0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    const int64_t x = rng.Geometric(0.2);
    ASSERT_GE(x, 0);
    sum += static_cast<double>(x);
  }
  EXPECT_NEAR(sum / n, 4.0, 0.2);  // (1-p)/p = 4.
}

TEST(RngTest, MixSeedSeparatesStreams) {
  Rng a(MixSeed(42, 1));
  Rng b(MixSeed(42, 2));
  EXPECT_NE(a.Next(), b.Next());
}

// StreamFamily is the shared per-entity sub-stream minting used by
// bai:: (per-arm pull streams) and traffic:: (per-tenant arrivals); its
// contract is (a) sibling independence, (b) an entity's stream depends
// only on (master, salt, entity) — never on which other entities exist —
// and (c) bit-stable output across platforms (the golden pins below).

TEST(StreamFamilyTest, SiblingStreamsAreIndependent) {
  const StreamFamily family(42, 0x1234);
  // Pairwise collision check over the first draws of 16 siblings: any
  // repeated 64-bit head would be a 2^-64 event for honest streams.
  std::vector<uint64_t> heads;
  for (uint64_t entity = 0; entity < 16; ++entity) {
    Rng stream = family.Stream(entity);
    heads.push_back(stream.Next());
  }
  for (size_t i = 0; i < heads.size(); ++i) {
    for (size_t j = i + 1; j < heads.size(); ++j) {
      EXPECT_NE(heads[i], heads[j]) << i << " vs " << j;
    }
  }
  // And the streams stay decorrelated beyond the head.
  Rng a = family.Stream(0);
  Rng b = family.Stream(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(StreamFamilyTest, StreamDependsOnlyOnMasterSaltEntity) {
  // Two families built identically mint identical streams — there is no
  // hidden per-family state, so adding or reordering other entities can
  // never move an existing entity's stream.
  const StreamFamily a(7, 99);
  const StreamFamily b(7, 99);
  EXPECT_EQ(a.StreamSeed(5), b.StreamSeed(5));
  Rng ra = a.Stream(5);
  Rng rb = b.Stream(5);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(ra.Next(), rb.Next());

  // Distinct salts separate families under the same master seed, and
  // distinct masters separate families under the same salt.
  EXPECT_NE(StreamFamily(7, 99).StreamSeed(5),
            StreamFamily(7, 100).StreamSeed(5));
  EXPECT_NE(StreamFamily(7, 99).StreamSeed(5),
            StreamFamily(8, 99).StreamSeed(5));
}

TEST(StreamFamilyTest, SeedCompositionMatchesMixSeed) {
  // The documented derivation: MixSeed(MixSeed(master, salt), entity).
  const uint64_t master = 0xdeadbeefcafef00dULL;
  const uint64_t salt = 0x5eb1a9d04c8f7e21ULL;
  const StreamFamily family(master, salt);
  for (uint64_t entity : {uint64_t{0}, uint64_t{1}, uint64_t{12345}}) {
    EXPECT_EQ(family.StreamSeed(entity),
              MixSeed(MixSeed(master, salt), entity));
  }
  // String keys go through HashBytes.
  EXPECT_EQ(family.StreamSeed("vid0"), family.StreamSeed(HashBytes("vid0")));
}

TEST(StreamFamilyTest, GoldenSeedsAreStableAcrossPlatforms) {
  // Bit-exact pins of the derivation. If these move, every committed
  // BAI certificate and traffic baseline moves with them — bump only
  // with a deliberate format change.
  const StreamFamily family(42, 0x1234);
  EXPECT_EQ(family.StreamSeed(0), uint64_t{14275169739934877849ULL});
  EXPECT_EQ(family.StreamSeed(1), uint64_t{14214954560159654335ULL});
  EXPECT_EQ(family.StreamSeed("vid0"), uint64_t{18133182035320864015ULL});
}

}  // namespace
}  // namespace vaq
