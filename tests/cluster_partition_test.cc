// Direct unit/property coverage for cluster::PartitionNames, the pure
// function every process derives the shard layout from. The invariants
// here are the cluster's placement contract: every input name lands in
// exactly one shard (full coverage, no duplicates), the outer vector
// always has num_shards entries, each inner vector is sorted, and the
// layout is invariant under any permutation of the input — there is no
// placement metadata to ship because there is nothing order-dependent
// to remember.
#include "cluster/partition.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace vaq {
namespace cluster {
namespace {

std::vector<std::string> RandomNames(uint64_t seed, int count) {
  Rng rng(seed);
  std::set<std::string> unique;
  while (static_cast<int>(unique.size()) < count) {
    std::string name = "v";
    const int len = static_cast<int>(rng.UniformInt(int64_t{1}, int64_t{12}));
    for (int i = 0; i < len; ++i) {
      name.push_back(
          static_cast<char>('a' + rng.UniformInt(int64_t{0}, int64_t{25})));
    }
    unique.insert(std::move(name));
  }
  return std::vector<std::string>(unique.begin(), unique.end());
}

void ExpectValidPartition(const std::vector<std::string>& names,
                          int num_shards, PartitionScheme scheme) {
  const std::vector<std::vector<std::string>> shards =
      PartitionNames(names, num_shards, scheme);
  const std::string label = std::string(PartitionSchemeName(scheme)) +
                            " shards=" + std::to_string(num_shards) +
                            " names=" + std::to_string(names.size());
  ASSERT_EQ(shards.size(), static_cast<size_t>(num_shards)) << label;

  // Full coverage, no duplicates: the multiset of assigned names is
  // exactly the input set.
  std::vector<std::string> assigned;
  for (const std::vector<std::string>& shard : shards) {
    EXPECT_TRUE(std::is_sorted(shard.begin(), shard.end())) << label;
    assigned.insert(assigned.end(), shard.begin(), shard.end());
  }
  EXPECT_EQ(assigned.size(), names.size()) << label;
  std::sort(assigned.begin(), assigned.end());
  std::vector<std::string> expected = names;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(assigned, expected) << label;

  if (scheme == PartitionScheme::kHash) {
    // Hash placement agrees with the public single-name function.
    for (int s = 0; s < num_shards; ++s) {
      for (const std::string& name : shards[static_cast<size_t>(s)]) {
        EXPECT_EQ(HashShardOf(name, num_shards), s) << label << " " << name;
      }
    }
  } else {
    // Range shards are contiguous runs of the sorted name list
    // (concatenating them reproduces it) and near-equal in size.
    std::vector<std::string> concatenated;
    size_t smallest = names.size() + 1;
    size_t largest = 0;
    for (const std::vector<std::string>& shard : shards) {
      concatenated.insert(concatenated.end(), shard.begin(), shard.end());
      smallest = std::min(smallest, shard.size());
      largest = std::max(largest, shard.size());
    }
    EXPECT_EQ(concatenated, expected) << label;
    if (names.size() >= static_cast<size_t>(num_shards)) {
      EXPECT_LE(largest - smallest, 1u) << label;
    }
  }

  // Permutation invariance: reversed and rotated inputs give the
  // byte-identical layout.
  std::vector<std::string> reversed(names.rbegin(), names.rend());
  EXPECT_EQ(PartitionNames(reversed, num_shards, scheme), shards) << label;
  if (names.size() > 1) {
    std::vector<std::string> rotated(names.begin() + 1, names.end());
    rotated.push_back(names.front());
    EXPECT_EQ(PartitionNames(rotated, num_shards, scheme), shards) << label;
  }
}

TEST(ClusterPartition, EveryNameLandsInExactlyOneShard) {
  for (const int count : {1, 2, 7, 32, 100}) {
    const std::vector<std::string> names =
        RandomNames(900 + static_cast<uint64_t>(count), count);
    for (const int num_shards : {1, 2, 3, 5, 8}) {
      ExpectValidPartition(names, num_shards, PartitionScheme::kHash);
      ExpectValidPartition(names, num_shards, PartitionScheme::kRange);
    }
  }
}

TEST(ClusterPartition, MoreShardsThanNamesLeavesEmptiesNotDuplicates) {
  const std::vector<std::string> names = RandomNames(17, 3);
  ExpectValidPartition(names, 8, PartitionScheme::kHash);
  ExpectValidPartition(names, 8, PartitionScheme::kRange);
}

TEST(ClusterPartition, HashIsStableUnderRepositoryGrowth) {
  // Adding a video never moves another one: the hash placement of the
  // original names is identical with and without the newcomer.
  const std::vector<std::string> names = RandomNames(23, 24);
  for (const int num_shards : {2, 4, 7}) {
    const std::vector<std::vector<std::string>> before =
        PartitionNames(names, num_shards, PartitionScheme::kHash);
    std::vector<std::string> grown = names;
    grown.push_back("zz-newcomer");
    std::vector<std::vector<std::string>> after =
        PartitionNames(grown, num_shards, PartitionScheme::kHash);
    const int home = HashShardOf("zz-newcomer", num_shards);
    auto& home_shard = after[static_cast<size_t>(home)];
    home_shard.erase(
        std::find(home_shard.begin(), home_shard.end(), "zz-newcomer"));
    EXPECT_EQ(after, before) << "shards=" << num_shards;
  }
}

TEST(ClusterPartition, StableHashIsPartOfTheWireContract) {
  // HashShardOf places names by HashBytes (FNV-1a), which is pinned:
  // these values may never change without a protocol version bump
  // (every process derives placement from them).
  EXPECT_EQ(HashBytes(""), 14695981039346656037ULL);
  EXPECT_EQ(HashBytes("a"), 12638187200555641996ULL);
  EXPECT_EQ(HashBytes("v0"), HashBytes(std::string("v0")));
  EXPECT_NE(HashBytes("v0"), HashBytes("v1"));
}

}  // namespace
}  // namespace cluster
}  // namespace vaq
