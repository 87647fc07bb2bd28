#include "cluster/partition.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"

namespace vaq {
namespace cluster {

const char* PartitionSchemeName(PartitionScheme scheme) {
  switch (scheme) {
    case PartitionScheme::kHash:
      return "hash";
    case PartitionScheme::kRange:
      return "range";
  }
  return "unknown";
}

StatusOr<PartitionScheme> ParsePartitionScheme(const std::string& name) {
  if (name == "hash") return PartitionScheme::kHash;
  if (name == "range") return PartitionScheme::kRange;
  return Status::InvalidArgument("unknown partition scheme: '" + name +
                                 "' (want hash|range)");
}

int HashShardOf(std::string_view name, int num_shards) {
  VAQ_CHECK_GT(num_shards, 0);
  return static_cast<int>(HashBytes(name) %
                          static_cast<uint64_t>(num_shards));
}

std::vector<std::vector<std::string>> PartitionNames(
    std::vector<std::string> names, int num_shards, PartitionScheme scheme) {
  VAQ_CHECK_GT(num_shards, 0);
  std::vector<std::vector<std::string>> shards(
      static_cast<size_t>(num_shards));
  std::sort(names.begin(), names.end());
  if (scheme == PartitionScheme::kHash) {
    for (std::string& name : names) {
      shards[static_cast<size_t>(HashShardOf(name, num_shards))].push_back(
          std::move(name));
    }
    return shards;  // Inner vectors sorted: inputs were visited in order.
  }
  // Range: cut the sorted list into near-equal contiguous runs, the
  // first `n % num_shards` runs one element longer.
  const size_t n = names.size();
  const size_t base = n / static_cast<size_t>(num_shards);
  const size_t extra = n % static_cast<size_t>(num_shards);
  size_t next = 0;
  for (size_t s = 0; s < static_cast<size_t>(num_shards); ++s) {
    const size_t len = base + (s < extra ? 1 : 0);
    for (size_t i = 0; i < len; ++i) {
      shards[s].push_back(std::move(names[next++]));
    }
  }
  VAQ_CHECK_EQ(next, n);
  return shards;
}

}  // namespace cluster
}  // namespace vaq
