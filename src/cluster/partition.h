// Shard assignment: which node owns which video (or stream).
//
// Two schemes, both pure functions of the name set so every process —
// coordinator, nodes, replicas, tests — derives the identical layout
// with no placement metadata to ship:
//
//  * kHash: FNV-1a of the name modulo the shard count. Stateless and
//    stable under repository growth (adding a video never moves another
//    one), the right default for streams where affinity matters.
//  * kRange: sort the names and cut the sorted list into `num_shards`
//    near-equal contiguous runs. Balanced by construction and
//    range-scannable, but adding a video can shift its neighbours.
#ifndef VAQ_CLUSTER_PARTITION_H_
#define VAQ_CLUSTER_PARTITION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace vaq {
namespace cluster {

enum class PartitionScheme {
  kHash,
  kRange,
};

const char* PartitionSchemeName(PartitionScheme scheme);
StatusOr<PartitionScheme> ParsePartitionScheme(const std::string& name);

// Hash-scheme owner of `name` among `num_shards` shards: HashBytes
// (common/rng.h) modulo the shard count, independent of the process,
// platform and run — part of the cluster's on-the-wire contract.
int HashShardOf(std::string_view name, int num_shards);

// Splits `names` into `num_shards` shards under `scheme`. The outer
// vector always has `num_shards` entries (possibly empty); each inner
// vector is sorted. Every input name lands in exactly one shard.
std::vector<std::vector<std::string>> PartitionNames(
    std::vector<std::string> names, int num_shards, PartitionScheme scheme);

}  // namespace cluster
}  // namespace vaq

#endif  // VAQ_CLUSTER_PARTITION_H_
