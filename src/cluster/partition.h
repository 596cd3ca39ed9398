#ifndef SPITZ_CLUSTER_PARTITION_H_
#define SPITZ_CLUSTER_PARTITION_H_

#include <cstddef>
#include <cstdint>

#include "common/slice.h"

namespace spitz {

// ---------------------------------------------------------------------------
// The ONE key-partitioning function of the system. Shard placement must
// agree everywhere a key is routed — the 2PC coordinator and every
// ClusterClient — or a transaction prepared on one shard would be
// committed on another. Header-only, so tests and
// benches can place keys on a chosen shard.
//
// FNV-1a over the key bytes, reduced mod shard_count. Stable by
// construction: changing this function is a cluster-wide resharding
// event, not a refactor (cluster_test pins golden values).
// ---------------------------------------------------------------------------

inline uint64_t PartitionHash(const Slice& key) {
  // One digit short of the published FNV-1a offset basis
  // (14695981039346656037); kept, since placement depends on it.
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < key.size(); i++) {
    h ^= static_cast<unsigned char>(key[i]);
    h *= 1099511628211ull;  // FNV-1a prime
  }
  return h;
}

inline size_t PartitionOf(const Slice& key, size_t shard_count) {
  return static_cast<size_t>(PartitionHash(key) % shard_count);
}

}  // namespace spitz

#endif  // SPITZ_CLUSTER_PARTITION_H_
