#ifndef SPITZ_INDEX_SIRI_H_
#define SPITZ_INDEX_SIRI_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "chunk/chunk_store.h"
#include "common/slice.h"
#include "common/status.h"
#include "crypto/hash.h"
#include "index/mbt.h"
#include "index/mpt.h"
#include "index/pos_tree.h"
#include "proof/siri_proof.h"

namespace spitz {

struct SiriIndexOptions {
  SiriIndexOptions() {}
  PosTreeOptions pos;              // kPosTree tuning knobs
  uint32_t mbt_bucket_count = 256; // kMerkleBucketTree bucket count
};

// The unified index interface. A version is a root hash; all mutating
// operations return the root of a new version and never touch existing
// chunks, so any number of versions can be read concurrently. Reads come
// in two shapes, a point read and a range read, each one traversal whose
// visited nodes double as the proof when the caller asks for one.
// Backends that cannot serve ordered scans report SupportsScan() ==
// false and return NotSupported from Scan.
class SiriIndex {
 public:
  virtual ~SiriIndex() = default;

  virtual SiriBackend kind() const = 0;
  const char* name() const { return SiriBackendName(kind()); }

  virtual bool SupportsScan() const { return false; }

  // The empty index is the zero hash for every backend.
  Hash256 EmptyRoot() const { return Hash256(); }

  // Backends that cache decoded nodes (under BufferCache::kPosNode)
  // accept a cache here; others ignore it.
  virtual void SetNodeCache(BufferCache* /*cache*/) {}

  // --- Reads --------------------------------------------------------------

  // Point read of `key` in the version `root`; NotFound if absent. A
  // non-null `proof` receives the membership (or non-membership) proof
  // assembled from the same traversal; null skips the proof work.
  virtual Status Get(const Hash256& root, const Slice& key,
                     std::string* value, SiriProof* proof) const = 0;
  // Range read of [start, end), at most `limit` rows (0 = no limit), in
  // key order; `proof` as for Get. NotSupported unless SupportsScan().
  virtual Status Scan(const Hash256& root, const Slice& start,
                      const Slice& end, size_t limit,
                      std::vector<PosEntry>* out,
                      SiriRangeProof* proof) const;

  // --- Writes -------------------------------------------------------------

  // Applies `writes` to the version `root` (the last write per key
  // wins; deleting an absent key is a no-op) and returns the new root.
  // A non-null `replaced` gets appended the ids of the nodes of `root`
  // the new version no longer holds (PosTree::Apply); backends that
  // cache no decoded nodes append nothing. A node a write's path names
  // that the store cannot return fails the call, and a failed call
  // touches neither *new_root nor *replaced. MPT and MBT apply one
  // write at a time; the POS-tree applies the batch in one pass.
  virtual Status Apply(const Hash256& root, IndexWrites writes,
                       Hash256* new_root,
                       std::vector<Hash256>* replaced = nullptr) const = 0;

  // Bulk-builds a tree from entries (last write per key wins): Apply of
  // their puts on the empty root.
  Status Build(std::vector<PosEntry> entries, Hash256* root) const {
    return Apply(EmptyRoot(), IndexWrites{std::move(entries), {}}, root);
  }

  virtual Status Count(const Hash256& root, uint64_t* count) const = 0;

  // Inserts the ids of every chunk reachable from `root` (the root
  // itself, internal nodes, leaves/buckets) into *live. Shared subtrees
  // already present in *live are pruned, so marking N retained versions
  // costs the size of their union, not N full walks — the structural
  // sharing of the SIRI family working for the GC. Used by the version
  // GC to assemble the live set passed to ChunkStore::RetainLive.
  virtual Status CollectChunks(
      const Hash256& root,
      std::unordered_set<Hash256, Hash256Hasher>* live) const = 0;
};

// Constructs the backend named by `kind` over `store`.
std::unique_ptr<SiriIndex> MakeSiriIndex(SiriBackend kind, ChunkStore* store,
                                         const SiriIndexOptions& options = {});

}  // namespace spitz

#endif  // SPITZ_INDEX_SIRI_H_
