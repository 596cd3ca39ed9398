#ifndef SPITZ_INDEX_MBT_H_
#define SPITZ_INDEX_MBT_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "chunk/chunk_store.h"
#include "common/slice.h"
#include "common/status.h"
#include "crypto/hash.h"
#include "proof/siri_proof.h"

namespace spitz {

// A Merkle Bucket Tree — the SIRI instance used by Hyperledger Fabric's
// world state (paper section 3.1). Keys are hashed into a fixed number
// of buckets; a binary Merkle tree over the bucket hashes yields the
// digest. Structurally invariant by construction (bucket assignment is
// a pure function of the key), but every update rewrites its whole
// bucket and the root directory, which is the cost the SIRI analysis
// ([59] in the paper) holds against it.
class MerkleBucketTree {
 public:
  explicit MerkleBucketTree(ChunkStore* store,
                            MbtOptions options = MbtOptions())
      : store_(store), options_(options) {}

  MerkleBucketTree(const MerkleBucketTree&) = delete;
  MerkleBucketTree& operator=(const MerkleBucketTree&) = delete;

  static Hash256 EmptyRoot() { return Hash256(); }

  Status Put(const Hash256& root, const Slice& key, const Slice& value,
             Hash256* new_root) const;

  Status Delete(const Hash256& root, const Slice& key,
                Hash256* new_root) const;

  // Point read: the one traversal. With a non-null `proof` it cites the
  // directory and bucket chunks the traversal reads as the proof; null
  // skips that.
  Status Get(const Hash256& root, const Slice& key, std::string* value,
             MbtProof* proof) const;

  Status Count(const Hash256& root, uint64_t* count) const;

  // Inserts the directory chunk and every bucket chunk reachable from
  // `root` into *live. Used by the version GC.
  Status CollectChunks(const Hash256& root,
                       std::unordered_set<Hash256, Hash256Hasher>* live) const;

 private:
  Status LoadDirectory(const Hash256& root,
                       std::vector<Hash256>* bucket_ids) const;
  Hash256 StoreDirectory(const std::vector<Hash256>& bucket_ids) const;

  ChunkStore* store_;
  MbtOptions options_;
};

}  // namespace spitz

#endif  // SPITZ_INDEX_MBT_H_
