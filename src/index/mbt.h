#ifndef SPITZ_INDEX_MBT_H_
#define SPITZ_INDEX_MBT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "chunk/chunk_store.h"
#include "common/slice.h"
#include "common/status.h"
#include "crypto/hash.h"
#include "index/pos_tree.h"
#include "index/proof_node.h"

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
  struct Options {
    Options() : bucket_count(256) {}
    explicit Options(uint32_t buckets) : bucket_count(buckets) {}
    uint32_t bucket_count;
  };

  explicit MerkleBucketTree(ChunkStore* store, Options options = Options())
      : store_(store), options_(options) {}

  MerkleBucketTree(const MerkleBucketTree&) = delete;
  MerkleBucketTree& operator=(const MerkleBucketTree&) = delete;

  static Hash256 EmptyRoot() { return Hash256(); }

  Status Put(const Hash256& root, const Slice& key, const Slice& value,
             Hash256* new_root) const;

  Status Delete(const Hash256& root, const Slice& key,
                Hash256* new_root) const;

  // A point proof: the directory payload (which the root id commits to)
  // plus the queried bucket's payload. MBT proofs are inherently bulky —
  // the verifier needs the bucket directory — which is part of why the
  // SIRI analysis favours the POS-tree.
  // An empty bucket is cited with an empty payload.
  struct Proof {
    uint32_t bucket_index = 0;
    ProofNode directory;
    ProofNode bucket;
  };

  // Point read: the one traversal. With a non-null `proof` it cites the
  // directory and bucket chunks the traversal reads as the proof; null
  // skips that.
  Status Get(const Hash256& root, const Slice& key, std::string* value,
             Proof* proof) const;

  static Status VerifyProof(const Hash256& root, const Slice& key,
                            const std::optional<std::string>& expected_value,
                            const Proof& proof, const Options& options = Options());

  Status Count(const Hash256& root, uint64_t* count) const;

  // Inserts the directory chunk and every bucket chunk reachable from
  // `root` into *live. Used by the version GC.
  Status CollectChunks(const Hash256& root,
                       std::unordered_set<Hash256, Hash256Hasher>* live) const;

 private:
  uint32_t BucketOf(const Slice& key) const;

  // The root chunk is the "directory": the list of bucket chunk ids.
  Status LoadDirectory(const Hash256& root,
                       std::vector<Hash256>* bucket_ids) const;
  Hash256 StoreDirectory(const std::vector<Hash256>& bucket_ids) const;

  ChunkStore* store_;
  Options options_;
};

}  // namespace spitz

#endif  // SPITZ_INDEX_MBT_H_
