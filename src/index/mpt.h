#ifndef SPITZ_INDEX_MPT_H_
#define SPITZ_INDEX_MPT_H_

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

// A Merkle Patricia Trie over the content-addressed chunk store — the
// index structure used by Ethereum's state tree and one of the three
// SIRI instances analysed in paper section 3.1. Like the POS-tree it is
// structurally invariant (a trie's shape depends only on its key set)
// and versions share unmodified nodes; unlike the POS-tree its depth
// follows key nibbles, so long common prefixes cost extra node hops.
//
// All mutations path-copy and return a new root id; the empty trie is
// the zero hash.
class MerklePatriciaTrie {
 public:
  MerklePatriciaTrie(ChunkStore* store) : store_(store) {}

  MerklePatriciaTrie(const MerklePatriciaTrie&) = delete;
  MerklePatriciaTrie& operator=(const MerklePatriciaTrie&) = delete;

  static Hash256 EmptyRoot() { return Hash256(); }

  Status Put(const Hash256& root, const Slice& key, const Slice& value,
             Hash256* new_root) const;

  Status Delete(const Hash256& root, const Slice& key,
                Hash256* new_root) const;

  // Point read: the one traversal. With a non-null `proof` it cites the
  // chunks the traversal visits as the proof; null skips that.
  Status Get(const Hash256& root, const Slice& key, std::string* value,
             MptProof* proof) const;

  // Number of keys stored under `root` (full subtree walk).
  Status Count(const Hash256& root, uint64_t* count) const;

  // Inserts every chunk id reachable from `root` into *live (pruning
  // already-visited subtrees). Used by the version GC.
  Status CollectChunks(const Hash256& root,
                       std::unordered_set<Hash256, Hash256Hasher>* live) const;

 private:
  Status LoadNode(const Hash256& id, MptNode* node) const;
  Hash256 StoreNode(const MptNode& node) const;

  // Recursive insert into the subtree rooted at `id` (zero = empty) for
  // the remaining nibble path; returns the new subtree id.
  Status InsertAt(const Hash256& id, const std::vector<uint8_t>& nibbles,
                  size_t pos, const Slice& value, Hash256* out) const;

  // Recursive delete; *out is zero if the subtree became empty.
  Status DeleteAt(const Hash256& id, const std::vector<uint8_t>& nibbles,
                  size_t pos, Hash256* out) const;

  // Canonicalizes a branch that may have lost children: collapses a
  // branch with one child and no value, or with a value only, into the
  // shorter canonical form.
  Status Normalize(const MptNode& node, Hash256* out) const;

  ChunkStore* store_;
};

}  // namespace spitz

#endif  // SPITZ_INDEX_MPT_H_
