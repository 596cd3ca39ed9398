#ifndef SPITZ_INDEX_MPT_H_
#define SPITZ_INDEX_MPT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "chunk/chunk_store.h"
#include "common/slice.h"
#include "common/status.h"
#include "crypto/hash.h"
#include "index/proof_node.h"

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

  // Point proof: the nodes along the traversal, root first.
  struct Proof {
    std::vector<ProofNode> nodes;
  };

  // Point read: the one traversal. With a non-null `proof` it cites the
  // chunks the traversal visits as the proof; null skips that.
  Status Get(const Hash256& root, const Slice& key, std::string* value,
             Proof* proof) const;

  static Status VerifyProof(const Hash256& root, const Slice& key,
                            const std::optional<std::string>& expected_value,
                            const Proof& proof);

  // Number of keys stored under `root` (full subtree walk).
  Status Count(const Hash256& root, uint64_t* count) const;

  // Inserts every chunk id reachable from `root` into *live (pruning
  // already-visited subtrees). Used by the version GC.
  Status CollectChunks(const Hash256& root,
                       std::unordered_set<Hash256, Hash256Hasher>* live) const;

  // A trie node and its payload codec. A leaf is kind, lp(nibble path),
  // lp(value); an extension kind, lp(nibble path), child id; a branch
  // kind, fixed32 child mask, each present child's id, a 0/1 value flag
  // and lp(value) when set. DecodeNode refuses every payload EncodeNode
  // would not have written.
  enum class NodeKind : uint8_t { kLeaf = 0, kExtension = 1, kBranch = 2 };

  struct Node {
    NodeKind kind = NodeKind::kLeaf;
    std::vector<uint8_t> path;  // leaf or extension nibble path
    std::string value;          // leaf value or branch value
    bool has_value = false;     // branch-only
    Hash256 children[16];       // branch children (zero = absent)
    Hash256 child;              // extension child
  };

  static std::string EncodeNode(const Node& node);
  static Status DecodeNode(const Slice& payload, Node* node);

 private:
  static std::vector<uint8_t> ToNibbles(const Slice& key);

  Status LoadNode(const Hash256& id, Node* node) const;
  Hash256 StoreNode(const Node& node) const;

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
  Status Normalize(const Node& node, Hash256* out) const;

  ChunkStore* store_;
};

}  // namespace spitz

#endif  // SPITZ_INDEX_MPT_H_
