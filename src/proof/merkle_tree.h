#ifndef SPITZ_PROOF_MERKLE_TREE_H_
#define SPITZ_PROOF_MERKLE_TREE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "crypto/hash.h"

namespace spitz {

// An inclusion proof: the sibling hashes on the path from a leaf to the
// root, ordered from the leaf level upward, together with the leaf index
// and tree size the proof was generated against.
struct MerkleInclusionProof {
  uint64_t leaf_index = 0;
  uint64_t tree_size = 0;
  std::vector<Hash256> path;
};

// A consistency (append-only) proof between two tree sizes.
struct MerkleConsistencyProof {
  uint64_t old_size = 0;
  uint64_t new_size = 0;
  std::vector<Hash256> path;
};

// An append-only Merkle hash tree following the RFC 6962 structure
// (history tree): leaves are hashed with a 0x00 domain prefix, interior
// nodes with 0x01, and the tree over n leaves splits at the largest
// power of two smaller than n. Supports O(log n) roots, inclusion
// proofs, and consistency proofs between any two sizes.
//
// This primitive backs the baseline system's journal ledger and the
// client-side verifier.
class MerkleTree {
 public:
  MerkleTree() : levels_(1) {}

  MerkleTree(const MerkleTree&) = delete;
  MerkleTree& operator=(const MerkleTree&) = delete;

  // Appends an already-hashed leaf and returns its index.
  uint64_t AppendLeafHash(const Hash256& leaf_hash);

  // Hashes data with the leaf domain prefix and appends it.
  uint64_t AppendLeaf(const Slice& data) {
    return AppendLeafHash(Hash256::OfLeaf(data));
  }

  uint64_t size() const { return levels_[0].size(); }

  // Root of the current tree. The root of an empty tree is defined as
  // SHA-256 of the empty string, as in RFC 6962.
  Hash256 Root() const;

  // Root of the prefix tree over the first `size` leaves.
  Status RootAt(uint64_t size, Hash256* root) const;

  Status InclusionProof(uint64_t leaf_index,
                        MerkleInclusionProof* proof) const;

  Status ConsistencyProof(uint64_t old_size,
                          MerkleConsistencyProof* proof) const;

  // Stateless verification helpers (client side; no access to the tree).
  // RootFromPath folds `leaf_hash` up `proof.path` into the root it
  // implies; false when the path's length does not fit the leaf index
  // and tree size. VerifyInclusion compares that root with `root`.
  static bool RootFromPath(const Hash256& leaf_hash,
                           const MerkleInclusionProof& proof, Hash256* root);
  static bool VerifyInclusion(const Hash256& leaf_hash,
                              const MerkleInclusionProof& proof,
                              const Hash256& root) {
    Hash256 computed;
    return RootFromPath(leaf_hash, proof, &computed) && computed == root;
  }
  static bool VerifyConsistency(const MerkleConsistencyProof& proof,
                                const Hash256& old_root,
                                const Hash256& new_root);

 private:
  // Hash of the subtree over leaves [start, start + size).
  Hash256 SubtreeHash(uint64_t start, uint64_t size) const;

  // RFC 6962 PATH and SUBPROOF over leaf range [start, start + size).
  void Path(uint64_t m, uint64_t start, uint64_t size,
            std::vector<Hash256>* out) const;
  void SubProof(uint64_t m, uint64_t start, uint64_t size, bool complete,
                std::vector<Hash256>* out) const;

  // levels_[0] holds the leaf hashes; levels_[l][i] the hash of the
  // full, aligned subtree covering leaves [i * 2^l, (i+1) * 2^l).
  // Filled incrementally on append.
  mutable std::vector<std::vector<Hash256>> levels_;
};

// The root MerkleTree::Root() gives over the same leaves, for a caller
// that needs the root alone (a block's entries root): it keeps the
// roots of the perfect subtrees the leaves so far fill, one per set bit
// of their count, and allocates nothing.
class MerkleFrontier {
 public:
  void AppendLeafHash(const Hash256& leaf_hash);
  Hash256 Root() const;

 private:
  // peaks_[l] is the root of the 2^l leaves that bit l of size_ stands
  // for, when that bit is set.
  Hash256 peaks_[64];
  uint64_t size_ = 0;
};

// Largest power of two strictly less than n (n >= 2).
uint64_t LargestPowerOfTwoBelow(uint64_t n);

}  // namespace spitz

#endif  // SPITZ_PROOF_MERKLE_TREE_H_
