#include "proof/merkle_tree.h"

#include "common/codec.h"

namespace spitz {

uint64_t LargestPowerOfTwoBelow(uint64_t n) {
  uint64_t k = 1;
  while (k * 2 < n) k *= 2;
  return k;
}

uint64_t MerkleTree::AppendLeafHash(const Hash256& leaf_hash) {
  uint64_t index = size();
  levels_[0].push_back(leaf_hash);
  // Bubble up: whenever a node completes a pair at some level, the
  // parent full-subtree hash becomes known.
  uint64_t i = index;
  size_t level = 0;
  while (i % 2 == 1) {
    const Hash256& left = levels_[level][i - 1];
    const Hash256& right = levels_[level][i];
    if (levels_.size() <= level + 1) levels_.emplace_back();
    levels_[level + 1].push_back(Hash256::OfPair(left, right));
    i /= 2;
    level++;
  }
  return index;
}

void MerkleFrontier::AppendLeafHash(const Hash256& leaf_hash) {
  // As in MerkleTree: each pair the new leaf completes hashes upward.
  Hash256 carry = leaf_hash;
  size_t level = 0;
  while ((size_ >> level) & 1) {
    carry = Hash256::OfPair(peaks_[level], carry);
    level++;
  }
  peaks_[level] = carry;
  size_++;
}

Hash256 MerkleFrontier::Root() const {
  if (size_ == 0) return Hash256::Of(Slice("", 0));
  // The tree splits at the largest power of two below its size, so the
  // root folds the peaks from the smallest, rightmost one leftward.
  size_t level = __builtin_ctzll(size_);
  Hash256 root = peaks_[level];
  for (level++; level < 64; level++) {
    if ((size_ >> level) & 1) root = Hash256::OfPair(peaks_[level], root);
  }
  return root;
}

Hash256 MerkleTree::SubtreeHash(uint64_t start, uint64_t size) const {
  if (size == 1) return levels_[0][start];
  // Fast path: full, aligned subtree cached in levels_.
  if ((size & (size - 1)) == 0 && start % size == 0) {
    size_t level = 0;
    uint64_t s = size;
    while (s > 1) {
      s /= 2;
      level++;
    }
    if (level < levels_.size() && start / size < levels_[level].size()) {
      return levels_[level][start / size];
    }
  }
  uint64_t k = LargestPowerOfTwoBelow(size);
  return Hash256::OfPair(SubtreeHash(start, k),
                         SubtreeHash(start + k, size - k));
}

Hash256 MerkleTree::Root() const {
  Hash256 root;
  RootAt(size(), &root);
  return root;
}

Status MerkleTree::RootAt(uint64_t size, Hash256* root) const {
  if (size > this->size()) {
    return Status::InvalidArgument("size beyond tree");
  }
  if (size == 0) {
    *root = Hash256::Of(Slice("", 0));
    return Status::OK();
  }
  *root = SubtreeHash(0, size);
  return Status::OK();
}

void MerkleTree::Path(uint64_t m, uint64_t start, uint64_t size,
                      std::vector<Hash256>* out) const {
  if (size == 1) return;
  uint64_t k = LargestPowerOfTwoBelow(size);
  if (m < k) {
    Path(m, start, k, out);
    out->push_back(SubtreeHash(start + k, size - k));
  } else {
    Path(m - k, start + k, size - k, out);
    out->push_back(SubtreeHash(start, k));
  }
}

Status MerkleTree::InclusionProof(uint64_t leaf_index,
                                  MerkleInclusionProof* proof) const {
  if (leaf_index >= size()) {
    return Status::InvalidArgument("leaf index beyond tree");
  }
  proof->leaf_index = leaf_index;
  proof->tree_size = size();
  proof->path.clear();
  Path(leaf_index, 0, size(), &proof->path);
  return Status::OK();
}

void MerkleTree::SubProof(uint64_t m, uint64_t start, uint64_t size,
                          bool complete, std::vector<Hash256>* out) const {
  if (m == size) {
    if (!complete) out->push_back(SubtreeHash(start, size));
    return;
  }
  uint64_t k = LargestPowerOfTwoBelow(size);
  if (m <= k) {
    SubProof(m, start, k, complete, out);
    out->push_back(SubtreeHash(start + k, size - k));
  } else {
    SubProof(m - k, start + k, size - k, false, out);
    out->push_back(SubtreeHash(start, k));
  }
}

Status MerkleTree::ConsistencyProof(uint64_t old_size,
                                    MerkleConsistencyProof* proof) const {
  if (old_size > size()) {
    return Status::InvalidArgument("old size beyond tree");
  }
  proof->old_size = old_size;
  proof->new_size = size();
  proof->path.clear();
  if (old_size == 0 || old_size == size()) {
    return Status::OK();  // trivially consistent
  }
  SubProof(old_size, 0, size(), true, &proof->path);
  return Status::OK();
}

bool MerkleTree::RootFromPath(const Hash256& leaf_hash,
                              const MerkleInclusionProof& proof,
                              Hash256* root) {
  if (proof.leaf_index >= proof.tree_size) return false;
  // Canonical RFC 6962 verification.
  uint64_t fn = proof.leaf_index;
  uint64_t sn = proof.tree_size - 1;
  Hash256 r = leaf_hash;
  for (const Hash256& c : proof.path) {
    if (sn == 0) return false;
    if ((fn & 1) == 1 || fn == sn) {
      r = Hash256::OfPair(c, r);
      while ((fn & 1) == 0 && fn != 0) {
        fn >>= 1;
        sn >>= 1;
      }
      fn >>= 1;
      sn >>= 1;
    } else {
      r = Hash256::OfPair(r, c);
      fn >>= 1;
      sn >>= 1;
    }
  }
  if (sn != 0) return false;
  *root = r;
  return true;
}

bool MerkleTree::VerifyConsistency(const MerkleConsistencyProof& proof,
                                   const Hash256& old_root,
                                   const Hash256& new_root) {
  uint64_t old_size = proof.old_size;
  uint64_t new_size = proof.new_size;
  if (old_size > new_size) return false;
  if (old_size == new_size) return proof.path.empty() && old_root == new_root;
  if (old_size == 0) return proof.path.empty();

  // RFC 6962-bis verification algorithm.
  std::vector<Hash256> path = proof.path;
  uint64_t fn = old_size - 1;
  uint64_t sn = new_size - 1;
  // Skip the common all-ones prefix.
  while (fn & 1) {
    fn >>= 1;
    sn >>= 1;
  }
  size_t i = 0;
  Hash256 fr, sr;
  if (fn == 0) {
    // old tree is a full, aligned subtree of the new tree
    fr = old_root;
    sr = old_root;
  } else {
    if (path.empty()) return false;
    fr = path[0];
    sr = path[0];
    i = 1;
  }
  for (; i < path.size(); i++) {
    if (sn == 0) return false;
    const Hash256& c = path[i];
    if ((fn & 1) == 1 || fn == sn) {
      fr = Hash256::OfPair(c, fr);
      sr = Hash256::OfPair(c, sr);
      while ((fn & 1) == 0 && fn != 0) {
        fn >>= 1;
        sn >>= 1;
      }
      fn >>= 1;
      sn >>= 1;
    } else {
      sr = Hash256::OfPair(sr, c);
      fn >>= 1;
      sn >>= 1;
    }
  }
  return sn == 0 && fr == old_root && sr == new_root;
}

}  // namespace spitz
