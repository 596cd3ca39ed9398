#include "ledger/journal.h"

#include "common/clock.h"
#include "common/codec.h"

namespace spitz {

uint64_t Journal::Append(std::vector<LedgerEntry> entries,
                         const Hash256& index_root, uint64_t timestamp) {
  uint64_t height = block_hashes_.size();
  Block block(height, entry_count_, tip_hash_, std::move(entries), index_root,
              timestamp);
  std::string encoded = block.Encode();
  // Encode grew the string by doubling; the journal keeps it for good.
  encoded.shrink_to_fit();
  entry_count_ += block.entries().size();
  tip_hash_ = block.block_hash();
  block_hashes_.push_back(tip_hash_);
  index_roots_.push_back(index_root);
  block_tree_.AppendLeafHash(Hash256::OfLeaf(tip_hash_.slice()));
  stored_bytes_ += encoded.size();
  serialized_blocks_.push_back(std::move(encoded));
  return height;
}

Status Journal::Restore(const Block& block, const Slice& serialized) {
  if (block.height() != block_hashes_.size()) {
    return Status::Corruption("restored block at wrong height");
  }
  if (block.prev_hash() != tip_hash_) {
    return Status::Corruption("restored block breaks the hash chain");
  }
  if (block.first_seq() != entry_count_) {
    return Status::Corruption("restored block at wrong sequence");
  }
  entry_count_ += block.entries().size();
  tip_hash_ = block.block_hash();
  block_hashes_.push_back(tip_hash_);
  index_roots_.push_back(block.index_root());
  block_tree_.AppendLeafHash(Hash256::OfLeaf(tip_hash_.slice()));
  stored_bytes_ += serialized.size();
  serialized_blocks_.push_back(serialized.ToString());
  return Status::OK();
}

JournalDigest Journal::Digest() const {
  JournalDigest d;
  d.block_count = block_hashes_.size();
  d.entry_count = entry_count_;
  d.tip_hash = tip_hash_;
  d.merkle_root = block_tree_.Root();
  return d;
}

Status Journal::GetBlock(uint64_t height, Block* block) const {
  if (height >= serialized_blocks_.size()) {
    return Status::NotFound("block height beyond journal");
  }
  return Block::Decode(serialized_blocks_[height], block);
}

Status Journal::ProveEntry(uint64_t height, uint64_t entry_index,
                           JournalEntryProof* proof,
                           LedgerEntry* entry) const {
  Block block;
  Status s = GetBlock(height, &block);
  if (!s.ok()) return s;
  if (entry_index >= block.entries().size()) {
    return Status::InvalidArgument("entry index beyond block");
  }
  // Recompute the block-internal Merkle tree to extract the entry path.
  MerkleTree entry_tree;
  for (const LedgerEntry& e : block.entries()) {
    entry_tree.AppendLeafHash(e.LeafHash());
  }
  proof->block_height = height;
  proof->entry_index = entry_index;
  s = entry_tree.InclusionProof(entry_index, &proof->entry_path);
  if (!s.ok()) return s;
  proof->first_seq = block.first_seq();
  proof->prev_hash = block.prev_hash();
  proof->index_root = block.index_root();
  proof->block_timestamp = block.timestamp();
  s = block_tree_.InclusionProof(height, &proof->block_path);
  if (!s.ok()) return s;
  *entry = block.entries()[entry_index];
  return Status::OK();
}

Status Journal::VerifyEntry(const LedgerEntry& entry,
                            const JournalEntryProof& proof,
                            const JournalDigest& digest) {
  // 1. Entry -> block entries root.
  Hash256 leaf = entry.LeafHash();
  // Reconstruct the entries root from the within-block path.
  // VerifyInclusion needs the root; recompute it by folding: we instead
  // derive the root via the canonical fold then compare by recomputing
  // the block hash and checking the block-level inclusion.
  // Fold the entry path to obtain the claimed entries root.
  // (Same algorithm as MerkleTree::VerifyInclusion but returning the
  // computed root.)
  uint64_t fn = proof.entry_path.leaf_index;
  uint64_t sn = proof.entry_path.tree_size == 0
                    ? 0
                    : proof.entry_path.tree_size - 1;
  if (proof.entry_path.leaf_index >= proof.entry_path.tree_size) {
    return Status::VerificationFailed("bad entry index in proof");
  }
  Hash256 r = leaf;
  for (const Hash256& c : proof.entry_path.path) {
    if (sn == 0) return Status::VerificationFailed("entry path too long");
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
  if (sn != 0) return Status::VerificationFailed("entry path too short");
  Hash256 entries_root = r;

  // 2. Entries root + header fields -> block hash.
  std::string header;
  PutVarint64(&header, proof.block_height);
  PutVarint64(&header, proof.first_seq);
  header.append(proof.prev_hash.ToBytes());
  header.append(entries_root.ToBytes());
  header.append(proof.index_root.ToBytes());
  PutVarint64(&header, proof.block_timestamp);
  Hash256 block_hash = Hash256::Of(header);

  // 3. Block hash -> journal Merkle root.
  if (!MerkleTree::VerifyInclusion(Hash256::OfLeaf(block_hash.slice()),
                                   proof.block_path, digest.merkle_root)) {
    return Status::VerificationFailed("block not in journal");
  }
  if (proof.block_path.tree_size != digest.block_count) {
    return Status::VerificationFailed("proof generated for different digest");
  }
  return Status::OK();
}

Status Journal::ConsistencyProof(uint64_t old_block_count,
                                 MerkleConsistencyProof* proof) const {
  return block_tree_.ConsistencyProof(old_block_count, proof);
}

bool Journal::VerifyConsistency(const MerkleConsistencyProof& proof,
                                const JournalDigest& old_digest,
                                const JournalDigest& new_digest) {
  if (proof.old_size != old_digest.block_count ||
      proof.new_size != new_digest.block_count) {
    return false;
  }
  return MerkleTree::VerifyConsistency(proof, old_digest.merkle_root,
                                       new_digest.merkle_root);
}

}  // namespace spitz
