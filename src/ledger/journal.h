#ifndef SPITZ_LEDGER_JOURNAL_H_
#define SPITZ_LEDGER_JOURNAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "crypto/hash.h"
#include "ledger/block.h"
#include "ledger/merkle_tree.h"

namespace spitz {

// The signed state a client retains to verify later proofs against: the
// journal tip after `block_count` blocks.
struct JournalDigest {
  uint64_t block_count = 0;
  uint64_t entry_count = 0;
  Hash256 tip_hash;     // hash of the latest block (chain head)
  Hash256 merkle_root;  // root of the Merkle tree over block hashes
};

// Proof that a specific entry is included in the journal covered by a
// digest: the path from the entry through its block's internal Merkle
// tree, the block header fields needed to recompute the block hash, and
// the path from the block hash to the journal Merkle root.
struct JournalEntryProof {
  uint64_t block_height = 0;
  uint64_t entry_index = 0;  // index within the block
  MerkleInclusionProof entry_path;  // within-block proof
  // Block header fields (entry root is recomputed by the verifier).
  uint64_t first_seq = 0;
  Hash256 prev_hash;
  Hash256 index_root;
  uint64_t block_timestamp = 0;
  MerkleInclusionProof block_path;  // block-level proof to merkle_root
};

// An append-only journal of hash-chained blocks with a Merkle tree over
// the block hashes, in the style of ledger databases such as Amazon QLDB
// (paper section 2.3). Blocks are stored *serialized*; producing an
// entry-level proof requires decoding the containing block and
// recomputing its internal Merkle tree, which is exactly the per-record
// ledger-search cost the paper attributes to the baseline (section
// 6.2.2).
class Journal {
 public:
  Journal() = default;

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  // Appends a block containing the given entries; returns its height.
  // index_root records the state of the system's indexes as of this
  // block (zero when unused).
  uint64_t Append(std::vector<LedgerEntry> entries, const Hash256& index_root,
                  uint64_t timestamp);

  // Restores a block read back from disk or received from a primary.
  // `block` is `serialized` decoded by the caller (Block::Decode derived
  // its hashes); Restore checks that it chains from the current tip at
  // the expected height and sequence, and keeps `serialized` as stored.
  Status Restore(const Block& block, const Slice& serialized);

  // Serialized form of the block at `height` (for persistence).
  const std::string& SerializedBlock(uint64_t height) const {
    return serialized_blocks_[height];
  }

  uint64_t block_count() const { return block_hashes_.size(); }
  uint64_t entry_count() const { return entry_count_; }

  JournalDigest Digest() const;

  // Decodes and returns the block at the given height.
  Status GetBlock(uint64_t height, Block* block) const;

  // The index root recorded in the block at `height`, without decoding
  // the block.
  const Hash256& IndexRoot(uint64_t height) const {
    return index_roots_[height];
  }

  // Proof that the block at `height` is included in the journal's
  // Merkle tree (block-level only; cheap, O(log n)).
  Status BlockInclusionProof(uint64_t height,
                             MerkleInclusionProof* proof) const {
    return block_tree_.InclusionProof(height, proof);
  }

  // Builds the full proof for entry `entry_index` of block `height`.
  // This performs the honest work a ledger service must do when proofs
  // are retrieved individually: decode the stored block and recompute
  // its internal Merkle tree.
  Status ProveEntry(uint64_t height, uint64_t entry_index,
                    JournalEntryProof* proof, LedgerEntry* entry) const;

  // Client-side verification of an entry proof against a digest.
  static Status VerifyEntry(const LedgerEntry& entry,
                            const JournalEntryProof& proof,
                            const JournalDigest& digest);

  // Append-only consistency between two digests observed over time.
  Status ConsistencyProof(uint64_t old_block_count,
                          MerkleConsistencyProof* proof) const;
  static bool VerifyConsistency(const MerkleConsistencyProof& proof,
                                const JournalDigest& old_digest,
                                const JournalDigest& new_digest);

  // Total serialized bytes across all blocks (storage accounting).
  uint64_t stored_bytes() const { return stored_bytes_; }

 private:
  std::vector<std::string> serialized_blocks_;
  std::vector<Hash256> block_hashes_;
  std::vector<Hash256> index_roots_;  // each block's index_root()
  MerkleTree block_tree_;  // Merkle tree over block hashes
  Hash256 tip_hash_;
  uint64_t entry_count_ = 0;
  uint64_t stored_bytes_ = 0;
};

}  // namespace spitz

#endif  // SPITZ_LEDGER_JOURNAL_H_
