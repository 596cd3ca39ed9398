#ifndef SPITZ_LEDGER_JOURNAL_H_
#define SPITZ_LEDGER_JOURNAL_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
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
// (paper section 2.3). Producing an entry-level proof requires reading
// and decoding the containing block and recomputing its internal Merkle
// tree, which is exactly the per-record ledger-search cost the paper
// attributes to the baseline (section 6.2.2).
//
// Where a block lives. Every block is framed (AppendRecordFrame) back to
// back in journal.log, from offset 0; the journal keeps the frame
// boundaries (8 B per block) beside each block's hash, index root and
// Merkle leaf. A block's serialized bytes stay resident only until its
// frame has reached the attached file: the owner calls ReleaseResident
// after each journal flush, and every later read of the block is one
// positional read of its frame, checked against its CRC and the resident
// block hash. A journal without a file (an in-memory database) is never
// released and keeps every block.
class Journal {
 public:
  Journal() = default;

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  // Appends a block containing the given entries; returns its height.
  // index_root records the state of the system's indexes as of this
  // block (zero when unused). The block stays resident until released;
  // *serialized (when non-null) points at its bytes until then.
  uint64_t Append(std::vector<LedgerEntry> entries, const Hash256& index_root,
                  uint64_t timestamp, Slice* serialized = nullptr);

  // Restores a block read back from disk or received from a primary.
  // `block` is `serialized` decoded by the caller (Block::Decode derived
  // its hashes); Restore checks that it chains from the current tip at
  // the expected height and sequence. A block already in the file
  // (`in_file`, recovery) keeps only its offset; any other block keeps
  // `serialized` resident until released.
  Status Restore(const Block& block, const Slice& serialized, bool in_file);

  // Makes `file`, opened on journal.log at `path`, the home of every
  // released block. Called once, before any block is released or read.
  void AttachFile(std::unique_ptr<RandomAccessFile> file, std::string path);

  // Drops the resident bytes of every block below `height_end`. The
  // caller guarantees that their frames are readable from the file.
  void ReleaseResident(uint64_t height_end);

  // Where the bytes of one block are, taken under the owner's lock by
  // Locate and read by Load without it: the frame extent in the file,
  // or a copy of the bytes while they are still resident.
  struct BlockRef {
    uint64_t height = 0;
    Hash256 block_hash;
    uint64_t offset = 0;  // frame extent in journal.log
    uint64_t frame_bytes = 0;
    bool resident = false;
    std::string bytes;  // the serialized block when resident
    const RandomAccessFile* file = nullptr;
    const std::string* path = nullptr;
  };
  // NotFound past the tip. *block_path (when non-null) receives the
  // block's inclusion proof in the journal's Merkle tree, which an entry
  // proof of the block needs (ProveEntryIn).
  Status Locate(uint64_t height, BlockRef* ref,
                MerkleInclusionProof* block_path = nullptr) const;
  // Reads and decodes the block `ref` names; *serialized (when non-null)
  // receives its bytes. A block read from the file must pass its frame
  // CRC and hash to its recorded block hash, or Load fails Corruption
  // naming the file and offset. Safe without the owner's lock: `ref`
  // holds everything it touches.
  static Status Load(const BlockRef& ref, std::string* serialized,
                     Block* block);

  // Locate + Load, for callers that hold the owner's lock anyway.
  Status ReadBlock(uint64_t height, std::string* serialized) const;
  Status GetBlock(uint64_t height, Block* block) const;

  uint64_t block_count() const { return block_hashes_.size(); }
  uint64_t entry_count() const { return entry_count_; }

  JournalDigest Digest() const;

  // The index root recorded in the block at `height`, without decoding
  // the block.
  const Hash256& IndexRoot(uint64_t height) const {
    return index_roots_[height];
  }

  // Builds the full proof for entry `entry_index` of block `height`.
  // This performs the honest work a ledger service must do when proofs
  // are retrieved individually: read and decode the stored block and
  // recompute its internal Merkle tree.
  Status ProveEntry(uint64_t height, uint64_t entry_index,
                    JournalEntryProof* proof, LedgerEntry* entry) const;
  // The half of ProveEntry that needs no lock: reads the block `ref`
  // names (Load) and proves its entry `entry_index`. `block_path` is the
  // block's path, taken with `ref` by Locate.
  static Status ProveEntryIn(const BlockRef& ref,
                             const MerkleInclusionProof& block_path,
                             uint64_t entry_index, JournalEntryProof* proof,
                             LedgerEntry* entry);

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

  // Bytes of every block's frame: the size journal.log has once all of
  // them are written.
  uint64_t stored_bytes() const { return frame_ends_.back(); }
  // Serialized bytes still held in memory (the unreleased tail).
  uint64_t resident_bytes() const { return resident_bytes_; }

 private:
  // Records the hashes and frame extent of the next block.
  void AddBlock(const Hash256& block_hash, const Hash256& index_root,
                uint64_t entries, size_t serialized_bytes);

  std::vector<Hash256> block_hashes_;
  std::vector<Hash256> index_roots_;  // each block's index_root()
  // Frame boundaries in journal.log: block h spans
  // [frame_ends_[h], frame_ends_[h + 1]).
  std::vector<uint64_t> frame_ends_{0};
  // The serialized bytes of the last resident_.size() blocks.
  std::deque<std::string> resident_;
  uint64_t resident_bytes_ = 0;
  std::unique_ptr<RandomAccessFile> file_;
  std::string path_;
  MerkleTree block_tree_;  // Merkle tree over block hashes
  Hash256 tip_hash_;
  uint64_t entry_count_ = 0;
};

}  // namespace spitz

#endif  // SPITZ_LEDGER_JOURNAL_H_
