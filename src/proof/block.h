#ifndef SPITZ_PROOF_BLOCK_H_
#define SPITZ_PROOF_BLOCK_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "crypto/hash.h"
#include "proof/merkle_tree.h"

namespace spitz {

// One record modification tracked by the ledger (paper section 5:
// "Each block tracks the modification of the records, query statements,
// metadata and the root node of the indexes on the entire dataset").
struct LedgerEntry {
  enum class Op : uint8_t { kPut = 0, kDelete = 1 };

  Op op = Op::kPut;
  std::string key;
  Hash256 value_hash;     // hash of the written value
  uint64_t txn_id = 0;    // transaction that produced this entry
  uint64_t commit_ts = 0; // commit timestamp

  // The Merkle leaf content, which every entries root, block hash and
  // proof hashes: op ‖ lp(key) ‖ value_hash ‖ varint(txn_id) ‖
  // varint(commit_ts). The stored form below never changes it.
  std::string Canonical() const;

  // Hash256::OfLeaf(Canonical()), streamed from the fields.
  Hash256 LeafHash() const;

  // The stored form inside a block, written against `prev`, the entry
  // before it in the block (a default LedgerEntry for the first):
  // op ‖ varint(shared) ‖ lp(key suffix) ‖ value_hash ‖
  // zigzag varint(commit_ts − prev.commit_ts) ‖
  // zigzag varint(txn_id − commit_ts), where `shared` is the length of
  // the longest common prefix of prev.key and key, and the differences
  // wrap modulo 2^64.
  void EncodeTo(const LedgerEntry& prev, std::string* dst) const;
  // The bytes EncodeTo(prev, ...) appends.
  size_t EncodedSize(const LedgerEntry& prev) const;
  // Accepts exactly the bytes EncodeTo writes: Corruption on an unknown
  // op, a shared length past prev.key or short of the longest common
  // prefix, a non-canonical varint or a truncation.
  static Status DecodeFrom(Slice* input, const LedgerEntry& prev,
                           LedgerEntry* entry);

  bool operator==(const LedgerEntry& other) const {
    return op == other.op && key == other.key &&
           value_hash == other.value_hash && txn_id == other.txn_id &&
           commit_ts == other.commit_ts;
  }
};

// A hash-chained block of ledger entries. The block hash covers the
// header (height, previous hash, entry Merkle root, index root,
// metadata) so that any change to any entry, to the chain order, or to
// the index root recorded at this height is detectable.
class Block {
 public:
  Block() = default;
  Block(uint64_t height, uint64_t first_seq, const Hash256& prev_hash,
        std::vector<LedgerEntry> entries, const Hash256& index_root,
        uint64_t timestamp);

  uint64_t height() const { return height_; }
  const Hash256& prev_hash() const { return prev_hash_; }
  const std::vector<LedgerEntry>& entries() const { return entries_; }
  const Hash256& entries_root() const { return entries_root_; }
  const Hash256& index_root() const { return index_root_; }
  uint64_t timestamp() const { return timestamp_; }
  const Hash256& block_hash() const { return block_hash_; }
  uint64_t first_seq() const { return first_seq_; }

  // varint(height) ‖ varint(first_seq) ‖ prev_hash ‖ index_root ‖
  // varint(timestamp) ‖ varint(entry count) ‖ each entry's stored form
  // (LedgerEntry::EncodeTo against the entry before it).
  std::string Encode() const;
  // Encode()'s bytes up to the first entry, and their count.
  static void EncodeHeader(uint64_t height, uint64_t first_seq,
                           const Hash256& prev_hash,
                           const Hash256& index_root, uint64_t timestamp,
                           uint64_t entry_count, std::string* dst);
  static size_t HeaderSize(uint64_t height, uint64_t first_seq,
                           uint64_t timestamp, uint64_t entry_count);
  // Writes `prev_hash` and `index_root` into `encoded`, Encode()'s bytes
  // of the block at `height` and `first_seq` with those two fields left
  // zero (a bulk load encodes its blocks before it chains them, and
  // before the index root they record exists).
  static void SetChainFields(uint64_t height, uint64_t first_seq,
                             const Hash256& prev_hash,
                             const Hash256& index_root, std::string* encoded);
  // Decodes a block and derives its entries root and block hash from
  // the decoded bytes (neither is stored in the encoding). Accepts
  // exactly the bytes Encode writes: trailing bytes are Corruption.
  static Status Decode(Slice input, Block* block);

  // Computes the Merkle root over a block's entries.
  static Hash256 ComputeEntriesRoot(std::span<const LedgerEntry> entries);

  // The block hash over the header fields: the one encoding a block and
  // a client recomputing it from a journal entry proof both hash.
  static Hash256 HeaderHash(uint64_t height, uint64_t first_seq,
                            const Hash256& prev_hash,
                            const Hash256& entries_root,
                            const Hash256& index_root, uint64_t timestamp);

 private:
  uint64_t height_ = 0;
  uint64_t first_seq_ = 0;  // global sequence number of entries_[0]
  Hash256 prev_hash_;
  std::vector<LedgerEntry> entries_;
  Hash256 entries_root_;
  Hash256 index_root_;
  uint64_t timestamp_ = 0;
  Hash256 block_hash_;
};

// --- A journal of blocks (ledger/journal.h): its digest and proofs ---------

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

// Client-side verification of an entry proof (Journal::ProveEntryIn)
// against a digest.
Status VerifyJournalEntry(const LedgerEntry& entry,
                          const JournalEntryProof& proof,
                          const JournalDigest& digest);

// Append-only consistency between two digests observed over time
// (Journal::ConsistencyProof).
bool VerifyJournalConsistency(const MerkleConsistencyProof& proof,
                              const JournalDigest& old_digest,
                              const JournalDigest& new_digest);

}  // namespace spitz

#endif  // SPITZ_PROOF_BLOCK_H_
