#ifndef SPITZ_LEDGER_JOURNAL_H_
#define SPITZ_LEDGER_JOURNAL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/status.h"
#include "crypto/hash.h"
#include "proof/block.h"

namespace spitz {

// An append-only journal of hash-chained blocks with a Merkle tree over
// the block hashes, in the style of ledger databases such as Amazon QLDB
// (paper section 2.3). Producing an entry-level proof requires reading
// and decoding the containing block and recomputing its internal Merkle
// tree, which is exactly the per-record ledger-search cost the paper
// attributes to the baseline (section 6.2.2).
//
// Where a block lives. A journal opened on journal.log (Open) is the one
// owner of that file. It replays the file's frames at recovery, cuts a
// torn tail, and from then on frames (AppendRecordFrame) every block it
// seals (Append) or restores (Restore) onto the end of the log: one
// WritableLog::Append per block, in height order, the first of which
// also carries the header frame when the file had none. The log runs in
// manual-flush mode, so bytes reach the kernel only at Flush, which the
// owner serializes against its durability barrier. The journal keeps
// the frame boundaries (8 B per block) beside each block's hash, index
// root and Merkle leaf. A block's serialized bytes stay resident until a
// Flush has handed its frame to the file; every later read of the block
// is one positional read of its frame, checked against its CRC and the
// resident block hash. A journal without a file (an in-memory database)
// keeps every block.
//
// A failed log append or flush is sticky (status()): nothing more is
// logged, every block sealed since stays resident, and every later
// Flush returns the failure, so the owner's barrier can never report a
// block durable that is not in the file.
class Journal {
 public:
  Journal() = default;

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  // What the owner derives from each block Open replays, once the
  // journal has chained it (key history, current root, clock).
  using AdoptFn = std::function<void(const Block& block)>;

  // Makes journal.log at `path` the home of this empty journal. The
  // file opens with a header frame naming its format version; every
  // complete frame after it is chained as Restore chains a block and
  // handed to `adopt`; a torn tail is truncated and *truncated_bytes
  // receives the bytes cut. The file is then opened for appends, in
  // manual-flush mode, and for positional reads. A missing file, or one
  // whose header is torn, reads as an empty one. A file whose first
  // frame is not this build's header fails Open with NotSupported; a
  // frame whose CRC fails, or a block that does not chain, with
  // Corruption.
  Status Open(Env* env, const std::string& path, const AdoptFn& adopt,
              uint64_t* truncated_bytes);

  // The frame journal.log opens with: magic ‖ varint(format version).
  static std::string HeaderFrame();

  // Appends a block containing the given entries; returns its height.
  // index_root records the state of the system's indexes as of this
  // block (zero when unused). The block stays resident until a Flush
  // covers it; *serialized (when non-null) points at its bytes until
  // then. With a file, the block's frame is logged too; a failure is
  // sticky in status(), and the block stands either way.
  uint64_t Append(std::vector<LedgerEntry> entries, const Hash256& index_root,
                  uint64_t timestamp, Slice* serialized = nullptr);
  // The same for a block encoded ahead (Ledger::PrepareLoad): `encoded`
  // is Block::Encode()'s bytes of the next block, at this height and
  // sequence, holding `entries` entries whose root is `entries_root`,
  // stamped `timestamp`, with its chain fields left zero. Writes the tip
  // hash and `index_root` into them.
  uint64_t AppendEncoded(std::string encoded, uint64_t entries,
                         const Hash256& entries_root,
                         const Hash256& index_root, uint64_t timestamp);

  // Restores a block received from a primary. `block` is `serialized`
  // decoded by the caller (Block::Decode derived its hashes); Restore
  // checks that it chains from the current tip at the expected height
  // and sequence. With a file, the block is recorded only once its frame
  // is in the log: a failed append (or an earlier one) returns the
  // sticky status() and leaves the journal unchanged.
  Status Restore(const Block& block, const Slice& serialized);

  // Whether Open gave this journal a file.
  bool has_log() const { return log_ != nullptr; }
  // OK, or the first failed log append or flush.
  const Status& status() const { return status_; }
  // Bytes logged but not yet handed to the kernel.
  uint64_t buffered_bytes() const {
    return log_ != nullptr ? log_->BufferedBytes() : 0;
  }

  // Hands every logged frame to the kernel (not a durability point) and
  // drops the resident bytes of every block, all of which are then
  // readable from the file. Returns status() once it failed; OK without
  // a file.
  Status Flush();

  // Fsyncs the frames earlier Flushes handed to the kernel. The one call
  // that is safe without the owner's lock: it may run while another
  // thread appends or flushes. OK without a file.
  Status SyncFlushed();

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

  uint64_t block_count() const { return block_hashes_.size(); }
  uint64_t entry_count() const { return entry_count_; }

  JournalDigest Digest() const;

  // The index root recorded in the block at `height`, without decoding
  // the block.
  const Hash256& IndexRoot(uint64_t height) const {
    return index_roots_[height];
  }

  // Builds the full proof for entry `entry_index` of the block `ref`
  // names, with no lock: the honest work a ledger service must do when
  // proofs are retrieved individually — read and decode the stored block
  // (Load) and recompute its internal Merkle tree. `block_path` is the
  // block's path, taken with `ref` by Locate.
  static Status ProveEntryIn(const BlockRef& ref,
                             const MerkleInclusionProof& block_path,
                             uint64_t entry_index, JournalEntryProof* proof,
                             LedgerEntry* entry);

  // Append-only consistency between two digests observed over time.
  Status ConsistencyProof(uint64_t old_block_count,
                          MerkleConsistencyProof* proof) const;

  // The last frame boundary: the size journal.log has once every
  // block's frame is written, its header frame included (a journal
  // without a file counts the block frames alone).
  uint64_t stored_bytes() const { return frame_ends_.back(); }
  // Serialized bytes still held in memory (the unreleased tail).
  uint64_t resident_bytes() const { return resident_bytes_; }

 private:
  // Restore's checks: `block` must chain from the current tip.
  Status CheckChains(const Block& block) const;
  // Logs and records `encoded`, the next block, and keeps it resident.
  uint64_t Seal(const Hash256& block_hash, const Hash256& index_root,
                uint64_t entries, std::string encoded, Slice* serialized);
  // Records the hashes and frame extent of the next block.
  void AddBlock(const Hash256& block_hash, const Hash256& index_root,
                uint64_t entries, size_t serialized_bytes);
  // Frames `serialized`, the block at `height`, onto the log; a failure
  // becomes status().
  Status LogFrame(uint64_t height, const Slice& serialized);

  std::vector<Hash256> block_hashes_;
  std::vector<Hash256> index_roots_;  // each block's index_root()
  // Frame boundaries in journal.log: block h spans
  // [frame_ends_[h], frame_ends_[h + 1]); frame_ends_[0] is past the
  // header frame once Open gave the journal a file.
  std::vector<uint64_t> frame_ends_{0};
  // Open found no header: the first logged frame carries it.
  bool header_pending_ = false;
  // The serialized bytes of the last resident_.size() blocks.
  std::deque<std::string> resident_;
  uint64_t resident_bytes_ = 0;
  // journal.log once opened: appended through log_, read through file_.
  std::unique_ptr<WritableLog> log_;
  std::unique_ptr<RandomAccessFile> file_;
  std::string path_;
  Status status_;
  std::string frame_;  // LogFrame's scratch, reused across blocks
  MerkleTree block_tree_;  // Merkle tree over block hashes
  Hash256 tip_hash_;
  uint64_t entry_count_ = 0;
};

}  // namespace spitz

#endif  // SPITZ_LEDGER_JOURNAL_H_
