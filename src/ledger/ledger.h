#ifndef SPITZ_LEDGER_LEDGER_H_
#define SPITZ_LEDGER_LEDGER_H_

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/metrics.h"
#include "common/pos_entry.h"
#include "common/status.h"
#include "crypto/hash.h"
#include "proof/block.h"
#include "ledger/journal.h"
#include "ledger/key_history_index.h"
#include "proof/merkle_tree.h"
#include "txn/write_batch.h"

namespace spitz {

// The ledger of a SpitzDb, and of the baseline (paper section 6.1:
// "records are collected into blocks and appended to a ledger"): the
// journal of sealed blocks, the key history over them, the entries
// waiting for the next seal, and every ledger proof.
//
// Its lock is its owner's writer lock, handed in at construction (the
// owner's GroupCommit flushes the journal under it too). Methods ending
// in Locked, journal() and pending() expect it held, or run alone
// at recovery; the readers take it, for a block's location only.
class Ledger {
 public:
  // `mu` must outlive the ledger. A non-null `registry` receives
  // core.db.seal_latency_ns, core.db.journal.{truncated,resident,file}
  // _bytes and core.db.history.{bytes,writes}.
  Ledger(std::mutex* mu, MetricsRegistry* registry);

  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  // --- Writer side --------------------------------------------------------

  // Makes journal.log at `path` the journal's home (Journal::Open),
  // indexing each replayed block's key history before `adopt` takes it.
  Status Open(Env* env, const std::string& path,
              const Journal::AdoptFn& adopt);

  // The sealed blocks; the owner's GroupCommit flushes them.
  const Journal& journal() const { return journal_; }
  Journal* mutable_journal() { return &journal_; }

  // The entries the next seal takes, in commit order. BaselineDb reads
  // their keys to materialize its views' locations of that block.
  const std::vector<LedgerEntry>& pending() const { return pending_; }
  size_t pending_count() const { return pending_.size(); }
  // Buffers `batch`'s ops as entries committed at `commit_ts`.
  void AddLocked(const WriteBatch& batch, uint64_t commit_ts);
  // Seals every pending entry into one block recording `index_root`,
  // stamped `timestamp`; in durable mode the journal logs its frame, a
  // failure sticky in journal().status().
  void SealLocked(const Hash256& index_root, uint64_t timestamp);

  // Bulk ingestion (SpitzDb::BulkLoad): records become puts committed at
  // first_ts, first_ts + 1, ..., sealed in full blocks of block_size that
  // all record the loaded index root and share one timestamp; the short
  // tail stays pending. Only the block headers need that root, so the
  // work comes in three steps around the index build: PrepareLoad before
  // it, PreparedLoad::IndexHistory beside it, LoadLocked after it.
  struct PreparedLoad {
    // The key history of the full blocks, as sealing them one by one
    // indexes it. Allocates nothing (PrepareLoad made the room), so it
    // may run on a thread of its own.
    void IndexHistory();

    size_t block_size = 0;
    uint64_t timestamp = 0;
    // Per full block: Block::Encode()'s bytes with the chain fields zero
    // (Block::SetChainFields), and its entries root.
    std::vector<std::string> blocks;
    std::vector<Hash256> entries_roots;
    // KeyHistoryIndex::Fingerprint of every full-block entry's key.
    std::vector<uint32_t> fingerprints;
    KeyHistoryIndex history;
    std::vector<LedgerEntry> tail;
  };
  // Encodes every full block of `records` and hashes its entries root,
  // on every core, and copies the tail's entries. Reads `records` during
  // the call only; every buffer it leaves in *load is allocated on the
  // calling thread.
  static void PrepareLoad(std::span<const PosEntry> records,
                          uint64_t first_ts, size_t block_size,
                          uint64_t timestamp, PreparedLoad* load);
  // Appends the prepared blocks, each recording `index_root` (their chain
  // fields, header hashes and frames are all that is left), takes their
  // key history and leaves the tail pending. The ledger must be empty,
  // and IndexHistory done.
  void LoadLocked(PreparedLoad load, const Hash256& index_root);
  // A block a primary sealed (Journal::Restore), then its key history.
  Status RestoreLocked(const Block& block, const Slice& serialized);

  // --- Readers --------------------------------------------------------------

  // Proves the journal grew append-only since `old_digest`.
  Status ProveConsistency(const JournalDigest& old_digest,
                          MerkleConsistencyProof* proof) const;

  // Proves entry `entry_index` of block `height`. *digest (when
  // non-null) receives the journal digest the proof verifies against.
  Status ProveHistoricalEntry(uint64_t height, uint64_t entry_index,
                              JournalEntryProof* proof, LedgerEntry* entry,
                              JournalDigest* digest = nullptr) const;

  // The verified provenance of one key (paper section 1: users can
  // "verify the integrity of both current and historical data"): every
  // sealed write to it, in commit order, with its inclusion proof.
  struct HistoricalWrite {
    LedgerEntry entry;
    JournalEntryProof proof;
    uint64_t block_height = 0;
  };
  Status KeyHistory(const Slice& key,
                    std::vector<HistoricalWrite>* history) const;

  // The index root as of a sealed block (time travel onto old versions:
  // reads at old roots keep working because chunks are immutable).
  Status IndexRootAt(uint64_t block_height, Hash256* root) const;

  // The bytes of the sealed block at `height` and their decoding.
  // NotFound past the sealed tip, IOError when the read fails, Corruption
  // when the bytes fail their frame CRC or block hash.
  Status SealedBlock(uint64_t height, std::string* serialized,
                     Block* block) const;

  // Sealed and pending entries.
  uint64_t entry_count() const;

 private:
  std::mutex* const mu_;
  Histogram* seal_ns_ = nullptr;
  // Crash-garbage bytes cut from the journal tail during recovery.
  Counter truncated_bytes_;
  // The sealed blocks; in durable mode also the owner of journal.log.
  Journal journal_;
  std::vector<LedgerEntry> pending_;  // entries awaiting block seal
  // Where every sealed write sits; fed beside each journal append.
  KeyHistoryIndex history_;
};

}  // namespace spitz

#endif  // SPITZ_LEDGER_LEDGER_H_
