#ifndef SPITZ_BASELINE_BASELINE_DB_H_
#define SPITZ_BASELINE_BASELINE_DB_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "chunk/buffer_cache.h"
#include "chunk/chunk_store.h"
#include "common/metrics.h"
#include "common/status.h"
#include "index/versioned_index.h"
#include "ledger/ledger.h"
#include "txn/timestamp_oracle.h"
#include "txn/write_batch.h"

namespace spitz {

// ---------------------------------------------------------------------------
// BaselineDb — the baseline system of paper section 6.1, emulating a
// commercial ledger-database service (in the style of Amazon QLDB):
//
//  * "newly inserted or modified records are collected into blocks and
//    appended to a ledger implemented by a Merkle tree";
//  * "the ledger is used for verification purposes, shadowing the nodes
//    of a typical B+-tree for query key searching";
//  * "the appended blocks are materialized to indexed views for fast
//    query processing".
//
// It is Spitz's Ledger plus three VersionedIndex views over one chunk
// store and one node cache, the stack SpitzDb's index and the KVS read
// through. The decisive structural difference from Spitz is that the
// data views and the ledger are SEPARATE (a block records no index root):
//
//  * writes must maintain *multiple* indexed views plus the journal
//    (the write penalty of Figure 6(b));
//  * plain reads are a single view lookup — comparable to Spitz;
//  * verified reads must additionally search the ledger for the
//    record's entry and rebuild that block's Merkle structure, paying a
//    per-record cost (the ~two-order drop of Baseline-verify in
//    Figures 6(a) and 7). The view traversal contributes nothing to the
//    proof, because the views are not authenticated against the ledger.
// ---------------------------------------------------------------------------
class BaselineDb {
 public:
  struct Options {
    Options() {}
    // Journal entries per sealed block. Commercial ledger services
    // batch aggressively (larger blocks amortize sealing); the proof
    // cost of rebuilding a block's Merkle structure scales with this.
    size_t block_size = 128;
    PosTreeOptions view_options;

    // Rejects block_size == 0 (degenerate sealing) and invalid view
    // tree parameters.
    Status Validate() const {
      if (block_size == 0) {
        return Status::InvalidArgument("block_size must be at least 1");
      }
      return view_options.Validate();
    }
  };

  // Validating factory: fails (leaving *db untouched) when the options
  // are rejected. The plain constructor remains for tests and callers
  // with known-good options; a constructed instance with bad options
  // returns the validation error from every write entry point.
  static Status Open(Options options, std::unique_ptr<BaselineDb>* db);

  explicit BaselineDb(Options options = Options());

  BaselineDb(const BaselineDb&) = delete;
  BaselineDb& operator=(const BaselineDb&) = delete;

  struct VerifiedValue {
    std::string value;
    LedgerEntry entry;
    JournalEntryProof proof;
  };

  // --- Write path ------------------------------------------------------------

  Status Put(const Slice& key, const Slice& value);
  Status Delete(const Slice& key);

  // Bulk ingestion for initial provisioning: builds the materialized
  // views in one pass each and seals the corresponding journal blocks.
  // Fails if the database is not empty.
  Status BulkLoad(std::vector<PosEntry> entries);

  // --- Read path --------------------------------------------------------------

  // Fast read from the materialized value view.
  Status Get(const Slice& key, std::string* value) const;

  // Read plus proof retrieval: locates the record's latest journal entry
  // and rebuilds the within-block proof (the per-record ledger search of
  // section 6.2.2). Busy while the record's latest write is unsealed.
  Status GetVerified(const Slice& key, VerifiedValue* out) const;

  Status Scan(const Slice& start, const Slice& end, size_t limit,
              std::vector<PosEntry>* out) const;

  // Range query with verification: the indexed view provides the rows in
  // one scan, but each row's proof must be fetched from the ledger
  // individually — there is no batched proof path in this design.
  // Busy while any row's latest write is unsealed.
  Status ScanVerified(const Slice& start, const Slice& end, size_t limit,
                      std::vector<VerifiedValue>* out) const;

  // --- Verification -------------------------------------------------------------

  JournalDigest Digest() const;

  // Client-side check of a verified read against a digest.
  static Status VerifyValue(const JournalDigest& digest, const Slice& key,
                            const VerifiedValue& vv);

  Status ProveConsistency(uint64_t old_block_count,
                          MerkleConsistencyProof* proof) const;

  // Seals buffered entries into a block.
  void FlushBlock();

  // History of a key: all journal positions that wrote it.
  Status History(const Slice& key,
                 std::vector<std::pair<uint64_t, uint64_t>>* positions) const;

  uint64_t entry_count() const;

  // The baseline's observability surface: write/read/verified-read
  // latency histograms (baseline.db.*) plus the shared chunk-storage
  // counters (chunk.*). Safe from any thread.
  MetricsSnapshot Metrics() const { return registry_.Snapshot(); }

 private:
  // Applies `batch`, one op, to the value view and buffers its ledger
  // entry, sealing a full block; NotFound deletes an absent key.
  Status Write(const WriteBatch& batch);
  // Seals the pending entries and locates them in the meta and history
  // views, one entry at a time.
  Status SealBlockLocked();
  // Erases the nodes the views' retired versions replaced; outside mu_.
  void EraseExpired();
  VersionedIndex MakeView();
  // The value and meta views' roots, taken together.
  std::pair<Hash256, Hash256> Roots() const;
  // Proves the latest sealed write of `key`, which the meta view at
  // `metas` locates, into *vv: Busy unless that write put vv->value.
  Status ProveLatest(const Hash256& metas, const Slice& key,
                     VerifiedValue* vv) const;

  Options options_;
  // InvalidArgument when the options failed Validate(); returned by
  // every write entry point.
  Status init_status_;
  MetricsRegistry registry_;
  Histogram* write_ns_ = nullptr;          // baseline.db.write_latency_ns
  Histogram* read_ns_ = nullptr;           // baseline.db.read_latency_ns
  Histogram* verified_read_ns_ = nullptr;  // ...verified_read_latency_ns
  Histogram* scan_ns_ = nullptr;           // baseline.db.scan_latency_ns
  TimestampOracle clock_;

  // Serializes writers; guards the ledger and the views' writer side.
  mutable std::mutex mu_;
  ChunkStore chunks_;
  BufferCache cache_;
  // Materialized indexed views ("materialized to indexed views"): the
  // value view answers point/range queries; the meta view maps a key to
  // the journal location of its latest sealed write; the history view
  // keys every sealed write by (key, seq) for provenance queries.
  VersionedIndex values_;
  VersionedIndex metas_;
  VersionedIndex history_;
  Ledger ledger_;
};

}  // namespace spitz

#endif  // SPITZ_BASELINE_BASELINE_DB_H_
