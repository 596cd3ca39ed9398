#ifndef SPITZ_CORE_SPITZ_DB_H_
#define SPITZ_CORE_SPITZ_DB_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "chunk/buffer_cache.h"
#include "chunk/chunk_store.h"
#include "common/env.h"
#include "common/metrics.h"
#include "common/status.h"
#include "core/auditor.h"
#include "core/group_commit.h"
#include "core/spitz_options.h"
#include "core/verified_kv.h"
#include "core/verifier.h"
#include "core/version_gc.h"
#include "crypto/hash.h"
#include "index/versioned_index.h"
#include "ledger/journal.h"
#include "ledger/ledger.h"
#include "txn/participant.h"
#include "txn/timestamp_oracle.h"
#include "txn/write_batch.h"

namespace spitz {


// ReadOptions/WriteOptions live in core/verified_kv.h — they are part
// of the VerifiedKv interface shared by every deployment shape; ReadProof
// and ScanProof in index/siri.h; ReadVersion in index/versioned_index.h;
// SpitzDigest and every client-side check in core/verifier.h.

// ---------------------------------------------------------------------------
// SpitzDb — the clean-slate verifiable database of paper section 5/6.1.
//
// The essential design decision (and the source of its advantage in
// Figures 6-8) is the *unified index*: the ledger is implemented as a
// SIRI index (POS-tree). Each sealed block records the index root at
// that point, "naturally composing a version of the ledger, and the
// nodes between instances can be shared". A query's traversal of the
// index IS its integrity proof — no separate ledger lookup is needed,
// unlike the baseline which must search its ledger per record.
//
// Two components do the work: the index's versions (VersionedIndex,
// index/versioned_index.h) and the ledger (Ledger, ledger/ledger.h).
// SpitzDb joins them: the commit path applies each batch to both under
// one writer lock, and publishes the (index root, journal digest) pair
// readers see.
// ---------------------------------------------------------------------------
class SpitzDb : public VerifiedKv {
 public:
  // In-memory database (options.data_dir must be empty).
  explicit SpitzDb(SpitzOptions options = SpitzOptions());
  ~SpitzDb();

  // Opens (and recovers) a durable database at options.data_dir.
  static Status Open(SpitzOptions options, std::unique_ptr<SpitzDb>* db);

  SpitzDb(const SpitzDb&) = delete;
  SpitzDb& operator=(const SpitzDb&) = delete;

  // --- OLTP write path ----------------------------------------------------
  //
  // All writes flow through the group-commit pipeline (GroupCommit,
  // core/group_commit.h), one barrier per group of sync writes.

  using VerifiedKv::Delete;
  using VerifiedKv::Put;
  Status Put(const WriteOptions& options, const Slice& key,
             const Slice& value) override;
  Status Delete(const WriteOptions& options, const Slice& key) override;
  // Atomic multi-key write (one commit timestamp, one set of ledger
  // entries). A batch with a read set fails Aborted, applying nothing,
  // when a read is stale at its turn in the commit order.
  Status Write(const WriteBatch& batch) { return Write(WriteOptions(), batch); }
  Status Write(const WriteOptions& options, const WriteBatch& batch) {
    return WriteInternal(options, batch, /*bypass_txn=*/0);
  }

  // Bulk ingestion into an empty database: builds the index in one pass
  // and seals the ledger blocks that one Put per entry would.
  Status BulkLoad(std::vector<PosEntry> entries);

  // Seals any buffered entries into a final block. Returns an IOError
  // if the sealed block could not be persisted (durable mode).
  Status FlushBlock();

  // Runs the durability barrier (GroupCommit::Sync) over every sealed
  // block: the durability point for writes without WriteOptions::sync,
  // which a crash may lose until it returns OK. OK at once in memory.
  Status SyncStorage();

  // The ledger (ledger/ledger.h): sealed blocks, key history and every
  // ledger proof (ProveConsistency, ProveHistoricalEntry, KeyHistory,
  // IndexRootAt, SealedBlock, entry_count).
  const Ledger* ledger() const { return &ledger_; }
  using HistoricalWrite = Ledger::HistoricalWrite;

  // The 2PC participant (DESIGN.md section 13); Open() recovers its
  // txn.log, and its commits apply through the pipeline, durably.
  TxnParticipant* participant() { return participant_.get(); }

  // The deferred auditor (paper section 5.3); it reads like a client.
  Auditor* auditor() { return auditor_.get(); }

  // The version GC (DESIGN.md section 12): keeps the live root and the
  // last retain_versions sealed blocks' roots.
  VersionGc* gc() { return gc_.get(); }

  // --- Read path ------------------------------------------------------------
  //
  // One point read and one range read (VersionedIndex::Read/ReadRange)
  // of the version `at`. Pinned roots stay readable for the
  // retain_versions GC window, so a cluster client can read every shard
  // at the roots of one cluster digest.

  Status Read(const ReadVersion& at, const Slice& key, std::string* value,
              ReadProof* proof) const {
    if (at.has_value()) return index_->Read(*at, key, value, proof);
    const PinnedDigest current = PinCurrent();
    return index_->Read(current.digest->index_root, key, value, proof);
  }
  // Range read of [start, end), at most `limit` rows (0 = no limit).
  // (spitz:: qualification: inside this class the inherited ScanProof
  // *method* hides the namespace-scope ScanProof *struct*.)
  Status ReadRange(const ReadVersion& at, const Slice& start,
                   const Slice& end, size_t limit, std::vector<PosEntry>* rows,
                   spitz::ScanProof* proof) const {
    if (at.has_value()) {
      return index_->ReadRange(*at, start, end, limit, rows, proof);
    }
    const PinnedDigest current = PinCurrent();
    return index_->ReadRange(current.digest->index_root, start, end, limit,
                             rows, proof);
  }

  // VerifiedKv reads: with options.verify the read is served with a
  // proof and checked against the current digest before returning.
  using VerifiedKv::Get;
  using VerifiedKv::Scan;
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value) override;
  Status Scan(const ReadOptions& options, const Slice& start,
              const Slice& end, size_t limit,
              std::vector<PosEntry>* rows) override;

  // Read(kCurrentVersion, ...) with a proof; spitzbench's in-process
  // proof probe calls it by this name.
  Status GetWithProof(const Slice& key, std::string* value,
                      ReadProof* proof) const {
    return Read(kCurrentVersion, key, value, proof);
  }

  // --- Verifiability surface -----------------------------------------------

  SpitzDigest Digest() const { return *CurrentSnapshot(); }
  // VerifiedKv evidence surface: serialized proof + digest bytes.
  Status GetProof(const Slice& key, Evidence* out) override;
  Status ScanProof(const Slice& start, const Slice& end, size_t limit,
                   ScanEvidence* out) override;
  Status Digest(std::string* out) override;
  // Audits `key`'s current binding (empty key: the last sealed block)
  // through auditor() and drains its queue: the verdict is the status.
  Status Audit(const Slice& key) override;

  // spitzbench calls the checks of core/verifier.h by these names.
  static Status VerifyRead(const SpitzDigest& digest, const Slice& key,
                           const std::optional<std::string>& expected_value,
                           const ReadProof& proof) {
    return spitz::VerifyRead(digest, key, expected_value, proof);
  }
  static Status VerifyScan(const SpitzDigest& digest, const Slice& start,
                           const Slice& end, size_t limit,
                           const std::vector<PosEntry>& results,
                           const spitz::ScanProof& proof) {
    return spitz::VerifyScan(digest, start, end, limit, results, proof);
  }

  // --- Introspection ----------------------------------------------------------

  SiriBackend index_backend() const { return options_.index_backend; }
  // Whether the configured backend serves ordered (and verified) scans.
  bool SupportsScan() const { return index_->siri()->SupportsScan(); }
  uint64_t key_count() const {
    const PinnedDigest current = PinCurrent();
    return index_->Count(current.digest->index_root);
  }

  // One snapshot of every instrument this instance owns: core.db.*,
  // index.siri.*, chunk.*, index.cache.*, txn.verifier.* and the rest.
  // Safe from any thread.
  MetricsSnapshot Metrics() const { return registry_.Snapshot(); }

  // --- Primary-backup replication seam (src/replica; DESIGN.md §15) ------

  // Called after every seal, outside the writer lock, with the new
  // sealed-block count; it wakes the replicator. Must be cheap. Pass
  // nullptr to detach before the listener's owner is destroyed.
  using SealListener = std::function<void(uint64_t sealed_blocks)>;
  void SetSealListener(SealListener listener);

  // A backup's apply of the next sealed block, atomically: re-executes
  // `ops` (its deletes and surviving puts) on this database's OWN index
  // and fails VerificationFailed unless the derived root equals the
  // sealed one — agreement is recomputed, never trusted — then adopts
  // the block as recovery does and journals `serialized`, fsync'd when
  // `sync`. InvalidArgument out of height order, Busy while local writes
  // are buffered. *applied (when non-null) receives the digest to ack.
  Status ApplySealedBlock(const Block& block, const Slice& serialized,
                          const WriteBatch& ops, bool sync,
                          SpitzDigest* applied);

 private:
  // The one construction path of the in-memory constructor and Open():
  // every component is built from `options`, on data_dir when durable.
  SpitzDb(SpitzOptions options, bool durable);

  // The read-path state every commit publishes is the digest itself:
  // readers copy one shared_ptr under snapshot_mu_, then traverse chunks
  // that never change, so reads never serialize against commits. (A
  // std::atomic<shared_ptr> trips ThreadSanitizer in libstdc++.)
  std::shared_ptr<const SpitzDigest> CurrentSnapshot() const {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    return snapshot_;
  }
  // The current digest, read under a pin of the chunk store's epoch that
  // the caller holds while it reads at the digest's root. The pin comes
  // first: a GC pass whose wait began before the pin armed before the
  // digest was picked, so it keeps the root; a later pass waits for the
  // pin before it collects.
  struct PinnedDigest {
    EpochManager::Guard pin;
    std::shared_ptr<const SpitzDigest> digest;
  };
  PinnedDigest PinCurrent() const {
    return {chunks_->PinReads(), CurrentSnapshot()};
  }
  // Publishes the (index root, journal digest) pair; callers hold mu_
  // or run alone. The journal digest is O(sealed blocks), so it carries
  // over from the previous snapshot unless `journal_changed`.
  void PublishSnapshotLocked(bool journal_changed);

  // Write() with a prepared-key-lock bypass (0: none).
  Status WriteInternal(const WriteOptions& options, const WriteBatch& batch,
                       uint64_t bypass_txn);

  // The group-commit leader's apply step (GroupCommit::ApplyFn), under
  // mu_: per member, the prepared-key check, the read-set check and the
  // apply, sealing at the serial path's boundaries; the tail seal when
  // `sync`; then the snapshot. Returns whether it sealed.
  bool ApplyGroupLocked(const std::vector<GroupCommit::Request*>& group,
                        bool sync);

  // Checks the batch's read set at the index's current root: Aborted
  // when a read is stale, counted in core.db.commit.read_set_aborts.
  Status ValidateReadsLocked(const WriteBatch& batch);

  // Applies one batch to the index and the ledger's pending entries
  // under mu_, atomically (no seal, no I/O).
  Status ApplyBatchLocked(const WriteBatch& batch);

  // Seals every pending entry into one block recording the index's
  // current root, and retires the nodes the block's writes replaced.
  void SealLocked();

  // A block the ledger took at recovery or from a primary: makes its
  // root current and resumes commit timestamps past its entries. Callers
  // hold mu_ or run alone (recovery).
  void AdoptBlock(const Block& block);

  // Open()'s recovery: the journal, then the participant's txn.log.
  Status Recover();

  // Post-seal work outside mu_: erases the expired index nodes from the
  // cache, aligns the chunk segment boundary with the block, wakes the
  // seal listener and hands the new height to the version GC.
  void NotifySealed(uint64_t block_count);

  SpitzOptions options_;
  // InvalidArgument when the options failed Validate(); returned by
  // every write entry point so misconfiguration cannot pass silently.
  Status init_status_;
  // Before the components and auditor_, so instruments outlive both.
  MetricsRegistry registry_;
  // core.db.write_latency_ns; null when options_.enable_metrics is false.
  Histogram* write_ns_ = nullptr;
  // Batches failed Aborted by a stale read set, on the 1PC commit path
  // and at 2PC prepare alike (core.db.commit.read_set_aborts).
  Counter read_set_aborts_;
  // The unified cache, before the components that read through it.
  std::unique_ptr<BufferCache> buffer_cache_;
  std::unique_ptr<ChunkStore> chunks_;
  std::unique_ptr<VersionedIndex> index_;
  // Durable mode: the resolved I/O environment.
  Env* env_ = nullptr;

  // The writer lock over the index's writer side, the ledger, the clock
  // and last_commit_ts_ (DESIGN.md section 6).
  mutable std::mutex mu_;
  Ledger ledger_;
  TimestampOracle clock_;
  uint64_t last_commit_ts_ = 0;

  // Read-path state; see CurrentSnapshot. Never null after construction.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const SpitzDigest> snapshot_;

  // The write pipeline over the ledger's journal and chunks_. Lock order:
  // its queue lock alone; its barrier lock, then mu_, never the reverse.
  std::unique_ptr<GroupCommit> commit_;

  // Taken under mu_ (ApplyGroupLocked checks prepared-key locks); its
  // validate callback takes mu_ to check a prepare's read set.
  std::unique_ptr<TxnParticipant> participant_;

  // Replication seal listener (see SetSealListener). Leaf lock, taken
  // only outside mu_.
  mutable std::mutex seal_listener_mu_;
  SealListener seal_listener_;

  // After everything a pass reads, so its thread is joined first. Lock
  // order: its pass lock, then mu_ (its arm step reads the roots).
  std::unique_ptr<VersionGc> gc_;

  // Last, and reset first by the destructor: its queue drains while
  // everything an audit reads through is still alive.
  std::unique_ptr<Auditor> auditor_;
};

}  // namespace spitz

#endif  // SPITZ_CORE_SPITZ_DB_H_
