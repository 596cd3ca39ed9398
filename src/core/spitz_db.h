#ifndef SPITZ_CORE_SPITZ_DB_H_
#define SPITZ_CORE_SPITZ_DB_H_

#include <cstdint>
#include <deque>
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
#include "core/verified_kv.h"
#include "core/version_gc.h"
#include "crypto/hash.h"
#include "index/siri.h"
#include "ledger/journal.h"
#include "ledger/key_history_index.h"
#include "txn/participant.h"
#include "txn/timestamp_oracle.h"
#include "txn/write_batch.h"

namespace spitz {

// The state a client needs to retain to verify any later answer: the
// current index root (a SIRI index version) and the ledger digest
// covering the block history. Every proof verifies against one of
// these. Serializable — the digest crosses the wire to clients and is
// the leaf a cluster root digest commits to.
struct SpitzDigest {
  Hash256 index_root;
  JournalDigest journal;
  uint64_t last_commit_ts = 0;

  void EncodeTo(std::string* out) const;
  size_t EncodedSize() const;
  static Status DecodeFrom(Slice* input, SpitzDigest* out);

  bool operator==(const SpitzDigest& other) const {
    return index_root == other.index_root &&
           journal.block_count == other.journal.block_count &&
           journal.entry_count == other.journal.entry_count &&
           journal.tip_hash == other.journal.tip_hash &&
           journal.merkle_root == other.journal.merkle_root &&
           last_commit_ts == other.last_commit_ts;
  }
  bool operator!=(const SpitzDigest& other) const { return !(*this == other); }
};

// A verified read's complete evidence: a backend-tagged SIRI proof
// envelope plus the index version it proves against. Serializable, so
// it can cross a process boundary and be verified from decoded bytes.
// A proof holds what it cites (ProofNode): the cached nodes on a
// server, the reply's frame buffer on a client.
struct ReadProof {
  SiriProof index_proof;  // path through the unified SIRI index
  Hash256 index_root;     // the version it proves against

  void EncodeTo(std::string* out) const;
  size_t EncodedSize() const { return Hash256::kSize + index_proof.EncodedSize(); }
  // Decodes views of *input, which `owner` keeps alive.
  static Status DecodeFrom(Slice* input, std::shared_ptr<const void> owner,
                           ReadProof* out);
  // Decodes into one copy of the proof's bytes that the proof owns.
  static Status DecodeFrom(Slice* input, ReadProof* out) {
    return DecodeOwnedCopy(input, out);
  }
};

struct ScanProof {
  SiriRangeProof index_proof;
  Hash256 index_root;

  void EncodeTo(std::string* out) const;
  size_t EncodedSize() const { return Hash256::kSize + index_proof.EncodedSize(); }
  static Status DecodeFrom(Slice* input, std::shared_ptr<const void> owner,
                           ScanProof* out);
  static Status DecodeFrom(Slice* input, ScanProof* out) {
    return DecodeOwnedCopy(input, out);
  }
};

// ReadOptions/WriteOptions live in core/verified_kv.h — they are part
// of the VerifiedKv interface shared by every deployment shape.

// The version a read sees: an index root, or kCurrentVersion for the
// snapshot current when the read starts. A digest the client holds pins
// a read through its index_root.
using ReadVersion = std::optional<Hash256>;
inline constexpr std::nullopt_t kCurrentVersion = std::nullopt;

struct SpitzOptions {
  SpitzOptions() {}
  // Which SIRI instance backs the unified index (paper 3.1/6.1). The
  // POS-tree is the default; MPT and MBT are plug-compatible but do not
  // support ordered scans, so ReadRange and Scan return NotSupported.
  SiriBackend index_backend = SiriBackend::kPosTree;
  // Ledger entries per sealed block (paper 6.1: "records are collected
  // into blocks and appended to a ledger").
  size_t block_size = 64;
  // Deferred-verification batch for the auditor (0 = online; paper 5.3
  // uses deferred).
  size_t audit_batch_size = 64;
  // Worker threads draining the deferred-verification queue (0 = one
  // per hardware thread). Ignored in online mode.
  size_t audit_workers = 0;
  // Byte budget for the unified buffer cache (DESIGN.md section 12):
  // one budget shared by raw chunk bytes (the paged durable store reads
  // through it) and decoded POS-tree nodes. Must be positive — with no
  // cache every traversal re-reads and re-hashes each node it visits;
  // size it small instead of disabling it.
  size_t buffer_cache_bytes = BufferCache::kDefaultCapacityBytes;
  // Target size of one chunk segment file (durable mode). The active
  // segment rolls at the first sealed-block boundary past this size,
  // and at twice it regardless. Between 1 and
  // FileChunkStore::kMaxSegmentBytes (2 GiB - 1): the chunk index keeps
  // a record's offset in 32 bits.
  size_t chunk_segment_bytes = 8 << 20;
  // How many of the most recent sealed blocks' index roots the version
  // GC (gc()->Collect) keeps readable, in addition to the live root.
  // Chunks reachable only from older versions are reclaimed. Must be
  // positive — the current version is always retained.
  size_t retain_versions = 8;
  // When positive, a background thread runs gc()->Collect() every this
  // many sealed blocks. 0 (default) leaves GC entirely manual.
  size_t gc_interval_blocks = 0;
  // When non-empty, the database is durable: chunks and sealed ledger
  // blocks are persisted under this directory and recovered by Open().
  // Durability is at block boundaries — call FlushBlock() to seal the
  // most recent writes and SyncStorage() to make them crash-safe.
  std::string data_dir;
  // File-system seam for the durable mode (DESIGN.md section 9):
  // nullptr means the default POSIX environment. Tests substitute a
  // FaultInjectionEnv to script write/sync failures and crashes. Must
  // outlive the database.
  Env* env = nullptr;
  PosTreeOptions index_options;
  // Bucket count for the kMerkleBucketTree backend (ignored otherwise).
  uint32_t mbt_bucket_count = 256;
  // Durable-put mode: every write behaves as if WriteOptions::sync were
  // set — the database acknowledges a Put only after its journal blocks
  // are fsync'd. This is how a served deployment (SpitzServer) turns
  // every client Put durable without a wire-protocol change; group
  // commit keeps fsyncs ≪ puts under concurrency. Durable databases
  // only (ignored in-memory).
  bool sync_writes = false;
  // Hot-path instrumentation (latency and proof-size histograms). On by
  // default — the recording cost is a handful of relaxed atomic adds —
  // but can be switched off to measure the overhead itself (the
  // micro_benchmarks Put benchmark compares both settings).
  bool enable_metrics = true;

  // Rejects nonsensical configurations: block_size == 0 (degenerate
  // sealing), bucket_count == 0 for the MBT backend, a zero buffer
  // cache (nothing correctness needs lives there, but every traversal
  // would re-read and re-hash each node it visits) and
  // retain_versions == 0 (the live version cannot be collected).
  // Checked by Open() and by the in-memory constructor (whose write
  // paths then fail with the validation error).
  Status Validate() const;
};

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
  Status Write(const WriteBatch& batch);
  Status Write(const WriteOptions& options, const WriteBatch& batch);

  // Bulk ingestion for initial provisioning: builds the index in one
  // pass and seals the corresponding ledger blocks. Equivalent to (but
  // much faster than) issuing one Put per entry on an empty database.
  // Fails if the database is not empty.
  Status BulkLoad(std::vector<PosEntry> entries);

  // The 2PC participant (DESIGN.md section 13). Its txn.log lives in
  // data_dir and Open() recovers it before returning; commits apply
  // through the group-commit pipeline, durably.
  TxnParticipant* participant() { return participant_.get(); }

  // The deferred auditor (paper section 5.3): its audits read and
  // verify through the public surface below, like a client.
  Auditor* auditor() { return auditor_.get(); }

  // The version GC (DESIGN.md section 12): a pass collects chunks
  // unreachable from the live root and the index roots of the last
  // retain_versions sealed blocks.
  VersionGc* gc() { return gc_.get(); }

  // --- Read path ------------------------------------------------------------
  //
  // One point read and one range read. Each reads the version `at` —
  // pinned roots stay readable for the retain_versions GC window, which
  // is what makes cluster-wide verified reads race-free: the coordinator
  // snapshots every shard's digest into one cluster digest, and clients
  // then ask each shard to prove against exactly the pinned root. A
  // non-null proof is assembled from the same index traversal and names
  // the root it proves against; a null proof skips the proof work. A
  // read without a proof is timed in core.db.read_latency_ns (range:
  // scan_latency_ns), one with a proof in proof_build_latency_ns.

  Status Read(const ReadVersion& at, const Slice& key, std::string* value,
              ReadProof* proof) const;
  // Range read of [start, end), at most `limit` rows (0 = no limit):
  // section 6.2.2's "the proofs of the resultant records are returned
  // simultaneously when the resultant records are scanned".
  // (spitz:: qualification: inside this class the inherited ScanProof
  // *method* hides the namespace-scope ScanProof *struct*.)
  Status ReadRange(const ReadVersion& at, const Slice& start,
                   const Slice& end, size_t limit, std::vector<PosEntry>* rows,
                   spitz::ScanProof* proof) const;

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

  SpitzDigest Digest() const;
  // VerifiedKv evidence surface: serialized proof + digest bytes.
  Status GetProof(const Slice& key, Evidence* out) override;
  Status ScanProof(const Slice& start, const Slice& end, size_t limit,
                   ScanEvidence* out) override;
  Status Digest(std::string* out) override;
  // Audits `key`'s current binding (empty key: the last sealed block)
  // through auditor() and drains its queue, so the verdict is the
  // return status.
  Status Audit(const Slice& key) override;

  // Client-side (stateless) verification helpers.
  static Status VerifyRead(const SpitzDigest& digest, const Slice& key,
                           const std::optional<std::string>& expected_value,
                           const ReadProof& proof);
  static Status VerifyScan(const SpitzDigest& digest, const Slice& start,
                           const Slice& end, size_t limit,
                           const std::vector<PosEntry>& results,
                           const spitz::ScanProof& proof);
  // The one verifier of single-node evidence (SpitzDb and SpitzClient
  // GetProof/ScanProof): decodes it, then runs VerifyRead/VerifyScan.
  static Status VerifyGetEvidence(const Slice& key, const Evidence& evidence);
  static Status VerifyScanEvidence(const Slice& start, const Slice& end,
                                   size_t limit,
                                   const ScanEvidence& evidence);

  // Proves the ledger grew append-only between two digests the client
  // observed.
  Status ProveConsistency(const SpitzDigest& old_digest,
                          MerkleConsistencyProof* proof) const;
  static bool VerifyConsistency(const MerkleConsistencyProof& proof,
                                const SpitzDigest& old_digest,
                                const SpitzDigest& new_digest);

  // Proves a historical write: entry `entry_index` of block `height`.
  // *digest (when non-null) receives the journal digest the proof's
  // block path was taken against, so the proof verifies against it
  // however far the journal has grown since.
  Status ProveHistoricalEntry(uint64_t height, uint64_t entry_index,
                              JournalEntryProof* proof, LedgerEntry* entry,
                              JournalDigest* digest = nullptr) const;

  // The verified provenance of one key: every sealed write to it, in
  // commit order, each with its journal inclusion proof. This is the
  // "trusted data history" surface of the VDB requirements (section 1:
  // users can "verify the integrity of both current and historical
  // data").
  struct HistoricalWrite {
    LedgerEntry entry;
    JournalEntryProof proof;
    uint64_t block_height = 0;
  };
  Status KeyHistory(const Slice& key,
                    std::vector<HistoricalWrite>* history) const;

  // The index root as of a sealed block (time travel onto old versions:
  // Read/ReadRange at old roots keep working because chunks are
  // immutable).
  Status IndexRootAt(uint64_t block_height, Hash256* root) const;

  // Seals any buffered entries into a final block. Returns an IOError
  // if the sealed block could not be persisted (durable mode).
  Status FlushBlock();

  // --- Introspection ----------------------------------------------------------

  uint64_t entry_count() const;
  SiriBackend index_backend() const { return options_.index_backend; }
  // Whether the configured backend serves ordered (and verified) scans.
  bool SupportsScan() const { return index_->SupportsScan(); }
  uint64_t key_count() const;

  // The unified observability surface: one consistent snapshot of every
  // counter, gauge and histogram this instance owns — write/read/seal
  // latencies and per-backend proof sizes (core.db.* / index.siri.*),
  // chunk storage (chunk.*), node cache (index.cache.*) and the
  // deferred verifier (txn.verifier.*). Serializable via
  // MetricsSnapshot::ToJson(). Safe from any thread.
  MetricsSnapshot Metrics() const { return registry_.Snapshot(); }

  // --- Primary-backup replication seam (src/replica; DESIGN.md §15) ------
  //
  // src/replica owns the replication record (replica/record.h); the
  // database only hands out sealed blocks and applies one.

  // Callback invoked after every seal, outside the writer lock, with
  // the new sealed-block count. The replicator's streaming thread is
  // woken through this. Must be cheap (a condition-variable notify);
  // pass nullptr to detach — required before the listener's owner is
  // destroyed.
  using SealListener = std::function<void(uint64_t sealed_blocks)>;
  void SetSealListener(SealListener listener);

  // The journal bytes of the sealed block at `height` and their decoding,
  // read back from journal.log once a flush has written them out.
  // NotFound past the sealed tip, IOError when the read fails, Corruption
  // when the bytes read fail their frame CRC or block hash.
  Status SealedBlock(uint64_t height, std::string* serialized,
                     Block* block) const;

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

  // Runs the durability barrier (GroupCommit::Sync) over every sealed
  // block: the durability point for non-sync writes. Records merely
  // written (Put/FlushBlock) can be lost in a crash until SyncStorage
  // returns OK. (Writes issued with WriteOptions::sync are already
  // durable when they return.) OK at once in memory.
  Status SyncStorage();

 private:
  // The one construction path of the in-memory constructor and Open():
  // every component is built from `options`, on data_dir when durable.
  SpitzDb(SpitzOptions options, bool durable);

  // The immutable read-path state published by every commit is the
  // digest itself: readers grab one shared_ptr and then traverse chunks
  // that can never change underneath them, so Read/ReadRange/Digest
  // never serialize against commits or each other. mu_ remains
  // the *writer* lock only; snapshot_mu_ guards nothing but the pointer
  // copy below (a few instructions — it is never held across a
  // traversal or a commit). A std::atomic<shared_ptr> would also work,
  // but libstdc++'s lock-bit implementation trips ThreadSanitizer, and
  // the dedicated micro-mutex is just as uncontended in practice.
  std::shared_ptr<const SpitzDigest> CurrentSnapshot() const {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    return snapshot_;
  }
  // The index root a read at `at` traverses.
  Hash256 RootOf(const ReadVersion& at) const {
    return at.has_value() ? *at : CurrentSnapshot()->index_root;
  }
  // Re-publishes the snapshot from the writer-side state; callers hold
  // mu_ (or are single-threaded, during construction/recovery). The
  // journal digest is O(sealed blocks) to recompute, so it is carried
  // over from the previous snapshot unless `journal_changed`.
  void PublishSnapshotLocked(bool journal_changed);

  // Write() with a prepared-key-lock bypass; the public Write
  // delegates with bypass_txn = 0.
  Status WriteInternal(const WriteOptions& options, const WriteBatch& batch,
                       uint64_t bypass_txn);

  // The group-commit leader's apply step (GroupCommit::ApplyFn), under
  // mu_: per member, the prepared-key check, the read-set check and the
  // apply, sealing at the serial path's boundaries; the tail seal when
  // `sync`; then the snapshot. Returns whether it sealed.
  bool ApplyGroupLocked(const std::vector<GroupCommit::Request*>& group,
                        bool sync);

  // Checks the batch's read set against root_ under mu_: Aborted when
  // a read is stale (WriteBatch::ValidateReads), counted in
  // core.db.commit.read_set_aborts.
  Status ValidateReadsLocked(const WriteBatch& batch);

  // Applies one batch's ops to the index and the ledger buffer under
  // mu_ (no seal, no I/O). The batch is atomic: on failure root_ and
  // pending_ are untouched.
  Status ApplyBatchLocked(const WriteBatch& batch);

  // The index-apply loop of ApplyBatchLocked and ApplySealedBlock:
  // `batch`'s ops, copy-on-write from *root, appending to *replaced the
  // ids of the index nodes they replaced. Deleting an absent key is a
  // no-op.
  Status ApplyToIndex(const WriteBatch& batch, Hash256* root,
                      std::vector<Hash256>* replaced) const;

  // Files `replaced`, the ids of the index nodes a block entering the
  // ledger replaced, as the newest of the retain_versions window; the
  // ids of the block that leaves the window go to expired_, and the
  // NotifySealed that follows the seal erases them from the buffer
  // cache, raw and decoded, outside mu_. Callers hold mu_.
  void RetireLocked(std::vector<Hash256> replaced);

  // What a block the journal took at recovery (Journal::Open) or from
  // a primary (Journal::Restore) changes here: indexes its key history,
  // makes its root current and resumes commit timestamps past its
  // entries. Callers hold mu_ or run single-threaded (recovery).
  void AdoptBlock(const Block& block);

  // Seals every pending entry into one block (the serial-path boundary:
  // seal-all once pending reaches block_size); in durable mode the
  // journal logs its frame, a failure sticky in ledger_.status().
  // `entries_root`, when given, is Block::ComputeEntriesRoot(pending_),
  // hashed ahead (BulkLoad hashes its blocks in parallel).
  void SealPendingLocked(const Hash256* entries_root = nullptr);

  // Recovery of a durable database (journal, then the participant's
  // txn.log); called by Open().
  Status Recover();

  // Post-seal work that must run outside mu_: erases the expired ids
  // (RetireLocked) from the buffer cache, aligns the chunk store's
  // segment boundary with the sealed block, wakes the seal listener and
  // hands the new ledger height to the version GC.
  void NotifySealed(uint64_t block_count);

  // Latency/size histograms on the hot paths, resolved once at wiring
  // time so recording is pointer-deref + relaxed atomics. All null when
  // options_.enable_metrics is false (ScopedTimer tolerates null).
  struct DbMetrics {
    Histogram* write_ns = nullptr;        // core.db.write_latency_ns
    Histogram* read_ns = nullptr;         // core.db.read_latency_ns
    Histogram* scan_ns = nullptr;         // core.db.scan_latency_ns
    Histogram* seal_ns = nullptr;         // core.db.seal_latency_ns
    Histogram* proof_build_ns = nullptr;  // core.db.proof_build_latency_ns
    Histogram* proof_bytes = nullptr;  // index.siri.proof_bytes.<backend>
    Histogram* range_proof_bytes = nullptr;  // ...range_proof_bytes.<backend>
  };

  // Binds every component's instruments into registry_ (construction).
  void WireMetrics();

  SpitzOptions options_;
  // InvalidArgument when the options failed Validate(); returned by
  // every write entry point so misconfiguration cannot pass silently.
  Status init_status_;
  // Declared before the components (and before auditor_) so registered
  // instruments outlive both the components that feed them and the
  // audit threads that record latencies during shutdown.
  MetricsRegistry registry_;
  DbMetrics metrics_;
  // The unified cache. Declared before the components that read through
  // it (chunk store, index) so it outlives them.
  std::unique_ptr<BufferCache> buffer_cache_;
  std::unique_ptr<ChunkStore> chunks_;
  // The pluggable SIRI index chosen by options_.index_backend.
  std::unique_ptr<SiriIndex> index_;
  // Durable mode: the resolved I/O environment.
  Env* env_ = nullptr;
  // Crash-garbage bytes cut from the journal tail during recovery
  // (core.db.journal.truncated_bytes).
  Counter journal_truncated_bytes_;
  // Batches failed Aborted by a stale read set, on the 1PC commit path
  // and at 2PC prepare alike (core.db.commit.read_set_aborts).
  Counter read_set_aborts_;
  // The sealed blocks; in durable mode also the owner of journal.log.
  Journal ledger_;
  TimestampOracle clock_;

  // Read-path state; see CurrentSnapshot. Never null after construction.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const SpitzDigest> snapshot_;

  // The write pipeline over ledger_ and chunks_ (see "OLTP write path"
  // above). Lock order: its queue lock alone; its barrier lock, then
  // mu_, never the reverse.
  std::unique_ptr<GroupCommit> commit_;

  // Lock order mu_ -> participant (ApplyGroupLocked checks prepared-key
  // locks under mu_); its apply callback is WriteInternal, and its validate
  // callback takes mu_ to check a prepare's read set.
  std::unique_ptr<TxnParticipant> participant_;

  // Replication seal listener (see SetSealListener). Leaf lock, taken
  // only outside mu_.
  mutable std::mutex seal_listener_mu_;
  SealListener seal_listener_;

  mutable std::mutex mu_;
  Hash256 root_;                      // current index version
  std::vector<LedgerEntry> pending_;  // entries awaiting block seal
  uint64_t last_commit_ts_ = 0;
  // The cache keeps the versions the GC keeps: ids of the index nodes
  // the writes since the last seal replaced, then, per sealed block of
  // the last retain_versions, the ids its writes replaced (oldest
  // first). See RetireLocked.
  std::vector<Hash256> replaced_;
  std::deque<std::vector<Hash256>> retiring_;
  // Ids of the blocks that left the window, for the next NotifySealed
  // to erase. Leaf lock, taken under mu_ or alone.
  std::mutex expired_mu_;
  std::vector<Hash256> expired_;
  // Key-history index: the journal position of every sealed write, one
  // fingerprint slot per key and no key bytes (KeyHistoryIndex). Fed at
  // seal, at recovery and on replica apply, beside each ledger append.
  KeyHistoryIndex history_;

  // After everything a pass reads (its arm step takes mu_ and reads
  // root_ and ledger_), so its background thread is joined first. Lock
  // order: its pass lock, then mu_.
  std::unique_ptr<VersionGc> gc_;

  // Last, and reset first by the destructor: its queue drains while
  // everything an audit reads through is still alive.
  std::unique_ptr<Auditor> auditor_;
};

}  // namespace spitz

#endif  // SPITZ_CORE_SPITZ_DB_H_
