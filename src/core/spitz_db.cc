#include "core/spitz_db.h"

#include <algorithm>

#include "chunk/file_chunk_store.h"
#include "common/clock.h"
#include "common/codec.h"
#include "common/fork_join.h"

namespace spitz {

namespace {

// The paged store under options.data_dir; the in-memory store without a
// data_dir or when *status already failed (a rejected configuration
// creates no files).
std::unique_ptr<ChunkStore> MakeChunkStore(const SpitzOptions& options,
                                           Env* env, BufferCache* cache,
                                           Status* status) {
  if (!status->ok() || options.data_dir.empty()) {
    return std::make_unique<ChunkStore>();
  }
  // A data directory that cannot be created must fail Open() here, with
  // the real errno, rather than surfacing later as a confusing
  // cannot-open-segment error.
  *status = env->CreateDir(options.data_dir);
  if (!status->ok()) return std::make_unique<ChunkStore>();
  FileChunkStore::Options store_options;
  store_options.segment_bytes = options.chunk_segment_bytes;
  store_options.cache = cache;
  std::unique_ptr<FileChunkStore> file_store;
  *status = FileChunkStore::Open(env, options.data_dir + "/chunks",
                                 store_options, &file_store);
  if (!status->ok()) return std::make_unique<ChunkStore>();
  return file_store;
}

// BulkLoad's pieces of parallel work: values hashed, and full blocks
// whose entries root is computed, per piece.
constexpr size_t kValueHashGrain = 512;
constexpr size_t kBlockRootGrain = 8;

}  // namespace

Status SpitzOptions::Validate() const {
  if (block_size == 0) {
    return Status::InvalidArgument("block_size must be at least 1");
  }
  if (index_backend == SiriBackend::kMerkleBucketTree &&
      mbt_bucket_count == 0) {
    return Status::InvalidArgument(
        "mbt_bucket_count must be at least 1 for the MBT backend");
  }
  if (buffer_cache_bytes == 0) {
    return Status::InvalidArgument(
        "buffer_cache_bytes must be positive (with no cache every "
        "traversal re-reads and re-hashes each node; size it small, "
        "don't disable it)");
  }
  if (chunk_segment_bytes == 0 ||
      chunk_segment_bytes > FileChunkStore::kMaxSegmentBytes) {
    return Status::InvalidArgument(
        "chunk_segment_bytes must be between 1 and " +
        std::to_string(FileChunkStore::kMaxSegmentBytes) +
        " (a record's offset in its segment is kept in 32 bits)");
  }
  if (retain_versions == 0) {
    return Status::InvalidArgument(
        "retain_versions must be at least 1 (the current version "
        "cannot be garbage-collected)");
  }
  return index_options.Validate();
}

SpitzDb::SpitzDb(SpitzOptions options)
    : SpitzDb(std::move(options), /*durable=*/false) {}

SpitzDb::SpitzDb(SpitzOptions options, bool durable)
    : options_(std::move(options)),
      init_status_(options_.Validate()),
      buffer_cache_(std::make_unique<BufferCache>(
          options_.buffer_cache_bytes > 0
              ? options_.buffer_cache_bytes
              : BufferCache::kDefaultCapacityBytes)) {
  // Durable databases must go through Open() so recovery errors are
  // reported; the plain constructor is the in-memory path.
  if (durable) {
    env_ = options_.env != nullptr ? options_.env : Env::Default();
  } else {
    options_.data_dir.clear();
  }
  // Clamp rejected values so nothing downstream divides by zero even if
  // the caller ignores the statuses carrying init_status_.
  if (options_.block_size == 0) options_.block_size = 64;
  if (options_.mbt_bucket_count == 0) options_.mbt_bucket_count = 256;
  if (options_.buffer_cache_bytes == 0) {
    options_.buffer_cache_bytes = BufferCache::kDefaultCapacityBytes;
  }
  if (options_.retain_versions == 0) options_.retain_versions = 1;
  chunks_ = MakeChunkStore(options_, env_, buffer_cache_.get(), &init_status_);
  SiriIndexOptions siri;
  siri.pos = options_.index_options;
  siri.mbt_bucket_count = options_.mbt_bucket_count;
  index_ = MakeSiriIndex(options_.index_backend, chunks_.get(), siri);
  index_->SetNodeCache(buffer_cache_.get());
  MetricsRegistry* registry = options_.enable_metrics ? &registry_ : nullptr;
  commit_ = std::make_unique<GroupCommit>(
      &mu_, &ledger_, chunks_.get(),
      [this](const std::vector<GroupCommit::Request*>& group, bool sync) {
        return ApplyGroupLocked(group, sync);
      },
      [this](uint64_t blocks) { NotifySealed(blocks); }, registry);
  // A commit decision applies through the ordinary group-commit
  // pipeline, durably, exempt from its own prepared-key locks.
  participant_ = std::make_unique<TxnParticipant>(
      env_, options_.data_dir,
      [this](uint64_t txn_id, const WriteBatch& batch) {
        WriteOptions sync;
        sync.sync = true;
        return WriteInternal(sync, batch, txn_id);
      },
      [this](const WriteBatch& batch) {
        std::lock_guard<std::mutex> lock(mu_);
        return ValidateReadsLocked(batch);
      },
      init_status_);
  WireMetrics();
  PublishSnapshotLocked(/*journal_changed=*/true);
  gc_ = std::make_unique<VersionGc>(
      chunks_.get(), index_.get(),
      [this](std::vector<Hash256>* roots) {
        std::lock_guard<std::mutex> lock(mu_);
        roots->push_back(root_);
        const uint64_t blocks = ledger_.block_count();
        const uint64_t keep =
            std::min<uint64_t>(options_.retain_versions, blocks);
        for (uint64_t i = 0; i < keep; i++) {
          roots->push_back(ledger_.IndexRoot(blocks - 1 - i));
        }
        return chunks_->BeginGc();
      },
      options_.gc_interval_blocks, init_status_, registry);
  auditor_ = std::make_unique<Auditor>(
      this,
      DeferredVerifier::Options(options_.audit_batch_size,
                                options_.audit_workers),
      registry);
}

void SpitzDb::WireMetrics() {
  if (!options_.enable_metrics) return;
  metrics_.write_ns = registry_.histogram("core.db.write_latency_ns");
  metrics_.read_ns = registry_.histogram("core.db.read_latency_ns");
  metrics_.scan_ns = registry_.histogram("core.db.scan_latency_ns");
  metrics_.seal_ns = registry_.histogram("core.db.seal_latency_ns");
  metrics_.proof_build_ns =
      registry_.histogram("core.db.proof_build_latency_ns");
  // Proof sizes are tagged with the backend that produced them, so an
  // ablation run comparing backends yields distinct series.
  const std::string backend = SiriBackendName(options_.index_backend);
  metrics_.proof_bytes =
      registry_.histogram("index.siri.proof_bytes." + backend);
  metrics_.range_proof_bytes =
      registry_.histogram("index.siri.range_proof_bytes." + backend);
  registry_.RegisterCounter("core.db.journal.truncated_bytes",
                            &journal_truncated_bytes_);
  registry_.RegisterGaugeFn("core.db.journal.resident_bytes", [this] {
    std::lock_guard<std::mutex> lock(mu_);
    return ledger_.resident_bytes();
  });
  registry_.RegisterGaugeFn("core.db.journal.file_bytes", [this] {
    std::lock_guard<std::mutex> lock(mu_);
    return ledger_.stored_bytes();
  });
  registry_.RegisterGaugeFn("core.db.history.bytes", [this] {
    std::lock_guard<std::mutex> lock(mu_);
    return history_.memory_bytes();
  });
  registry_.RegisterGaugeFn("core.db.history.writes", [this] {
    std::lock_guard<std::mutex> lock(mu_);
    return history_.write_count();
  });
  registry_.RegisterCounter("core.db.commit.read_set_aborts",
                            &read_set_aborts_);
  participant_->ExportMetrics(&registry_);
  chunks_->ExportMetrics(&registry_);
  buffer_cache_->ExportMetrics(&registry_);
  // The decoded-node share of the unified cache, under index.cache.*.
  using KindStats = BufferCache::KindStats;
  auto node_stat = [this](uint64_t KindStats::*field) {
    return [this, field] {
      return buffer_cache_->stats().kind[BufferCache::kPosNode].*field;
    };
  };
  registry_.RegisterCounterFn("index.cache.hits", node_stat(&KindStats::hits));
  registry_.RegisterCounterFn("index.cache.misses",
                              node_stat(&KindStats::misses));
  registry_.RegisterCounterFn("index.cache.inserts",
                              node_stat(&KindStats::inserts));
  registry_.RegisterCounterFn("index.cache.evictions",
                              node_stat(&KindStats::evictions));
  registry_.RegisterCounterFn("index.cache.erases",
                              node_stat(&KindStats::erases));
  registry_.RegisterGaugeFn("index.cache.entries",
                            node_stat(&KindStats::entries));
  registry_.RegisterGaugeFn("index.cache.bytes", node_stat(&KindStats::bytes));
  registry_.RegisterGaugeFn("index.cache.capacity_bytes", [this] {
    return static_cast<uint64_t>(buffer_cache_->capacity_bytes());
  });
}

Status SpitzDb::Open(SpitzOptions options, std::unique_ptr<SpitzDb>* db) {
  if (options.data_dir.empty()) {
    return Status::InvalidArgument("Open() requires options.data_dir");
  }
  auto instance = std::unique_ptr<SpitzDb>(
      new SpitzDb(std::move(options), /*durable=*/true));
  Status s = instance->init_status_;
  if (s.ok()) s = instance->Recover();
  if (!s.ok()) return s;
  instance->PublishSnapshotLocked(/*journal_changed=*/true);
  *db = std::move(instance);
  return Status::OK();
}

Status SpitzDb::Recover() {
  uint64_t truncated = 0;
  Status s = ledger_.Open(env_, options_.data_dir + "/journal.log",
                          [this](const Block& block) { AdoptBlock(block); },
                          &truncated);
  if (!s.ok()) return s;
  journal_truncated_bytes_.Increment(truncated);
  // Sanity: the recovered root (the last block's) must resolve in the
  // chunk store.
  uint64_t count = 0;
  if (ledger_.block_count() > 0 && !index_->Count(root_, &count).ok()) {
    return Status::Corruption("recovered index root missing from chunk store");
  }
  commit_->MarkDurable(ledger_.block_count());
  // Replay the 2PC participant log: prepares without a decision marker
  // become the in-doubt set, their key locks re-taken.
  return participant_->Recover();
}

SpitzDb::~SpitzDb() { auditor_.reset(); }

void SpitzDb::NotifySealed(uint64_t block_count) {
  // Outside mu_, so commits do not wait on freeing the nodes the
  // retained window let go of.
  std::vector<Hash256> expired;
  {
    std::lock_guard<std::mutex> lock(expired_mu_);
    expired.swap(expired_);
  }
  for (const Hash256& id : expired) buffer_cache_->Erase(id);
  // Outside mu_: the roll inside OnBlockSealed may fsync the outgoing
  // segment, and commits must not wait on that.
  chunks_->OnBlockSealed();
  {
    // Leaf lock; the listener contract is a cheap wakeup, so holding
    // it across the call cannot stall commits.
    std::lock_guard<std::mutex> lock(seal_listener_mu_);
    if (seal_listener_) seal_listener_(block_count);
  }
  gc_->OnSealed(block_count);
}

Status SpitzDb::SyncStorage() {
  uint64_t blocks = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    blocks = ledger_.block_count();
  }
  return commit_->Sync(blocks);
}

void SpitzDb::PublishSnapshotLocked(bool journal_changed) {
  std::shared_ptr<const SpitzDigest> prev = CurrentSnapshot();
  auto snap = std::make_shared<SpitzDigest>();
  snap->index_root = root_;
  snap->last_commit_ts = last_commit_ts_;
  snap->journal = (journal_changed || prev == nullptr) ? ledger_.Digest()
                                                       : prev->journal;
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = std::move(snap);
}

Status SpitzDb::Put(const WriteOptions& options, const Slice& key,
                    const Slice& value) {
  WriteBatch batch;
  batch.Put(key, value);
  return Write(options, batch);
}

Status SpitzDb::Delete(const WriteOptions& options, const Slice& key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(options, batch);
}

Status SpitzDb::Write(const WriteBatch& batch) {
  return Write(WriteOptions(), batch);
}

Status SpitzDb::Write(const WriteOptions& options, const WriteBatch& batch) {
  return WriteInternal(options, batch, /*bypass_txn=*/0);
}

Status SpitzDb::WriteInternal(const WriteOptions& options,
                              const WriteBatch& batch, uint64_t bypass_txn) {
  if (!init_status_.ok()) return init_status_;
  ScopedTimer timer(metrics_.write_ns);
  return commit_->Commit(batch, options.sync || options_.sync_writes,
                         bypass_txn);
}

bool SpitzDb::ApplyGroupLocked(const std::vector<GroupCommit::Request*>& group,
                               bool sync) {
  bool sealed = false;
  for (GroupCommit::Request* r : group) {
    // Prepared-key locks: a batch touching a key some in-doubt 2PC
    // transaction prepared fails Busy until the coordinator decides,
    // or the decided outcome could be clobbered between vote and
    // commit.
    r->status = participant_->CheckConflicts(*r->batch, r->bypass_txn);
    // The read set is checked against root_ as the batches before it
    // in this group left it, exactly as a serial run would. A commit
    // decision's reads were checked at prepare and are locked since.
    if (r->status.ok() && r->bypass_txn == 0) {
      r->status = ValidateReadsLocked(*r->batch);
    }
    if (!r->status.ok()) continue;
    r->status = ApplyBatchLocked(*r->batch);
    // Seal inside the per-batch loop, exactly where the serial path
    // would: block boundaries (and each block's recorded index root)
    // are therefore identical to running the same batch sequence one
    // at a time, whatever grouping the queue happened to produce.
    if (r->status.ok() && pending_.size() >= options_.block_size) {
      SealPendingLocked();
      sealed = true;
    }
  }
  // A sync group additionally seals its tail: durability is promised
  // for every write in the group, and only journaled blocks survive a
  // crash.
  if (sync && !pending_.empty()) {
    SealPendingLocked();
    sealed = true;
  }
  PublishSnapshotLocked(/*journal_changed=*/sealed);
  return sealed;
}

Status SpitzDb::ValidateReadsLocked(const WriteBatch& batch) {
  Status s = batch.ValidateReads([this](const Slice& key, std::string* value) {
    return index_->Get(root_, key, value, nullptr);
  });
  if (s.IsAborted()) read_set_aborts_.Increment();
  return s;
}

Status SpitzDb::ApplyToIndex(const WriteBatch& batch, Hash256* root,
                             std::vector<Hash256>* replaced) const {
  for (const WriteBatch::Op& op : batch.ops()) {
    Status s;
    if (op.type == WriteBatch::OpType::kPut) {
      s = index_->Put(*root, op.key, op.value, root, replaced);
    } else {
      s = index_->Delete(*root, op.key, root, replaced);
      if (s.IsNotFound()) continue;  // deleting an absent key is a no-op
    }
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status SpitzDb::ApplyBatchLocked(const WriteBatch& batch) {
  uint64_t commit_ts = clock_.Allocate();
  // Apply every op to the unified index (copy-on-write; shared nodes).
  Hash256 root = root_;
  const size_t replaced_before = replaced_.size();
  Status s = ApplyToIndex(batch, &root, &replaced_);
  if (!s.ok()) {
    // The new root is not adopted, so its nodes replaced nothing.
    replaced_.resize(replaced_before);
    return s;
  }
  root_ = root;
  last_commit_ts_ = commit_ts;
  // Record the modification in the ledger buffer.
  for (const WriteBatch::Op& op : batch.ops()) {
    LedgerEntry entry;
    entry.op = op.type == WriteBatch::OpType::kPut ? LedgerEntry::Op::kPut
                                                   : LedgerEntry::Op::kDelete;
    entry.key = op.key;
    entry.value_hash = Hash256::Of(op.value);
    entry.txn_id = commit_ts;
    entry.commit_ts = commit_ts;
    pending_.push_back(std::move(entry));
  }
  return Status::OK();
}

void SpitzDb::SealPendingLocked(const Hash256* entries_root) {
  if (pending_.empty()) return;
  ScopedTimer timer(metrics_.seal_ns);
  // Index history from the entries in hand, before Append takes them:
  // decoding the sealed block back would hash it a second time.
  history_.AddBlock(pending_);
  // Each block stores the index root as of its last entry — "each block
  // in the ledger stores a historical index instance" (section 6.1).
  // Because sealing happens immediately after the batch that crossed
  // the boundary, root_ covers exactly the entries sealed so far.
  const Hash256 merkle_root = entries_root != nullptr
                                 ? *entries_root
                                 : Block::ComputeEntriesRoot(pending_);
  ledger_.Append(std::move(pending_), merkle_root, root_, NowMicros());
  pending_.clear();
  RetireLocked(std::move(replaced_));
  replaced_.clear();
}

void SpitzDb::RetireLocked(std::vector<Hash256> replaced) {
  // A node block b replaced belongs to the versions before b, which
  // the GC keeps until b - 1 leaves its window; one block more keeps
  // every version a pinned read may still name cached.
  retiring_.push_back(std::move(replaced));
  if (retiring_.size() <= options_.retain_versions) return;
  {
    std::lock_guard<std::mutex> lock(expired_mu_);
    std::vector<Hash256>& front = retiring_.front();
    if (expired_.empty()) {
      expired_.swap(front);
    } else {
      expired_.insert(expired_.end(), front.begin(), front.end());
    }
  }
  retiring_.pop_front();
}

Status SpitzDb::BulkLoad(std::vector<PosEntry> entries) {
  if (!init_status_.ok()) return init_status_;
  std::unique_lock<std::mutex> lock(mu_);
  if (!root_.IsZero() || ledger_.block_count() != 0 || !pending_.empty()) {
    return Status::InvalidArgument("bulk load requires an empty database");
  }
  uint64_t commit_ts = clock_.AllocateBatch(entries.size());
  // Ledger entries first (Build consumes the vector). The keys are
  // copied on this thread; the value hashes, which allocate nothing,
  // run on every core.
  std::vector<LedgerEntry> all(entries.size());
  for (size_t i = 0; i < entries.size(); i++) {
    all[i].op = LedgerEntry::Op::kPut;
    all[i].key = entries[i].key;
    all[i].txn_id = commit_ts + i;
    all[i].commit_ts = commit_ts + i;
  }
  ParallelFor(entries.size(), kValueHashGrain, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; i++) {
      all[i].value_hash = Hash256::Of(entries[i].value);
    }
  });
  Status s = index_->Build(std::move(entries), &root_);
  if (!s.ok()) return s;
  last_commit_ts_ = commit_ts + all.size() - 1;
  // Seal full blocks; the (possibly short) tail stays pending. Every
  // full block's entries root is hashed first, on every core; sealing,
  // chaining and the key history then go in order on this thread.
  const size_t block_size = options_.block_size;
  std::vector<Hash256> entries_roots(all.size() / block_size);
  ParallelFor(entries_roots.size(), kBlockRootGrain,
              [&](size_t begin, size_t end) {
                for (size_t b = begin; b < end; b++) {
                  entries_roots[b] = Block::ComputeEntriesRoot(
                      std::span<const LedgerEntry>(all).subspan(
                          b * block_size, block_size));
                }
              });
  for (size_t b = 0; b < entries_roots.size(); b++) {
    const auto first = all.begin() + b * block_size;
    pending_.assign(std::make_move_iterator(first),
                    std::make_move_iterator(first + block_size));
    SealPendingLocked(&entries_roots[b]);
  }
  pending_.assign(
      std::make_move_iterator(all.begin() + entries_roots.size() * block_size),
      std::make_move_iterator(all.end()));
  Status io = ledger_.status();
  uint64_t block_count = ledger_.block_count();
  PublishSnapshotLocked(/*journal_changed=*/true);
  lock.unlock();
  if (block_count > 0) NotifySealed(block_count);
  // A bulk load can leave many MB in the journal's manual-flush buffer;
  // hand them to the kernel now instead of waiting for backpressure.
  if (io.ok()) commit_->FlushJournal();
  return io;
}

Status SpitzDb::FlushBlock() {
  uint64_t block_count = 0;
  Status io;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.empty()) return Status::OK();
    SealPendingLocked();
    io = ledger_.status();
    block_count = ledger_.block_count();
    PublishSnapshotLocked(/*journal_changed=*/true);
  }
  NotifySealed(block_count);
  // The in-memory seal stands either way; a persistence failure means
  // this block will not survive a restart, which the caller must hear.
  return io;
}

// The read path is lock-free: one shared_ptr copy pins an immutable
// snapshot (root + digest), and the traversal below it only touches
// content-addressed chunks that no writer ever mutates. Readers
// therefore never serialize against commits or against each other.

// A proof is produced for presence and (non-degenerate) absence alike;
// its wire size is what the client pays either way.
Status SpitzDb::Read(const ReadVersion& at, const Slice& key,
                     std::string* value, ReadProof* proof) const {
  ScopedTimer timer(proof != nullptr ? metrics_.proof_build_ns
                                     : metrics_.read_ns);
  // The epoch pin brackets the whole traversal so a concurrent GC pass
  // cannot unpublish chunks mid-walk (the snapshot root itself is
  // always retained; the pin protects the window where an *older*
  // version is still being read).
  auto pin = chunks_->PinReads();
  const Hash256 root = RootOf(at);
  Status s = index_->Get(root, key, value,
                         proof != nullptr ? &proof->index_proof : nullptr);
  if (proof == nullptr) return s;
  proof->index_root = root;
  if (metrics_.proof_bytes && (s.ok() || s.IsNotFound())) {
    metrics_.proof_bytes->Record(proof->index_proof.ByteSize());
  }
  return s;
}

Status SpitzDb::ReadRange(const ReadVersion& at, const Slice& start,
                          const Slice& end, size_t limit,
                          std::vector<PosEntry>* rows,
                          spitz::ScanProof* proof) const {
  ScopedTimer timer(proof != nullptr ? metrics_.proof_build_ns
                                     : metrics_.scan_ns);
  auto pin = chunks_->PinReads();
  const Hash256 root = RootOf(at);
  Status s = index_->Scan(root, start, end, limit, rows,
                          proof != nullptr ? &proof->index_proof : nullptr);
  if (proof == nullptr) return s;
  proof->index_root = root;
  if (metrics_.range_proof_bytes && s.ok()) {
    metrics_.range_proof_bytes->Record(proof->index_proof.ByteSize());
  }
  return s;
}

SpitzDigest SpitzDb::Digest() const { return *CurrentSnapshot(); }

// --- VerifiedKv surface -----------------------------------------------------
//
// The verified reads and the evidence calls capture Digest() and read at
// exactly its index root, so a commit in between cannot skew the pair.

Status SpitzDb::Get(const ReadOptions& options, const Slice& key,
                    std::string* value) {
  if (!options.verify) return Read(kCurrentVersion, key, value, nullptr);
  const SpitzDigest digest = Digest();
  std::string found;
  ReadProof proof;
  Status s = Read(digest.index_root, key, &found, &proof);
  if (!s.ok() && !s.IsNotFound()) return s;
  std::optional<std::string> expected;
  if (s.ok()) expected = std::move(found);
  Status verdict = VerifyRead(digest, key, expected, proof);
  if (!verdict.ok()) return verdict;
  if (s.ok()) *value = std::move(*expected);
  return s;
}

Status SpitzDb::Scan(const ReadOptions& options, const Slice& start,
                     const Slice& end, size_t limit,
                     std::vector<PosEntry>* rows) {
  if (!options.verify) {
    return ReadRange(kCurrentVersion, start, end, limit, rows, nullptr);
  }
  const SpitzDigest digest = Digest();
  std::vector<PosEntry> found;
  spitz::ScanProof proof;
  Status s = ReadRange(digest.index_root, start, end, limit, &found, &proof);
  if (!s.ok()) return s;
  Status verdict = VerifyScan(digest, start, end, limit, found, proof);
  if (!verdict.ok()) return verdict;
  *rows = std::move(found);
  return Status::OK();
}

Status SpitzDb::GetProof(const Slice& key, Evidence* out) {
  const SpitzDigest digest = Digest();
  std::string value;
  ReadProof proof;
  Status s = Read(digest.index_root, key, &value, &proof);
  if (!s.ok() && !s.IsNotFound()) return s;
  out->value.reset();
  if (s.ok()) out->value = std::move(value);
  out->proof.clear();
  proof.EncodeTo(&out->proof);
  out->digest.clear();
  digest.EncodeTo(&out->digest);
  return s;
}

Status SpitzDb::ScanProof(const Slice& start, const Slice& end, size_t limit,
                          ScanEvidence* out) {
  const SpitzDigest digest = Digest();
  spitz::ScanProof proof;
  Status s = ReadRange(digest.index_root, start, end, limit, &out->rows,
                       &proof);
  if (!s.ok()) return s;
  out->proof.clear();
  proof.EncodeTo(&out->proof);
  out->digest.clear();
  digest.EncodeTo(&out->digest);
  return Status::OK();
}

Status SpitzDb::Digest(std::string* out) {
  out->clear();
  Digest().EncodeTo(out);
  return Status::OK();
}

Status SpitzDb::Audit(const Slice& key) {
  if (!init_status_.ok()) return init_status_;
  Status s = key.empty() ? auditor_->AuditLastBlock()
                          : auditor_->AuditKey(key);
  return s.ok() ? auditor_->Drain() : s;
}

// The static verifiers model the *client* side, which has no database
// instance (and hence no per-instance registry); their latencies land
// in the process-wide registry under client.db.*.

Status SpitzDb::VerifyRead(const SpitzDigest& digest, const Slice& key,
                           const std::optional<std::string>& expected_value,
                           const ReadProof& proof) {
  ScopedTimer timer(
      MetricsRegistry::Global()->histogram("client.db.verify_read_latency_ns"));
  if (proof.index_root != digest.index_root) {
    return Status::VerificationFailed("proof is for a different version");
  }
  return proof.index_proof.Verify(digest.index_root, key, expected_value);
}

Status SpitzDb::VerifyScan(const SpitzDigest& digest, const Slice& start,
                           const Slice& end, size_t limit,
                           const std::vector<PosEntry>& results,
                           const spitz::ScanProof& proof) {
  ScopedTimer timer(
      MetricsRegistry::Global()->histogram("client.db.verify_scan_latency_ns"));
  if (proof.index_root != digest.index_root) {
    return Status::VerificationFailed("proof is for a different version");
  }
  return proof.index_proof.Verify(digest.index_root, start, end, limit,
                                  results);
}

namespace {

// Decodes evidence's digest and proof, each of which must be exactly one
// encoding.
template <typename Proof>
Status DecodeEvidence(const std::string& digest_bytes,
                      const std::string& proof_bytes, SpitzDigest* digest,
                      Proof* proof) {
  Slice digest_input(digest_bytes), proof_input(proof_bytes);
  Status s = SpitzDigest::DecodeFrom(&digest_input, digest);
  if (s.ok()) s = CheckConsumed(digest_input, "evidence digest");
  if (s.ok()) s = Proof::DecodeFrom(&proof_input, proof);
  if (s.ok()) s = CheckConsumed(proof_input, "evidence proof");
  return s;
}

}  // namespace

Status SpitzDb::VerifyGetEvidence(const Slice& key, const Evidence& evidence) {
  SpitzDigest digest;
  ReadProof proof;
  Status s = DecodeEvidence(evidence.digest, evidence.proof, &digest, &proof);
  return s.ok() ? VerifyRead(digest, key, evidence.value, proof) : s;
}

Status SpitzDb::VerifyScanEvidence(const Slice& start, const Slice& end,
                                   size_t limit,
                                   const ScanEvidence& evidence) {
  SpitzDigest digest;
  spitz::ScanProof proof;
  Status s = DecodeEvidence(evidence.digest, evidence.proof, &digest, &proof);
  return s.ok() ? VerifyScan(digest, start, end, limit, evidence.rows, proof)
                : s;
}

// --- Proof wire formats -----------------------------------------------------

// The digest's wire format (also the leaf bytes a cluster root digest
// commits to — changing this re-hashes every cluster digest).
void SpitzDigest::EncodeTo(std::string* out) const {
  out->append(index_root.slice().view());
  PutVarint64(out, journal.block_count);
  PutVarint64(out, journal.entry_count);
  out->append(journal.tip_hash.slice().view());
  out->append(journal.merkle_root.slice().view());
  PutVarint64(out, last_commit_ts);
}

size_t SpitzDigest::EncodedSize() const {
  return 3 * Hash256::kSize + VarintLength(journal.block_count) +
         VarintLength(journal.entry_count) + VarintLength(last_commit_ts);
}

Status SpitzDigest::DecodeFrom(Slice* input, SpitzDigest* out) {
  Status s = GetHash256(input, &out->index_root);
  if (s.ok()) s = GetVarint64(input, &out->journal.block_count);
  if (s.ok()) s = GetVarint64(input, &out->journal.entry_count);
  if (s.ok()) s = GetHash256(input, &out->journal.tip_hash);
  if (s.ok()) s = GetHash256(input, &out->journal.merkle_root);
  if (s.ok()) s = GetVarint64(input, &out->last_commit_ts);
  return s;
}

void ReadProof::EncodeTo(std::string* out) const {
  out->append(index_root.slice().view());
  index_proof.EncodeTo(out);
}

Status ReadProof::DecodeFrom(Slice* input, std::shared_ptr<const void> owner,
                             ReadProof* out) {
  Status s = GetHash256(input, &out->index_root);
  if (!s.ok()) return s;
  return SiriProof::DecodeFrom(input, std::move(owner), &out->index_proof);
}

void ScanProof::EncodeTo(std::string* out) const {
  out->append(index_root.slice().view());
  index_proof.EncodeTo(out);
}

Status ScanProof::DecodeFrom(Slice* input, std::shared_ptr<const void> owner,
                             ScanProof* out) {
  Status s = GetHash256(input, &out->index_root);
  if (!s.ok()) return s;
  return SiriRangeProof::DecodeFrom(input, std::move(owner),
                                    &out->index_proof);
}

Status SpitzDb::ProveConsistency(const SpitzDigest& old_digest,
                                 MerkleConsistencyProof* proof) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ledger_.ConsistencyProof(old_digest.journal.block_count, proof);
}

bool SpitzDb::VerifyConsistency(const MerkleConsistencyProof& proof,
                                const SpitzDigest& old_digest,
                                const SpitzDigest& new_digest) {
  return Journal::VerifyConsistency(proof, old_digest.journal,
                                    new_digest.journal);
}

Status SpitzDb::ProveHistoricalEntry(uint64_t height, uint64_t entry_index,
                                     JournalEntryProof* proof,
                                     LedgerEntry* entry,
                                     JournalDigest* digest) const {
  // The block's location and path are taken under mu_; the block is
  // read and decoded after it is released, so no journal read runs
  // inside the writer lock (also in KeyHistory).
  Journal::BlockRef ref;
  MerkleInclusionProof path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Status s = ledger_.Locate(height, &ref, &path);
    if (!s.ok()) return s;
    if (digest != nullptr) *digest = ledger_.Digest();
  }
  return Journal::ProveEntryIn(ref, path, entry_index, proof, entry);
}

Status SpitzDb::KeyHistory(const Slice& key,
                           std::vector<HistoricalWrite>* history) const {
  history->clear();
  std::vector<KeyHistoryIndex::Position> candidates;
  // refs[i] and paths[i] locate candidates[i]'s block.
  std::vector<Journal::BlockRef> refs;
  std::vector<MerkleInclusionProof> paths;
  {
    std::lock_guard<std::mutex> lock(mu_);
    history_.Lookup(key, &candidates);
    for (const KeyHistoryIndex::Position& at : candidates) {
      Status s = ledger_.Locate(at.height, &refs.emplace_back(),
                                &paths.emplace_back());
      if (!s.ok()) return s;
    }
  }
  for (size_t i = 0; i < candidates.size(); i++) {
    HistoricalWrite write;
    write.block_height = candidates[i].height;
    Status s = Journal::ProveEntryIn(refs[i], paths[i], candidates[i].index,
                                     &write.proof, &write.entry);
    if (!s.ok()) {
      // A block that cannot be read or fails its checks yields no
      // history at all, not the part before it.
      history->clear();
      return s;
    }
    // A candidate may be another key with the same fingerprint.
    if (write.entry.key != key) continue;
    history->push_back(std::move(write));
  }
  if (history->empty()) return Status::NotFound("no sealed history for key");
  return Status::OK();
}

Status SpitzDb::IndexRootAt(uint64_t block_height, Hash256* root) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (block_height >= ledger_.block_count()) {
    return Status::NotFound("block height beyond journal");
  }
  *root = ledger_.IndexRoot(block_height);
  return Status::OK();
}

// --- Primary-backup replication seam (DESIGN.md §15) ------------------------

void SpitzDb::SetSealListener(SealListener listener) {
  std::lock_guard<std::mutex> lock(seal_listener_mu_);
  seal_listener_ = std::move(listener);
}

Status SpitzDb::SealedBlock(uint64_t height, std::string* serialized,
                            Block* block) const {
  Journal::BlockRef ref;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Status s = ledger_.Locate(height, &ref);
    if (!s.ok()) return s;
  }
  return Journal::Load(ref, serialized, block);
}

Status SpitzDb::ApplySealedBlock(const Block& block, const Slice& serialized,
                                 const WriteBatch& ops, bool sync,
                                 SpitzDigest* applied) {
  if (!init_status_.ok()) return init_status_;
  uint64_t block_count = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (block.height() != ledger_.block_count()) {
      return Status::InvalidArgument(
          "replicated block out of order: expected block " +
          std::to_string(ledger_.block_count()) + ", got " +
          std::to_string(block.height()));
    }
    if (!pending_.empty()) {
      return Status::Busy(
          "backup has locally buffered writes; refusing to interleave a "
          "replicated block");
    }
    Hash256 root = root_;
    std::vector<Hash256> replaced;
    Status s = ApplyToIndex(ops, &root, &replaced);
    if (!s.ok()) return s;
    if (root != block.index_root()) {
      // The hard replication fault: both sides applied the same ops
      // and derived different states.
      return Status::VerificationFailed(
          "replica digest mismatch: independently derived index root "
          "for block " +
          std::to_string(block.height()) + " disagrees with the sealed root");
    }
    // Restore checks that the block links from our current tip, and
    // records it only once its frame is in the journal's log.
    s = ledger_.Restore(block, serialized);
    if (!s.ok()) return s;
    AdoptBlock(block);
    RetireLocked(std::move(replaced));
    block_count = ledger_.block_count();
    PublishSnapshotLocked(/*journal_changed=*/true);
  }
  NotifySealed(block_count);
  Status s = sync ? commit_->Sync(block_count) : Status::OK();
  if (s.ok() && applied != nullptr) *applied = Digest();
  return s;
}

void SpitzDb::AdoptBlock(const Block& block) {
  history_.AddBlock(block.entries());
  root_ = block.index_root();
  // The one clock-resume rule: commit timestamps allocated from here on
  // land strictly after every adopted entry.
  for (const LedgerEntry& entry : block.entries()) {
    last_commit_ts_ = std::max(last_commit_ts_, entry.commit_ts);
  }
  if (clock_.Peek() <= last_commit_ts_) {
    clock_.AllocateBatch(last_commit_ts_ + 1 - clock_.Peek());
  }
}

uint64_t SpitzDb::entry_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ledger_.entry_count() + pending_.size();
}

uint64_t SpitzDb::key_count() const {
  auto pin = chunks_->PinReads();
  uint64_t count = 0;
  index_->Count(CurrentSnapshot()->index_root, &count);
  return count;
}

}  // namespace spitz
