#include "core/spitz_db.h"

#include <algorithm>

#include "chunk/file_chunk_store.h"
#include "common/clock.h"
#include "common/fork_join.h"

namespace spitz {

namespace {

// The paged store under options.data_dir; the in-memory store without
// one or when *status already failed (so a rejected configuration
// creates no files).
std::unique_ptr<ChunkStore> MakeChunkStore(const SpitzOptions& options,
                                           Env* env, BufferCache* cache,
                                           Status* status) {
  if (!status->ok() || options.data_dir.empty()) {
    return std::make_unique<ChunkStore>();
  }
  // A data directory that cannot be created fails Open() here, with the
  // real errno, not later as a cannot-open-segment error.
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

}  // namespace

SpitzDb::SpitzDb(SpitzOptions options)
    : SpitzDb(std::move(options), /*durable=*/false) {}

SpitzDb::SpitzDb(SpitzOptions options, bool durable)
    : options_(std::move(options)),
      init_status_(options_.Validate()),
      buffer_cache_(std::make_unique<BufferCache>(
          options_.buffer_cache_bytes > 0
              ? options_.buffer_cache_bytes
              : BufferCache::kDefaultCapacityBytes)),
      ledger_(&mu_, options_.enable_metrics ? &registry_ : nullptr) {
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
  if (options_.retain_versions == 0) options_.retain_versions = 1;
  MetricsRegistry* registry = options_.enable_metrics ? &registry_ : nullptr;
  chunks_ = MakeChunkStore(options_, env_, buffer_cache_.get(), &init_status_);
  SiriIndexOptions siri;
  siri.pos = options_.index_options;
  siri.mbt_bucket_count = options_.mbt_bucket_count;
  index_ = std::make_unique<VersionedIndex>(
      options_.index_backend, chunks_.get(), buffer_cache_.get(), siri,
      options_.retain_versions, registry, "core.db");
  commit_ = std::make_unique<GroupCommit>(
      &mu_, ledger_.mutable_journal(), chunks_.get(),
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
  if (registry != nullptr) {
    write_ns_ = registry_.histogram("core.db.write_latency_ns");
    registry_.RegisterCounter("core.db.commit.read_set_aborts",
                              &read_set_aborts_);
    participant_->ExportMetrics(&registry_);
    chunks_->ExportMetrics(&registry_);
    buffer_cache_->ExportMetrics(&registry_);
  }
  PublishSnapshotLocked(/*journal_changed=*/true);
  gc_ = std::make_unique<VersionGc>(
      chunks_.get(), index_->siri(),
      [this](std::vector<Hash256>* roots) {
        std::lock_guard<std::mutex> lock(mu_);
        roots->push_back(index_->root());
        const Journal& journal = ledger_.journal();
        const uint64_t blocks = journal.block_count();
        const uint64_t keep =
            std::min<uint64_t>(options_.retain_versions, blocks);
        for (uint64_t i = 0; i < keep; i++) {
          roots->push_back(journal.IndexRoot(blocks - 1 - i));
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
  Status s = ledger_.Open(env_, options_.data_dir + "/journal.log",
                          [this](const Block& block) { AdoptBlock(block); });
  if (!s.ok()) return s;
  // Sanity: the recovered root (the last block's) must resolve in the
  // chunk store.
  const uint64_t blocks = ledger_.journal().block_count();
  uint64_t count = 0;
  if (blocks > 0 && !index_->siri()->Count(index_->root(), &count).ok()) {
    return Status::Corruption("recovered index root missing from chunk store");
  }
  commit_->MarkDurable(blocks);
  // Replay the 2PC participant log: prepares without a decision marker
  // become the in-doubt set, their key locks re-taken.
  return participant_->Recover();
}

SpitzDb::~SpitzDb() { auditor_.reset(); }

void SpitzDb::NotifySealed(uint64_t block_count) {
  // Outside mu_, so commits do not wait on freeing the nodes the
  // retained window let go of.
  index_->EraseExpired();
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
    blocks = ledger_.journal().block_count();
  }
  return commit_->Sync(blocks);
}

void SpitzDb::PublishSnapshotLocked(bool journal_changed) {
  std::shared_ptr<const SpitzDigest> prev = CurrentSnapshot();
  auto snap = std::make_shared<SpitzDigest>();
  snap->index_root = index_->root();
  snap->last_commit_ts = last_commit_ts_;
  snap->journal = (journal_changed || prev == nullptr)
                      ? ledger_.journal().Digest()
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

Status SpitzDb::WriteInternal(const WriteOptions& options,
                              const WriteBatch& batch, uint64_t bypass_txn) {
  if (!init_status_.ok()) return init_status_;
  ScopedTimer timer(write_ns_);
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
    // The read set is checked against the index root as the batches
    // before it in this group left it, exactly as a serial run would. A
    // commit decision's reads were checked at prepare and are locked
    // since.
    if (r->status.ok() && r->bypass_txn == 0) {
      r->status = ValidateReadsLocked(*r->batch);
    }
    if (!r->status.ok()) continue;
    r->status = ApplyBatchLocked(*r->batch);
    // Seal inside the per-batch loop, exactly where the serial path
    // would: block boundaries (and each block's recorded index root)
    // are therefore identical to running the same batch sequence one
    // at a time, whatever grouping the queue happened to produce.
    if (r->status.ok() && ledger_.pending_count() >= options_.block_size) {
      SealLocked();
      sealed = true;
    }
  }
  // A sync group additionally seals its tail: durability is promised
  // for every write in the group, and only journaled blocks survive a
  // crash.
  if (sync && ledger_.pending_count() != 0) {
    SealLocked();
    sealed = true;
  }
  PublishSnapshotLocked(/*journal_changed=*/sealed);
  return sealed;
}

Status SpitzDb::ValidateReadsLocked(const WriteBatch& batch) {
  Status s = batch.ValidateReads([this](const Slice& key, std::string* value) {
    return index_->siri()->Get(index_->root(), key, value, nullptr);
  });
  if (s.IsAborted()) read_set_aborts_.Increment();
  return s;
}

Status SpitzDb::ApplyBatchLocked(const WriteBatch& batch) {
  uint64_t commit_ts = clock_.Allocate();
  // Apply every op to the unified index (copy-on-write; shared nodes).
  Status s = index_->Apply(batch);
  if (!s.ok()) return s;
  last_commit_ts_ = commit_ts;
  ledger_.AddLocked(batch, commit_ts);
  return Status::OK();
}

void SpitzDb::SealLocked() {
  // Sealing happens immediately after the batch that crossed the
  // boundary, so the index root covers exactly the entries sealed so far.
  ledger_.SealLocked(index_->root(), NowMicros());
  index_->Seal();
}

Status SpitzDb::BulkLoad(std::vector<PosEntry> entries) {
  if (!init_status_.ok()) return init_status_;
  std::unique_lock<std::mutex> lock(mu_);
  if (!index_->root().IsZero() || ledger_.journal().block_count() != 0 ||
      ledger_.pending_count() != 0) {
    return Status::InvalidArgument("bulk load requires an empty database");
  }
  const size_t records = entries.size();
  uint64_t commit_ts = clock_.AllocateBatch(records);
  // The ledger reads the records before the index build takes them:
  // every full block is encoded and hashed on every core. Of its work,
  // only the key history needs order and not the index root, so it runs
  // beside the build; the blocks are chained once the root exists.
  Ledger::PreparedLoad load;
  Ledger::PrepareLoad(entries, commit_ts, options_.block_size, NowMicros(),
                      &load);
  Status s;
  RunBeside([&load] { load.IndexHistory(); },
            [&] { s = index_->Build(std::move(entries)); });
  if (!s.ok()) return s;
  last_commit_ts_ = commit_ts + records - 1;
  // The index replaced nothing, so there is nothing to retire.
  ledger_.LoadLocked(std::move(load), index_->root());
  Status io = ledger_.journal().status();
  uint64_t block_count = ledger_.journal().block_count();
  PublishSnapshotLocked(/*journal_changed=*/true);
  gc_->OnLoaded(block_count);
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
    if (ledger_.pending_count() == 0) return Status::OK();
    SealLocked();
    io = ledger_.journal().status();
    block_count = ledger_.journal().block_count();
    PublishSnapshotLocked(/*journal_changed=*/true);
  }
  NotifySealed(block_count);
  // The in-memory seal stands either way; a persistence failure means
  // this block will not survive a restart, which the caller must hear.
  return io;
}

// --- VerifiedKv surface -----------------------------------------------------
//
// The verified reads and the evidence calls pin the current digest and
// read at exactly its index root, so neither a commit nor a GC pass in
// between can skew the pair.

Status SpitzDb::Get(const ReadOptions& options, const Slice& key,
                    std::string* value) {
  if (!options.verify) return Read(kCurrentVersion, key, value, nullptr);
  const PinnedDigest current = PinCurrent();
  const SpitzDigest& digest = *current.digest;
  std::string found;
  ReadProof proof;
  Status s = Read(digest.index_root, key, &found, &proof);
  if (!s.ok() && !s.IsNotFound()) return s;
  std::optional<std::string> expected;
  if (s.ok()) expected = std::move(found);
  Status verdict = spitz::VerifyRead(digest, key, expected, proof);
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
  const PinnedDigest current = PinCurrent();
  const SpitzDigest& digest = *current.digest;
  std::vector<PosEntry> found;
  spitz::ScanProof proof;
  Status s = ReadRange(digest.index_root, start, end, limit, &found, &proof);
  if (!s.ok()) return s;
  Status verdict = spitz::VerifyScan(digest, start, end, limit, found, proof);
  if (!verdict.ok()) return verdict;
  *rows = std::move(found);
  return Status::OK();
}

Status SpitzDb::GetProof(const Slice& key, Evidence* out) {
  const PinnedDigest current = PinCurrent();
  const SpitzDigest& digest = *current.digest;
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
  const PinnedDigest current = PinCurrent();
  const SpitzDigest& digest = *current.digest;
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

// --- Primary-backup replication seam (DESIGN.md §15) ------------------------

void SpitzDb::SetSealListener(SealListener listener) {
  std::lock_guard<std::mutex> lock(seal_listener_mu_);
  seal_listener_ = std::move(listener);
}

Status SpitzDb::ApplySealedBlock(const Block& block, const Slice& serialized,
                                 const WriteBatch& ops, bool sync,
                                 SpitzDigest* applied) {
  if (!init_status_.ok()) return init_status_;
  uint64_t block_count = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t height = ledger_.journal().block_count();
    if (block.height() != height) {
      return Status::InvalidArgument(
          "replicated block out of order: expected block " +
          std::to_string(height) + ", got " + std::to_string(block.height()));
    }
    if (ledger_.pending_count() != 0) {
      return Status::Busy(
          "backup has locally buffered writes; refusing to interleave a "
          "replicated block");
    }
    Hash256 root = index_->root();
    std::vector<Hash256> replaced;
    Status s = index_->ApplyTo(ops, &root, &replaced);
    if (!s.ok()) return s;
    if (root != block.index_root()) {
      // The hard replication fault: both sides applied the same ops
      // and derived different states.
      return Status::VerificationFailed(
          "replica digest mismatch: independently derived index root "
          "for block " +
          std::to_string(block.height()) + " disagrees with the sealed root");
    }
    s = ledger_.RestoreLocked(block, serialized);
    if (!s.ok()) return s;
    AdoptBlock(block);
    index_->Retire(std::move(replaced));
    block_count = height + 1;
    PublishSnapshotLocked(/*journal_changed=*/true);
  }
  NotifySealed(block_count);
  Status s = sync ? commit_->Sync(block_count) : Status::OK();
  if (s.ok() && applied != nullptr) *applied = Digest();
  return s;
}

void SpitzDb::AdoptBlock(const Block& block) {
  index_->Adopt(block.index_root());
  // The one clock-resume rule: commit timestamps allocated from here on
  // land strictly after every adopted entry.
  for (const LedgerEntry& entry : block.entries()) {
    last_commit_ts_ = std::max(last_commit_ts_, entry.commit_ts);
  }
  if (clock_.Peek() <= last_commit_ts_) {
    clock_.AllocateBatch(last_commit_ts_ + 1 - clock_.Peek());
  }
}

}  // namespace spitz
