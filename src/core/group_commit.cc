#include "core/group_commit.h"

namespace spitz {

namespace {

// Bounds on one commit group. The leader drains the queue up to these
// caps so a burst of writers cannot stretch one group (and thus the
// tail latency of its first member) without bound; writers past the cap
// simply form the next group. The ops cap dominates for small writes,
// the byte cap for blob-sized ones.
constexpr size_t kMaxGroupOps = 4096;
constexpr size_t kMaxGroupBytes = 4 << 20;

// When a non-sync commit leaves more than this many bytes in the
// journal's manual-flush buffer, the leader flushes them to the kernel
// (FlushJournal) before finishing — bounding user-space memory for
// workloads that never ask for a barrier.
constexpr size_t kJournalBackpressureBytes = 4 << 20;

}  // namespace

GroupCommit::GroupCommit(std::mutex* mu, Journal* journal, ChunkStore* chunks,
                         ApplyFn apply, SealedFn sealed,
                         MetricsRegistry* registry)
    : mu_(mu),
      journal_(journal),
      chunks_(chunks),
      apply_(std::move(apply)),
      sealed_(std::move(sealed)) {
  if (registry == nullptr) return;
  group_size_ = registry->histogram("core.db.commit.group_size");
  registry->RegisterCounter("core.db.journal.fsyncs", &fsyncs_);
}

Status GroupCommit::Commit(const WriteBatch& batch, bool sync,
                           uint64_t bypass_txn) {
  Request req;
  req.batch = &batch;
  req.bypass_txn = bypass_txn;
  req.sync = sync && journal_->has_log();

  std::unique_lock<std::mutex> lock(commit_mu_);
  commit_queue_.push_back(&req);
  // Wait until a leader commits this request — or until this request
  // reaches the head of the queue and must lead. A group stays queued
  // through its apply stage, so exactly one leader applies at a time
  // and journal records are appended in commit order. (The queue can be
  // empty here: a popped-but-not-done request rechecking the predicate
  // must not dereference front().)
  commit_cv_.wait(lock, [&] {
    return req.done ||
           (!commit_queue_.empty() && &req == commit_queue_.front());
  });
  if (req.done) return req.status;

  // Leader: drain a bounded group off the queue head. The requests stay
  // queued (see above); later arrivals line up behind them.
  std::vector<Request*> group;
  bool group_sync = false;
  size_t group_ops = 0, group_bytes = 0;
  for (Request* r : commit_queue_) {
    if (!group.empty() && (group_ops + r->batch->size() > kMaxGroupOps ||
                           group_bytes + r->batch->ByteSize() > kMaxGroupBytes)) {
      break;
    }
    group.push_back(r);
    group_ops += r->batch->size();
    group_bytes += r->batch->ByteSize();
    group_sync |= r->sync;
  }
  lock.unlock();

  uint64_t blocks = 0;
  bool flush_backpressure = false;
  Status io = ApplyGroup(group, group_sync, &blocks, &flush_backpressure);

  // Pipelined hand-off: pop the group and wake the next head *before*
  // any disk wait, so its apply stage (the writer lock) runs while this
  // group sits in the sync stage (sync_mu_). Popped members are not done
  // yet — they keep waiting on commit_cv_ until after the barrier.
  lock.lock();
  commit_queue_.erase(commit_queue_.begin(),
                      commit_queue_.begin() + group.size());
  commit_cv_.notify_all();
  lock.unlock();

  if (group_sync && io.ok()) {
    // One disk barrier amortized over the whole group — and over any
    // other group whose records the same barrier happens to cover. No
    // lock is held: enqueueing writers, the next group's apply, readers
    // and the auditor all keep running while this group waits on disk.
    io = Sync(blocks);
    if (!io.ok()) {
      // Every writer whose batch applied must hear that its write may
      // not survive a restart. Batches rejected at apply time keep
      // their own (more specific) error.
      for (Request* r : group) {
        if (r->status.ok()) r->status = io;
      }
    }
  } else if (flush_backpressure) {
    FlushJournal();
  }

  lock.lock();
  for (Request* r : group) r->done = true;
  commit_cv_.notify_all();
  return req.status;
}

Status GroupCommit::ApplyGroup(const std::vector<Request*>& group, bool sync,
                               uint64_t* blocks, bool* flush_backpressure) {
  if (group_size_ != nullptr) group_size_->Record(group.size());
  bool sealed = false;
  Status io;
  {
    std::lock_guard<std::mutex> lock(*mu_);
    sealed = apply_(group, sync);
    if (sealed) io = journal_->status();
    *blocks = journal_->block_count();
    // Read under the writer lock (appends are serialized by it, so this
    // is exact): a long non-sync run must eventually hand the journal's
    // manual-flush buffer to the kernel or it grows without bound.
    *flush_backpressure =
        !sync && journal_->buffered_bytes() >= kJournalBackpressureBytes;
  }
  if (!io.ok()) {
    // A failed journal append is group-wide: the group's blocks will
    // not survive a restart.
    for (Request* r : group) {
      if (r->status.ok()) r->status = io;
    }
  }
  if (sealed) sealed_(*blocks);
  return io;
}

Status GroupCommit::Sync(uint64_t blocks) {
  if (!journal_->has_log()) return Status::OK();
  std::unique_lock<std::mutex> sync_lock(sync_mu_);
  for (;;) {
    // A barrier that completed after our records were appended already
    // hardened them (its flush snapshot is a superset of our cut):
    // piggyback and return without touching the disk. This is the
    // coalescing that keeps fsyncs ≪ puts — concurrent sync writers
    // converge on ~2 barriers per round, not one each.
    if (synced_blocks_ >= blocks) return Status::OK();
    if (!sync_in_flight_) break;
    sync_cv_.wait(sync_lock);
  }
  sync_in_flight_ = true;
  sync_lock.unlock();

  Status s;
  uint64_t flushed_blocks = 0;
  {
    // (1) Snapshot-flush: every block sealed so far becomes
    // kernel-visible, and nothing else can follow until this barrier
    // completes (every flush defers to the in-flight barrier; the
    // journal never flushes on its own in manual-flush mode). A journal
    // whose append failed refuses, so no barrier covers a lost block.
    std::lock_guard<std::mutex> lock(*mu_);
    s = journal_->Flush();
    flushed_blocks = journal_->block_count();
  }
  if (s.ok()) {
    // (2) Chunks strictly before (3) the journal: every record in the
    // snapshot references only chunks appended before it, so after
    // this barrier the chunk store durably holds every index node the
    // journal's durable prefix can name. Recovery depends on that
    // order — it refuses roots that do not resolve in the chunk store.
    s = chunks_->Sync();
    if (s.ok()) {
      s = journal_->SyncFlushed();
      fsyncs_.Increment();
    }
  }

  sync_lock.lock();
  sync_in_flight_ = false;
  if (s.ok() && flushed_blocks > synced_blocks_) {
    synced_blocks_ = flushed_blocks;
  }
  // Wake every waiter: covered ones return OK, the rest race to run the
  // next barrier (after a failure the winner retries the I/O and
  // surfaces the sticky error to its own caller).
  sync_cv_.notify_all();
  return s;
}

void GroupCommit::FlushJournal() {
  // Kernel visibility only, not a durability point — but excluded
  // against the in-flight barrier, so no journal byte can slip into the
  // window between the barrier's chunk sync and its journal fsync.
  std::unique_lock<std::mutex> sync_lock(sync_mu_);
  sync_cv_.wait(sync_lock, [&] { return !sync_in_flight_; });
  std::lock_guard<std::mutex> lock(*mu_);
  journal_->Flush();
}

void GroupCommit::MarkDurable(uint64_t blocks) {
  std::lock_guard<std::mutex> lock(sync_mu_);
  synced_blocks_ = blocks;
}

}  // namespace spitz
