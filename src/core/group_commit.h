#ifndef SPITZ_CORE_GROUP_COMMIT_H_
#define SPITZ_CORE_GROUP_COMMIT_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "chunk/chunk_store.h"
#include "common/metrics.h"
#include "common/status.h"
#include "ledger/journal.h"
#include "txn/write_batch.h"

namespace spitz {

// The write pipeline of a SpitzDb (DESIGN.md section 11): the commit
// queue, leader election, group formation, the pipelined hand-off, the
// coalescing durability barrier and the journal backpressure valve.
//
// All writes flow through Commit: concurrent writers enqueue their batch
// and block; the writer at the head of the queue becomes the leader,
// drains a bounded group, runs the owner's apply step on it under the
// writer lock, and — if any member asked for durability — runs a single
// barrier for the whole group before waking each waiter with its
// individual Status.
//
// Lock order: commit_mu_ is never held together with any other lock;
// sync_mu_ may acquire the writer lock, never the reverse.
class GroupCommit {
 public:
  // One writer's slot in the commit queue. The owning thread blocks on
  // commit_cv_ until a leader sets `done` (under commit_mu_, so the
  // status write is release/acquire-ordered with the wakeup).
  struct Request {
    const WriteBatch* batch = nullptr;
    bool sync = false;
    // Prepared-key lock bypass: the participant applies a committing
    // batch through the ordinary pipeline, and it must not conflict
    // with the locks its own prepare took. 0 = ordinary write.
    uint64_t bypass_txn = 0;
    Status status;
    bool done = false;
  };

  // The owner's apply stage, which the leader runs under the writer
  // lock: applies each batch, sealing blocks at the same boundaries the
  // serial path would (plus the partial tail when `sync` — durability
  // is promised for the whole group), each seal logging its block's
  // frame into the journal's buffer, and publishes the snapshot. No
  // disk I/O. Sets each member's status; returns whether it sealed.
  using ApplyFn =
      std::function<bool(const std::vector<Request*>& group, bool sync)>;
  // Post-seal work the leader runs outside the writer lock, with the
  // block count after its group's seals.
  using SealedFn = std::function<void(uint64_t blocks)>;

  // `mu` is the owner's writer lock, under which `journal` is appended
  // and flushed. Every pointer must outlive this object. `registry`
  // (null = no metrics) receives core.db.commit.group_size and
  // core.db.journal.fsyncs.
  GroupCommit(std::mutex* mu, Journal* journal, ChunkStore* chunks,
              ApplyFn apply, SealedFn sealed, MetricsRegistry* registry);

  GroupCommit(const GroupCommit&) = delete;
  GroupCommit& operator=(const GroupCommit&) = delete;

  // Commits `batch` in its turn; with `sync`, returns once its blocks
  // are durable. Durability is only on offer when the journal has a
  // file: without one the flag is ignored rather than force-sealing
  // partial blocks for a barrier that cannot exist.
  Status Commit(const WriteBatch& batch, bool sync, uint64_t bypass_txn);

  // The coalescing durability barrier shared by sync commits and the
  // owner's explicit syncs. Returns once the first `blocks` sealed
  // blocks are durable; at once when the journal has no file. A caller
  // whose blocks are already covered by a completed barrier returns
  // immediately; one caller at a time runs the barrier proper — (1)
  // Journal::Flush under the writer lock, capturing the block count the
  // barrier will harden (a journal whose append failed refuses, and
  // every later barrier returns that error); (2) ChunkStore::Sync; (3)
  // Journal::SyncFlushed — while later callers wait and then usually
  // find themselves covered by it. This is where fsyncs amortize: N
  // concurrent sync writers converge on ~2 barriers per round instead
  // of N. A failed barrier advances nothing.
  //
  // Ordering invariant: chunk durability strictly precedes journal
  // durability for every record a barrier hardens. The journal runs in
  // manual-flush mode and every flush is serialized against the
  // in-flight barrier, so no record can become kernel-visible between
  // (2) and (3) — which is what recovery relies on when it refuses
  // roots that do not resolve in the chunk store. The barrier holds no
  // lock during the fsyncs: the next group's apply stage runs
  // concurrently — the pipelined half of group commit.
  Status Sync(uint64_t blocks);

  // Kernel visibility without a durability point: flushes the journal
  // under the writer lock while excluding any in-flight barrier
  // (sync_mu_). Backpressure valve for long non-sync runs so the
  // manual-flush buffer cannot grow without bound. A failure is sticky
  // inside the journal and surfaces on the next seal or sync.
  void FlushJournal();

  // Recovery's cut: the first `blocks` sealed blocks are the file's
  // contents, so no barrier owes them.
  void MarkDurable(uint64_t blocks);

 private:
  // The leader's apply stage: the owner's step under the writer lock,
  // then the group-wide journal status. *blocks receives the block
  // count after the group's seals — the cut Sync must cover for the
  // group to be durable. *flush_backpressure is set when the journal's
  // user-space buffer has outgrown its budget and the leader should
  // FlushJournal() (non-sync groups only — a sync group's barrier
  // drains the buffer anyway).
  Status ApplyGroup(const std::vector<Request*>& group, bool sync,
                    uint64_t* blocks, bool* flush_backpressure);

  std::mutex* const mu_;
  Journal* const journal_;
  ChunkStore* const chunks_;
  const ApplyFn apply_;
  const SealedFn sealed_;
  // Batches per leader drain: its mean is the write-amortization
  // factor, and fsyncs ≪ puts is the observable group-commit win.
  Histogram* group_size_ = nullptr;
  // Journal fsyncs issued: one per barrier, not one per put — the ratio
  // to total puts is the amortization group commit buys.
  Counter fsyncs_;

  // commit_mu_ guards only the deque and the done/status handoff; it is
  // never held while the leader works, so enqueueing writers do not
  // serialize against the index apply or the fsync. A leader pops its
  // group *before* the disk barrier, so the next leader's apply stage
  // overlaps this group's sync stage.
  std::mutex commit_mu_;
  std::condition_variable commit_cv_;
  std::deque<Request*> commit_queue_;

  // Barrier coalescing state (see Sync). sync_mu_ guards only these
  // fields plus FlushJournal's flush; the barrier's own I/O runs with
  // sync_in_flight_ set and no lock held. synced_blocks_ is the highest
  // block count a completed barrier has hardened.
  std::mutex sync_mu_;
  std::condition_variable sync_cv_;
  bool sync_in_flight_ = false;
  uint64_t synced_blocks_ = 0;
};

}  // namespace spitz

#endif  // SPITZ_CORE_GROUP_COMMIT_H_
