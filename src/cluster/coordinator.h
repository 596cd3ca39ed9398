#ifndef SPITZ_CLUSTER_COORDINATOR_H_
#define SPITZ_CLUSTER_COORDINATOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/metrics.h"
#include "net/spitz_client.h"
#include "txn/write_batch.h"

namespace spitz {

// ---------------------------------------------------------------------------
// ClusterCoordinator — the client-side 2PC driver of a sharded Spitz
// deployment (paper section 5.2, over TCP).
//
// The coordinator owns no server: it is a library the writing client
// runs. A cross-shard batch — writes and read set — is split by the
// shared partition function, prepared on every touched shard (each
// shard locks the keys, checks its reads and journals its vote durably
// before answering), and committed once all votes are in. Failure
// matrix:
//
//   * any prepare fails        -> abort the already-prepared shards,
//                                 return that prepare's status
//                                 (Busy = key conflict, retryable;
//                                 Aborted = stale read, re-read and
//                                 retry).
//   * a commit RPC fails       -> the decision is already durable on
//                                 the shards that took it; the driver
//                                 retries the stragglers, then reports
//                                 Unavailable. The prepared shard holds
//                                 its locks as in-doubt until a retry
//                                 lands or its presumed-abort sweeper
//                                 fires — which is why the sweeper
//                                 timeout must dominate coordinator
//                                 retry time.
//   * a shard answers Aborted  -> its sweeper (or a takeover
//     (or NotFound) to commit     coordinator) resolved the txn by
//                                 abort while the decision was commit:
//                                 that shard's writes are gone while
//                                 others applied theirs. CommitBatch
//                                 reports Status::Aborted — a hard
//                                 atomicity failure, never success.
//                                 (Participants keep durable outcome
//                                 tombstones, so a retried commit of a
//                                 committed txn is plain OK.)
//   * coordinator dies         -> prepared shards surface the txn via
//                                 TxnInDoubt; a new coordinator (or an
//                                 operator) calls ResolveInDoubt, which
//                                 presumes abort.
//
// Single-shard batches skip 2PC entirely (one-phase fast path: a plain
// kWrite, which is atomic, checks the read set and is synced on the
// shard).
//
// Not thread-safe per call; share one instance across threads only for
// NextTxnId(), which is atomic.
// ---------------------------------------------------------------------------
class ClusterCoordinator {
 public:
  // `shards[i]` serves partition i; borrowed, must outlive the
  // coordinator. `txn_id_seed` must be distinct across coordinators
  // that can touch the same shards (default: a random 64-bit draw;
  // participants reject a colliding id outright).
  explicit ClusterCoordinator(std::vector<SpitzClient*> shards,
                              uint64_t txn_id_seed = 0);

  ClusterCoordinator(const ClusterCoordinator&) = delete;
  ClusterCoordinator& operator=(const ClusterCoordinator&) = delete;

  size_t shard_count() const { return shards_.size(); }

  // Splits `batch` by partition and commits it atomically across every
  // touched shard, or not at all: Aborted when a read in its read set
  // is stale. options.sync is honored on the one-phase path; prepared
  // batches are always durable (a vote is a promise).
  Status CommitBatch(const WriteOptions& options, const WriteBatch& batch);

  // Presumed-abort recovery: collects every shard's in-doubt list and
  // aborts all of them. Run this before issuing new transactions when
  // taking over from a dead coordinator — never while another
  // coordinator with undecided transactions is still alive.
  Status ResolveInDoubt(size_t* aborted);

  uint64_t NextTxnId() {
    return next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  }

  // cluster.coordinator.*: 1pc/2pc commit counts, aborts, in-doubt
  // resolutions, phase-2 commit retries.
  MetricsSnapshot Metrics() const { return registry_.Snapshot(); }

  // Test-only: invoked after every prepare vote has landed and before
  // the first phase-2 commit RPC — the window where a shard bounce
  // leaves a prepared (in-doubt) transaction behind that the commit
  // retry path must push through.
  void SetBetweenPhasesHookForTest(std::function<void()> hook) {
    between_phases_hook_ = std::move(hook);
  }

 private:
  std::vector<SpitzClient*> shards_;
  std::atomic<uint64_t> next_txn_id_;
  std::function<void()> between_phases_hook_;

  MetricsRegistry registry_;
  Counter* commits_1pc_;
  Counter* commits_2pc_;
  Counter* aborts_;
  Counter* in_doubt_resolved_;
  Counter* commit_retries_;
};

}  // namespace spitz

#endif  // SPITZ_CLUSTER_COORDINATOR_H_
