#ifndef SPITZ_TXN_PARTICIPANT_H_
#define SPITZ_TXN_PARTICIPANT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/metrics.h"
#include "common/status.h"
#include "txn/write_batch.h"

namespace spitz {

// The shard-side half of cross-shard transactions (DESIGN.md section 13).
// A prepared batch is durable in txn.log but not applied, and the keys
// it writes or reads are locked against other writers (the owning store
// calls CheckConflicts on its write path) until the coordinator decides.
// Every decision leaves a durable outcome tombstone (a bounded history,
// kept across txn.log compaction) so a retried decision hears the truth.
// Lock order: owner's writer lock -> participant mutex; `apply` and
// `validate` are never called under the participant mutex.
class TxnParticipant {
 public:
  // Applies `batch` durably (fsync'd) for transaction `txn_id`, exempt
  // from the key locks that transaction's own prepare took.
  using ApplyFn =
      std::function<Status(uint64_t txn_id, const WriteBatch& batch)>;
  // Checks `batch`'s read set against the owner's current state under
  // the owner's writer lock (WriteBatch::ValidateReads).
  using ValidateFn = std::function<Status(const WriteBatch& batch)>;

  // txn.log lives in `dir`; an empty `dir` keeps prepares in memory only
  // (an in-memory owner recovers nothing either). A non-OK `status` —
  // the owner's rejected configuration — is every call's answer.
  TxnParticipant(Env* env, std::string dir, ApplyFn apply,
                 ValidateFn validate, Status status = Status::OK());

  TxnParticipant(const TxnParticipant&) = delete;
  TxnParticipant& operator=(const TxnParticipant&) = delete;

  // Replays txn.log, tolerating a torn tail: prepares without a decision
  // become the in-doubt set with their key locks re-taken; decisions
  // become tombstones. Then opens the log for append.
  Status Recover();

  // Locks the batch's write and read keys, validates its read set, then
  // votes yes durably (fsync'd before returning, under no owner lock).
  // Re-preparing the same batch is OK; a different batch or a resolved
  // id is InvalidArgument; a key another txn locked is Busy; a stale
  // read is Aborted. A failed prepare releases its locks.
  Status PrepareTxn(uint64_t txn_id, const WriteBatch& batch);
  // Applies the prepared batch, then writes a durable commit marker.
  // A committed txn is idempotent OK; one resolved by abort is Aborted
  // (a broken decision the coordinator must surface); NotFound means
  // never prepared here (or its tombstone aged out).
  Status CommitTxn(uint64_t txn_id);
  // Drops a prepared txn under a durable abort marker. Unknown or
  // already aborted is NotFound (benign under presumed abort); committed
  // is InvalidArgument; a txn whose commit is applying is Busy.
  Status AbortTxn(uint64_t txn_id);
  // Transaction ids prepared (or recovered) and not being committed.
  Status InDoubtTxns(std::vector<uint64_t>* out) const;
  // Presumed abort of every in-doubt txn older than `max_age_ms` (its
  // coordinator went silent). *aborted, when non-null, gets the count.
  Status AbortTxnsOlderThan(uint64_t max_age_ms, size_t* aborted = nullptr);

  // Busy (counted as a prepare conflict) if any key `batch` writes or
  // reads is locked by a txn other than `bypass_txn` (0 = an ordinary
  // write). Lock-free when no key is locked. The owner calls it under
  // its writer lock so the check is atomic with its apply.
  Status CheckConflicts(const WriteBatch& batch, uint64_t bypass_txn);

  // Registers core.db.txn.{prepares,commits,aborts,prepare_conflicts,
  // in_doubt} into `registry`.
  void ExportMetrics(MetricsRegistry* registry) const;

 private:
  struct PreparedTxn {
    WriteBatch batch;
    // Monotonic milliseconds at prepare (recovery stamps "now", so a
    // recovered txn ages from restart).
    uint64_t since_ms = 0;
    // Set while CommitTxn applies the batch outside mu_: an abort must
    // not resolve the txn in that window, or the late apply would
    // clobber post-abort writes under a durable abort marker.
    bool committing = false;
  };

  // Appends one framed record to txn.log and fsyncs it. payload =
  // [type:1][txn_id:8]([batch] for prepares). Caller holds mu_.
  Status AppendRecordLocked(uint8_t type, uint64_t txn_id,
                            const WriteBatch* batch);
  // Writes the live prepares and tombstones to a temp file, fsyncs it
  // and renames it over txn.log, so a crash leaves either complete log.
  Status CompactLocked();
  void RecordResolvedLocked(uint64_t txn_id, bool committed);
  // Drops the txn at `it` and its key locks after its durable decision.
  void ResolveLocked(std::map<uint64_t, PreparedTxn>::iterator it,
                     bool committed);
  Status CheckConflictsLocked(const WriteBatch& batch, uint64_t bypass_txn);
  // Takes (or drops) txn_id's lock on every key `batch` writes or reads.
  void LockKeysLocked(uint64_t txn_id, const WriteBatch& batch);
  void UnlockKeysLocked(uint64_t txn_id, const WriteBatch& batch);
  void PublishCountLocked();

  Env* const env_;
  const std::string dir_;
  const std::string path_;  // <dir>/txn.log
  const ApplyFn apply_;
  const ValidateFn validate_;
  const Status status_;

  // Guards everything below except the atomics and instruments.
  mutable std::mutex mu_;
  std::map<uint64_t, PreparedTxn> prepared_;
  // key -> owning txn; a prepare's locks are taken before its vote.
  std::map<std::string, uint64_t> prepared_keys_;
  std::map<uint64_t, bool> resolved_;  // tombstones: txn_id -> committed?
  std::deque<uint64_t> resolved_order_;  // FIFO bound on resolved_
  std::unique_ptr<WritableLog> log_;
  // prepared_keys_.size(), read by the CheckConflicts fast path.
  std::atomic<uint64_t> locked_count_{0};

  Counter prepares_;
  Counter commits_;
  Counter aborts_;
  Counter conflicts_;
  Gauge in_doubt_;
};

}  // namespace spitz

#endif  // SPITZ_TXN_PARTICIPANT_H_
