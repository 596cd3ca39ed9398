#include "txn/participant.h"

#include "common/clock.h"
#include "common/codec.h"
#include "common/record_frame.h"

namespace spitz {

namespace {

// txn.log record types.
constexpr uint8_t kPrepareRecord = 1;
constexpr uint8_t kCommitRecord = 2;
constexpr uint8_t kAbortRecord = 3;

// Bounded FIFO of outcome tombstones: enough history that any plausible
// retry window is covered, without letting a long-lived shard
// accumulate a tombstone per transaction it ever saw.
constexpr size_t kMaxResolvedTxns = 4096;

// One txn.log record: payload = [type:1][txn_id:8]([batch]).
std::string EncodeRecord(uint8_t type, uint64_t txn_id,
                         const WriteBatch* batch) {
  std::string payload;
  payload.push_back(static_cast<char>(type));
  PutFixed64(&payload, txn_id);
  if (batch != nullptr) payload.append(batch->Encode());
  std::string record;
  AppendRecordFrame(payload, &record);
  return record;
}

uint64_t NowMs() { return MonotonicNanos() / 1000000; }

// Calls `fn` on every key `batch` writes or reads: the keys a prepare
// locks.
template <typename Fn>
void ForEachKey(const WriteBatch& batch, Fn&& fn) {
  for (const WriteBatch::Op& op : batch.ops()) fn(op.key);
  for (const WriteBatch::Read& read : batch.reads()) fn(read.key);
}

}  // namespace

TxnParticipant::TxnParticipant(Env* env, std::string dir, ApplyFn apply,
                               ValidateFn validate, Status status)
    : env_(env),
      dir_(std::move(dir)),
      path_(dir_ + "/txn.log"),
      apply_(std::move(apply)),
      validate_(std::move(validate)),
      status_(std::move(status)) {}

void TxnParticipant::ExportMetrics(MetricsRegistry* registry) const {
  registry->RegisterCounter("core.db.txn.prepares", &prepares_);
  registry->RegisterCounter("core.db.txn.commits", &commits_);
  registry->RegisterCounter("core.db.txn.aborts", &aborts_);
  registry->RegisterCounter("core.db.txn.prepare_conflicts", &conflicts_);
  registry->RegisterGaugeFn("core.db.txn.in_doubt",
                            [this] { return in_doubt_.value(); });
}

Status TxnParticipant::PrepareTxn(uint64_t txn_id, const WriteBatch& batch) {
  if (!status_.ok()) return status_;
  if (txn_id == 0) {
    return Status::InvalidArgument("txn_id must be nonzero");
  }
  if (batch.empty()) {
    return Status::InvalidArgument("cannot prepare an empty batch");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Idempotent re-prepare: a coordinator retrying a lost vote gets the
    // same yes it got the first time — but only for the same batch. A
    // different batch under a known id is a coordinator id collision,
    // and a yes here would vote for bytes that were never staged.
    auto existing = prepared_.find(txn_id);
    if (existing != prepared_.end()) {
      if (existing->second.batch.Encode() == batch.Encode()) {
        return Status::OK();
      }
      return Status::InvalidArgument(
          "txn " + std::to_string(txn_id) +
          " re-prepared with a different batch (coordinator id collision?)");
    }
    // Same hazard for an id this shard already resolved: re-staging it
    // would let one coordinator's commit retry apply another's batch.
    if (resolved_.count(txn_id) != 0) {
      return Status::InvalidArgument("txn " + std::to_string(txn_id) +
                                     " was already resolved on this shard");
    }
    // No bypass: a duplicate prepare racing this one finds its keys
    // taken and is Busy, never a second vote.
    Status s = CheckConflictsLocked(batch, /*bypass_txn=*/0);
    if (!s.ok()) return s;
    LockKeysLocked(txn_id, batch);
    PublishCountLocked();
  }
  // The read set is checked after the locks are taken, under the
  // owner's writer lock: a writer that passed CheckConflicts before the
  // locks holds that lock until its batch is applied, so the check sees
  // it, and every later writer of these keys is Busy.
  Status s = validate_(batch);
  std::lock_guard<std::mutex> lock(mu_);
  // The vote is durable before it is cast: a participant that said yes
  // must still know it after a crash (Recover re-stages it).
  if (s.ok()) s = AppendRecordLocked(kPrepareRecord, txn_id, &batch);
  if (!s.ok()) {
    UnlockKeysLocked(txn_id, batch);
    PublishCountLocked();
    return s;
  }
  PreparedTxn prepared;
  prepared.batch = batch;
  prepared.since_ms = NowMs();
  prepared_.emplace(txn_id, std::move(prepared));
  prepares_.Increment();
  PublishCountLocked();
  return Status::OK();
}

Status TxnParticipant::CommitTxn(uint64_t txn_id) {
  if (!status_.ok()) return status_;
  WriteBatch batch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = prepared_.find(txn_id);
    if (it == prepared_.end()) {
      auto resolved = resolved_.find(txn_id);
      if (resolved != resolved_.end()) {
        // The tombstone knows the true outcome: a retried commit of a
        // committed txn is idempotent OK; a commit of a txn this shard
        // resolved by abort (sweeper, takeover coordinator) is a broken
        // decision the coordinator must hear about.
        if (resolved->second) return Status::OK();
        return Status::Aborted("txn " + std::to_string(txn_id) +
                               " was resolved by abort on this shard");
      }
      return Status::NotFound("transaction not prepared on this shard");
    }
    // Pin the txn for the apply window below: once the commit decision
    // is being acted on, no abort path may resolve it.
    it->second.committing = true;
    batch = it->second.batch;
  }
  // Outside mu_ (the owner's apply takes its writer lock, which orders
  // before mu_). The apply is durable: the data must be on disk before
  // the decision marker says it is. A shard that only read has nothing
  // to apply; its decision just releases the read locks.
  Status s = batch.size() == 0 ? Status::OK() : apply_(txn_id, batch);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = prepared_.find(txn_id);
  if (!s.ok()) {
    // The apply failed; unpin so the sweeper / an abort can still
    // resolve the txn.
    if (it != prepared_.end()) it->second.committing = false;
    return s;
  }
  if (it == prepared_.end()) {
    // A concurrent CommitTxn for the same id finished first (aborts
    // cannot race here — the committing pin blocks them) and left a
    // committed tombstone.
    return Status::OK();
  }
  // A crash between the apply above and this marker leaves the txn in
  // doubt; the coordinator re-sends CommitTxn after recovery and the
  // batch re-applies — state-convergent (puts re-set the same values,
  // deletes stay deleted) at the cost of duplicate ledger entries for
  // the retried batch.
  s = AppendRecordLocked(kCommitRecord, txn_id, nullptr);
  if (!s.ok()) {
    // Keep the committing pin: the batch is already applied, so letting
    // an abort resolve the txn now would durably record the wrong
    // outcome. A retried CommitTxn re-applies and retries the marker.
    return s;
  }
  ResolveLocked(it, /*committed=*/true);
  return Status::OK();
}

Status TxnParticipant::AbortTxn(uint64_t txn_id) {
  if (!status_.ok()) return status_;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = prepared_.find(txn_id);
  if (it == prepared_.end()) {
    auto resolved = resolved_.find(txn_id);
    if (resolved != resolved_.end() && resolved->second) {
      return Status::InvalidArgument(
          "cannot abort txn " + std::to_string(txn_id) +
          ": already committed on this shard");
    }
    // Unknown or already aborted — benign under presumed abort.
    return Status::NotFound("transaction not prepared on this shard");
  }
  if (it->second.committing) {
    // The commit decision is being applied right now; resolving by
    // abort would drop writes under a durable abort marker.
    return Status::Busy("txn " + std::to_string(txn_id) + " is committing");
  }
  Status s = AppendRecordLocked(kAbortRecord, txn_id, nullptr);
  if (!s.ok()) return s;
  ResolveLocked(it, /*committed=*/false);
  return Status::OK();
}

Status TxnParticipant::InDoubtTxns(std::vector<uint64_t>* out) const {
  out->clear();
  if (!status_.ok()) return status_;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [txn_id, prepared] : prepared_) {
    // A committing txn is not in doubt — its decision is in flight, and
    // listing it would invite a racing presumed-abort.
    if (prepared.committing) continue;
    out->push_back(txn_id);
  }
  return Status::OK();
}

Status TxnParticipant::AbortTxnsOlderThan(uint64_t max_age_ms,
                                          size_t* aborted) {
  if (aborted != nullptr) *aborted = 0;
  if (!status_.ok()) return status_;
  const uint64_t now_ms = NowMs();
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> victims;
  for (const auto& [txn_id, prepared] : prepared_) {
    if (prepared.committing) continue;  // decision in flight: not ours
    // since_ms is monotonic, but guard the unsigned subtraction anyway:
    // an underflow here would sweep every prepared txn at once.
    if (now_ms >= prepared.since_ms &&
        now_ms - prepared.since_ms >= max_age_ms) {
      victims.push_back(txn_id);
    }
  }
  for (uint64_t txn_id : victims) {
    Status s = AppendRecordLocked(kAbortRecord, txn_id, nullptr);
    if (!s.ok()) return s;
    ResolveLocked(prepared_.find(txn_id), /*committed=*/false);
    if (aborted != nullptr) (*aborted)++;
  }
  return Status::OK();
}

Status TxnParticipant::CheckConflicts(const WriteBatch& batch,
                                      uint64_t bypass_txn) {
  // The common nothing-locked case never takes the mutex.
  if (locked_count_.load(std::memory_order_acquire) == 0 &&
      bypass_txn == 0) {
    return Status::OK();
  }
  std::lock_guard<std::mutex> lock(mu_);
  return CheckConflictsLocked(batch, bypass_txn);
}

Status TxnParticipant::CheckConflictsLocked(const WriteBatch& batch,
                                            uint64_t bypass_txn) {
  uint64_t owner = 0;  // txn ids are nonzero
  ForEachKey(batch, [&](const std::string& key) {
    auto it = prepared_keys_.find(key);
    if (it != prepared_keys_.end() && it->second != bypass_txn) {
      owner = it->second;
    }
  });
  if (owner == 0) return Status::OK();
  conflicts_.Increment();
  return Status::Busy("key locked by prepared transaction " +
                      std::to_string(owner));
}

void TxnParticipant::LockKeysLocked(uint64_t txn_id, const WriteBatch& batch) {
  ForEachKey(batch,
             [&](const std::string& key) { prepared_keys_[key] = txn_id; });
}

void TxnParticipant::UnlockKeysLocked(uint64_t txn_id,
                                      const WriteBatch& batch) {
  ForEachKey(batch, [&](const std::string& key) {
    auto locked = prepared_keys_.find(key);
    if (locked != prepared_keys_.end() && locked->second == txn_id) {
      prepared_keys_.erase(locked);
    }
  });
}

void TxnParticipant::ResolveLocked(
    std::map<uint64_t, PreparedTxn>::iterator it, bool committed) {
  const uint64_t txn_id = it->first;
  UnlockKeysLocked(txn_id, it->second.batch);
  prepared_.erase(it);
  RecordResolvedLocked(txn_id, committed);
  (committed ? commits_ : aborts_).Increment();
  PublishCountLocked();
}

void TxnParticipant::RecordResolvedLocked(uint64_t txn_id, bool committed) {
  auto [it, inserted] = resolved_.emplace(txn_id, committed);
  if (!inserted) {
    it->second = committed;
    return;
  }
  resolved_order_.push_back(txn_id);
  while (resolved_order_.size() > kMaxResolvedTxns) {
    resolved_.erase(resolved_order_.front());
    resolved_order_.pop_front();
  }
}

void TxnParticipant::PublishCountLocked() {
  locked_count_.store(prepared_keys_.size(), std::memory_order_release);
  in_doubt_.Set(prepared_.size());
}

Status TxnParticipant::AppendRecordLocked(uint8_t type, uint64_t txn_id,
                                          const WriteBatch* batch) {
  if (log_ == nullptr) return Status::OK();  // in-memory: nothing to recover
  Status s = log_->Append(EncodeRecord(type, txn_id, batch));
  if (s.ok()) s = log_->Sync();
  if (!s.ok()) {
    return Status::IOError("txn log append failed: " + s.message());
  }
  return Status::OK();
}

Status TxnParticipant::Recover() {
  if (!status_.ok()) return status_;
  if (dir_.empty()) return Status::OK();
  // A stale compaction temp file is a crash artifact: either the rename
  // never happened (txn.log is still the complete old log) or it
  // happened and this is a leftover name. Either way it is dead bytes.
  const std::string tmp_path = path_ + ".tmp";
  if (env_->FileExists(tmp_path)) {
    Status s = env_->DeleteFile(tmp_path);
    if (!s.ok() && !s.IsNotFound()) return s;
  }
  std::string contents;
  Status read_status = env_->ReadFileToString(path_, &contents);
  if (!read_status.ok() && !read_status.IsNotFound()) return read_status;
  std::vector<Slice> records;
  uint64_t consumed = 0;
  Status s = ReadRecordFrames(contents, path_, &records, &consumed);
  if (!s.ok()) return s;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Slice& payload : records) {
    uint8_t type = 0;
    uint64_t txn_id = 0;
    Slice body = payload;
    if (!GetByte(&body, &type).ok() || !GetFixed64(&body, &txn_id).ok()) {
      return Status::Corruption("short txn log record");
    }
    switch (type) {
      case kPrepareRecord: {
        PreparedTxn prepared;
        s = WriteBatch::Decode(body, &prepared.batch);
        if (!s.ok()) return s;
        // Recovered in-doubt txns age from restart, so the timeout sweep
        // gives the coordinator a full window to resolve them.
        prepared.since_ms = NowMs();
        prepared_[txn_id] = std::move(prepared);
        break;
      }
      case kCommitRecord:
      case kAbortRecord:
        // The decision survives as a tombstone: a coordinator retry
        // after this restart must learn the true outcome, not NotFound.
        prepared_.erase(txn_id);
        RecordResolvedLocked(txn_id, type == kCommitRecord);
        break;
      default:
        return Status::Corruption("unknown txn log record type " +
                                  std::to_string(type));
    }
  }
  // The survivors are the in-doubt set: voted yes, never heard the
  // outcome. Re-take their key locks until the coordinator resolves
  // them (or the timeout sweep aborts them).
  for (const auto& [txn_id, prepared] : prepared_) {
    LockKeysLocked(txn_id, prepared.batch);
  }
  PublishCountLocked();
  // Compact when the file differs from the surviving state: a decision
  // superseded a prepare, a tombstone aged out, or the tail was torn
  // (appending after garbage would make every later record
  // unreachable). A canonical log reopens for append untouched.
  if (consumed < contents.size() ||
      records.size() != prepared_.size() + resolved_.size()) {
    s = CompactLocked();
    if (!s.ok()) return s;
  }
  s = env_->NewWritableLog(path_, &log_);
  if (!s.ok()) {
    return Status::IOError("cannot open txn log: " + path_ + ": " +
                           s.message());
  }
  return Status::OK();
}

// Never rewrites txn.log in place: a crash mid-rewrite would lose durably
// promised yes votes. Runs inside Recover, after the stale temp file is
// gone and before the log is open.
Status TxnParticipant::CompactLocked() {
  const std::string tmp_path = path_ + ".tmp";
  std::unique_ptr<WritableLog> out;
  Status s = env_->NewWritableLog(tmp_path, &out);
  if (!s.ok()) {
    return Status::IOError("cannot open txn log temp: " + tmp_path + ": " +
                           s.message());
  }
  for (const auto& [txn_id, prepared] : prepared_) {
    s = out->Append(EncodeRecord(kPrepareRecord, txn_id, &prepared.batch));
    if (!s.ok()) return s;
  }
  for (uint64_t txn_id : resolved_order_) {
    auto it = resolved_.find(txn_id);
    if (it == resolved_.end()) continue;
    s = out->Append(EncodeRecord(it->second ? kCommitRecord : kAbortRecord,
                                 txn_id, nullptr));
    if (!s.ok()) return s;
  }
  s = out->Sync();
  if (s.ok()) s = out->Close();
  if (!s.ok()) return s;
  s = env_->Rename(tmp_path, path_);
  if (!s.ok()) return s;
  return env_->SyncDir(dir_);
}

}  // namespace spitz
