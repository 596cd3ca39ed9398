#include "cluster/coordinator.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <random>
#include <thread>

#include "cluster/partition.h"
#include "common/clock.h"

namespace spitz {

namespace {

// How many times a durable commit decision is re-pushed at a shard
// whose commit RPC failed before the driver gives up and leaves the
// shard in-doubt (its sweeper or ResolveInDoubt takes it from there).
constexpr int kCommitRetries = 3;

// Phase-2 retry backoff: bounded exponential, starting small enough
// that a transient hiccup costs almost nothing and capped well below
// the participants' presumed-abort sweeper timeout (which must
// dominate total coordinator retry time — see the failure matrix in
// coordinator.h). Total worst-case sleep across kCommitRetries is
// 2 + 8 + 32 = 42ms.
constexpr uint64_t kCommitBackoffInitialMs = 2;
constexpr uint64_t kCommitBackoffMultiplier = 4;
constexpr uint64_t kCommitBackoffCapMs = 100;

// Random 64-bit starting id. Clock-derived seeds collide whenever two
// coordinators start in the same microsecond (and shifting the clock
// discards its high bits anyway); a random draw makes a collision —
// which a participant now rejects as InvalidArgument rather than
// silently cross-wiring batches — negligibly likely.
uint64_t RandomTxnSeed() {
  std::random_device rd;
  std::mt19937_64 gen((static_cast<uint64_t>(rd()) << 32) ^ rd() ^
                      NowMicros());
  uint64_t seed = gen();
  return seed != 0 ? seed : 1;
}

}  // namespace

ClusterCoordinator::ClusterCoordinator(std::vector<SpitzClient*> shards,
                                       uint64_t txn_id_seed)
    : shards_(std::move(shards)),
      next_txn_id_(txn_id_seed != 0 ? txn_id_seed : RandomTxnSeed()) {
  commits_1pc_ = registry_.counter("cluster.coordinator.commits_1pc");
  commits_2pc_ = registry_.counter("cluster.coordinator.commits_2pc");
  aborts_ = registry_.counter("cluster.coordinator.aborts");
  in_doubt_resolved_ = registry_.counter("cluster.coordinator.in_doubt_resolved");
  commit_retries_ = registry_.counter("cluster.coordinator.commit_retries");
}

Status ClusterCoordinator::CommitBatch(const WriteOptions& options,
                                       const WriteBatch& batch) {
  if (shards_.empty()) return Status::InvalidArgument("no shards");
  if (batch.empty()) return Status::OK();

  // Split by the shared partition function — the same routing every
  // reader uses, so a batch's writes land where its readers will look
  // and each read is validated by the shard that owns its key. A shard
  // that is only read still votes: its prepare locks the read keys.
  std::map<size_t, WriteBatch> parts;
  for (const WriteBatch::Op& op : batch.ops()) {
    WriteBatch& part = parts[PartitionOf(op.key, shards_.size())];
    if (op.type == WriteBatch::OpType::kPut) {
      part.Put(op.key, op.value);
    } else {
      part.Delete(op.key);
    }
  }
  for (const WriteBatch::Read& read : batch.reads()) {
    parts[PartitionOf(read.key, shards_.size())].Expect(read);
  }

  if (parts.size() == 1) {
    // One-phase fast path: a single shard's kWrite is already atomic,
    // and the shard checks the read set where it applies the writes.
    Status s = shards_[parts.begin()->first]->Write(options,
                                                    parts.begin()->second);
    if (s.ok()) commits_1pc_->Increment();
    return s;
  }

  const uint64_t txn_id = NextTxnId();

  // Phase 1: collect durable votes. First failure aborts everything
  // prepared so far — including the failing shard, whose vote may have
  // landed even though its reply did not.
  std::vector<size_t> prepared;
  for (const auto& [shard, part] : parts) {
    Status s = shards_[shard]->TxnPrepare(txn_id, part);
    if (!s.ok()) {
      for (size_t p : prepared) shards_[p]->TxnAbort(txn_id);
      shards_[shard]->TxnAbort(txn_id);
      aborts_->Increment();
      return s;
    }
    prepared.push_back(shard);
  }

  if (between_phases_hook_) between_phases_hook_();

  // Phase 2: the decision is commit from here on — never abort a shard
  // past this point. A failed commit RPC is retried with bounded
  // exponential backoff — and through a fresh connection when the old
  // one broke (a NetClient is sticky-broken forever, so back-to-back
  // retries on it all fail in microseconds; Reconnect() is what lets a
  // bounced shard actually heal). A shard that stays unreachable keeps
  // the transaction in-doubt (prepared + durable) until a later
  // TxnCommit for this id lands or an operator resolves it.
  Status result = Status::OK();
  for (size_t shard : prepared) {
    Status s;
    uint64_t backoff_ms = kCommitBackoffInitialMs;
    for (int attempt = 0; attempt <= kCommitRetries; attempt++) {
      if (attempt > 0) {
        commit_retries_->Increment();
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
        backoff_ms = std::min(backoff_ms * kCommitBackoffMultiplier,
                              kCommitBackoffCapMs);
        // No-op on a healthy connection; dials a fresh one when the
        // failed attempt poisoned it. A failed redial is fine — the
        // TxnCommit below fails fast and the next attempt redials.
        shards_[shard]->Reconnect();
      }
      s = shards_[shard]->TxnCommit(txn_id);
      // OK covers the retried case too: a participant remembers a
      // committed outcome (durable tombstone) and answers OK again.
      // Aborted / NotFound are terminal answers, not RPC failures —
      // retrying cannot change them.
      if (s.ok() || s.IsAborted() || s.IsNotFound()) break;
    }
    if (s.IsAborted() || s.IsNotFound()) {
      // The shard resolved this txn by abort (its presumed-abort
      // sweeper, or a takeover coordinator's ResolveInDoubt) — or no
      // longer knows it at all — while the decision here was commit.
      // Its writes are gone although other shards applied theirs:
      // atomicity is broken and must surface as a hard failure, never
      // as success. Keep pushing the decision to the remaining shards
      // (they are still bound by their yes votes).
      result = Status::Aborted(
          "cross-shard atomicity violation: shard " + std::to_string(shard) +
          " resolved txn " + std::to_string(txn_id) +
          " against the commit decision: " + s.ToString());
      continue;
    }
    if (!s.ok() && result.ok()) {
      result = Status::Unavailable("commit decision not yet applied on shard " +
                                   std::to_string(shard) + ": " + s.ToString());
    }
  }
  if (result.ok()) commits_2pc_->Increment();
  return result;
}

Status ClusterCoordinator::ResolveInDoubt(size_t* aborted) {
  size_t total = 0;
  Status result = Status::OK();
  for (size_t shard = 0; shard < shards_.size(); shard++) {
    std::vector<uint64_t> txn_ids;
    Status s = shards_[shard]->TxnInDoubt(&txn_ids);
    if (!s.ok()) {
      if (result.ok()) result = s;
      continue;
    }
    for (uint64_t txn_id : txn_ids) {
      s = shards_[shard]->TxnAbort(txn_id);
      if (s.ok()) {
        total++;
        in_doubt_resolved_->Increment();
      } else if (!s.IsNotFound() && !s.IsBusy() && result.ok()) {
        // NotFound: already resolved elsewhere. Busy: a commit decision
        // is being applied right now — the txn is not an orphan, leave
        // it to its coordinator.
        result = s;
      }
    }
  }
  if (aborted != nullptr) *aborted = total;
  return result;
}

}  // namespace spitz
