#ifndef SPITZ_REPLICA_BACKUP_H_
#define SPITZ_REPLICA_BACKUP_H_

#include <atomic>
#include <memory>
#include <mutex>

#include "common/metrics.h"
#include "common/status.h"
#include "core/spitz_db.h"
#include "net/spitz_server.h"
#include "net/spitz_wire.h"

namespace spitz {

// ---------------------------------------------------------------------------
// BackupReplica — the backup half of per-shard primary-backup
// replication (DESIGN.md §15). Wired into a SpitzServer via
// Options::replica, it serves the three protocol-v3 methods:
//
//   kReplicate     apply one sealed-block record into the backup's own
//                  SpitzDb. The database independently re-derives the
//                  index root from the shipped operations; only if that
//                  root equals the sealed root in the record does the
//                  apply land (VerificationFailed otherwise — the hard,
//                  metric-counted digest-mismatch fault). The ack
//                  carries the backup's own derived root and journal
//                  tip, which the primary cross-checks in turn.
//   kReplicaAck    report the latest applied state — the primary's
//                  resume point after a reconnect.
//   kReplicaStatus query role/progress, or promote.
//
// Promotion flips the node from read-only backup to primary-for-writes:
// the fronting SpitzServer stops rejecting write methods (IsBackup()
// goes false) and any further kReplicate is hard-rejected with Aborted —
// once the backup has diverged by taking its own writes, replicated
// blocks can no longer agree with its state.
//
// Duplicate deliveries (the primary re-ships after an ack was lost in a
// connection drop) are idempotent: a record of an already-applied height
// is re-acked from history without touching the database — once it
// decodes in full (replica/record.h); a malformed one is never acked.
//
// Thread-safe; applies are serialized on one internal mutex.
// ---------------------------------------------------------------------------
class BackupReplica : public ReplicaService {
 public:
  struct Options {
    Options() {}
    // The backup's own database. Must start at the same state the
    // primary's replication stream resumes from (usually empty, or a
    // restart of a previous backup of the same primary). Must outlive
    // the replica.
    SpitzDb* db = nullptr;
    // Fsync each applied block before acking. Leave on for durable
    // databases: an acked block the primary will never re-ship must
    // survive a backup crash.
    bool sync_applies = true;

    Status Validate() const;
  };

  static Status Open(const Options& options,
                     std::unique_ptr<BackupReplica>* out);

  BackupReplica(const BackupReplica&) = delete;
  BackupReplica& operator=(const BackupReplica&) = delete;

  // --- ReplicaService -----------------------------------------------------
  bool IsBackup() const override {
    return !promoted_.load(std::memory_order_acquire);
  }
  Status HandleReplicate(const Slice& request, std::string* response) override;
  Status HandleAck(std::string* response) override;
  Status HandleStatus(const Slice& request, std::string* response) override;

  // In-process promotion (the wire path is HandleStatus with
  // wire::kReplicaStatusPromote). Waits out any in-flight apply, then
  // makes the node writable and hard-rejects further replication.
  // Idempotent.
  void Promote();
  bool promoted() const { return !IsBackup(); }

  // The latest applied state: block count plus the independently
  // derived index root and journal tip at that height.
  wire::ReplicaAck Applied() const;

  uint64_t digest_mismatches() const { return digest_mismatches_->value(); }

  // replica.backup.* counters/gauges.
  MetricsSnapshot Metrics() const { return registry_.Snapshot(); }

 private:
  BackupReplica();

  Options options_;
  SpitzDb* db_ = nullptr;
  std::atomic<bool> promoted_{false};
  // Serializes applies, and Promote() against an in-flight apply.
  mutable std::mutex apply_mu_;

  MetricsRegistry registry_;
  Counter* batches_applied_ = nullptr;
  Counter* entries_applied_ = nullptr;
  Counter* duplicate_batches_ = nullptr;
  Counter* digest_mismatches_ = nullptr;
  Counter* rejected_after_promote_ = nullptr;
  Gauge* applied_blocks_ = nullptr;
  Gauge* role_ = nullptr;  // 0 = backup, 1 = promoted
  Histogram* apply_ns_ = nullptr;
};

}  // namespace spitz

#endif  // SPITZ_REPLICA_BACKUP_H_
