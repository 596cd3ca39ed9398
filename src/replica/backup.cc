#include "replica/backup.h"

#include "common/codec.h"
#include "replica/record.h"

namespace spitz {

Status BackupReplica::Options::Validate() const {
  if (db == nullptr) return Status::InvalidArgument("options.db must be set");
  return Status::OK();
}

BackupReplica::BackupReplica() = default;

Status BackupReplica::Open(const Options& options,
                           std::unique_ptr<BackupReplica>* out) {
  Status s = options.Validate();
  if (!s.ok()) return s;
  auto replica = std::unique_ptr<BackupReplica>(new BackupReplica());
  replica->options_ = options;
  replica->db_ = options.db;
  replica->batches_applied_ =
      replica->registry_.counter("replica.backup.batches_applied");
  replica->entries_applied_ =
      replica->registry_.counter("replica.backup.entries_applied");
  replica->duplicate_batches_ =
      replica->registry_.counter("replica.backup.duplicate_batches");
  replica->digest_mismatches_ =
      replica->registry_.counter("replica.backup.digest_mismatches");
  replica->rejected_after_promote_ =
      replica->registry_.counter("replica.backup.rejected_after_promote");
  replica->applied_blocks_ =
      replica->registry_.gauge("replica.backup.applied_blocks");
  replica->role_ = replica->registry_.gauge("replica.backup.role");
  replica->apply_ns_ = replica->registry_.histogram("replica.backup.apply_ns");
  replica->applied_blocks_->Set(options.db->Digest().journal.block_count);
  *out = std::move(replica);
  return Status::OK();
}

namespace {

// A digest shaped as an ack: the backup's own state.
wire::ReplicaAck AckOf(const SpitzDigest& digest) {
  wire::ReplicaAck ack;
  ack.applied_blocks = digest.journal.block_count;
  ack.index_root = digest.index_root;
  ack.tip_hash = digest.journal.tip_hash;
  return ack;
}

}  // namespace

wire::ReplicaAck BackupReplica::Applied() const {
  std::lock_guard<std::mutex> lock(apply_mu_);
  return AckOf(db_->Digest());
}

Status BackupReplica::HandleReplicate(const Slice& request,
                                      std::string* response) {
  ScopedTimer timer(apply_ns_);
  std::lock_guard<std::mutex> lock(apply_mu_);
  if (promoted_.load(std::memory_order_acquire)) {
    // A promoted node has (or may have) taken its own writes; a
    // replicated block can no longer agree with its state, so the
    // stream is dead — the old primary must be demoted or re-seeded.
    rejected_after_promote_->Increment();
    return Status::Aborted("replica was promoted; replication stream closed");
  }
  // Decoded in full first, a duplicate included: a request that is not
  // one well-formed record is never acked.
  ReplicationRecord record;
  wire::ReplicaAck ack;
  Status s = DecodeReplicationRecord(request, &record);
  if (s.ok() && record.block.height() < db_->Digest().journal.block_count) {
    // Duplicate delivery: the primary re-ships after a lost ack. Re-ack
    // from history — the database already holds this block, and the
    // historical root/tip let the primary run its usual agreement
    // check against the re-ack.
    s = SealedBlockAck(*db_, record.block.height(), &ack);
    if (s.ok()) duplicate_batches_->Increment();
  } else if (s.ok()) {
    SpitzDigest applied;
    s = db_->ApplySealedBlock(record.block, record.serialized, record.ops,
                              options_.sync_applies, &applied);
    if (s.ok()) {
      ack = AckOf(applied);
      batches_applied_->Increment();
      entries_applied_->Increment(record.block.entries().size());
      applied_blocks_->Set(ack.applied_blocks);
    }
  }
  if (s.IsVerificationFailed()) digest_mismatches_->Increment();
  if (s.ok()) ack.EncodeTo(response);
  return s;
}

Status BackupReplica::HandleAck(std::string* response) {
  Applied().EncodeTo(response);
  return Status::OK();
}

Status BackupReplica::HandleStatus(const Slice& request,
                                   std::string* response) {
  Slice input = request;
  uint8_t command = 0;
  Status s = GetByte(&input, &command);
  if (s.ok()) s = CheckConsumed(input, "the command byte");
  if (!s.ok()) {
    return Status::InvalidArgument(
        "replica status request is one command byte: " + s.message());
  }
  switch (command) {
    case wire::kReplicaStatusQuery:
      break;
    case wire::kReplicaStatusPromote:
      Promote();
      break;
    default:
      return Status::InvalidArgument("unknown replica status command");
  }
  wire::ReplicaStatusResult result;
  result.role = IsBackup() ? 0 : 1;
  result.applied = Applied();
  result.digest_mismatches = digest_mismatches_->value();
  result.applied_entries = db_->Digest().journal.entry_count;
  result.EncodeTo(response);
  return Status::OK();
}

void BackupReplica::Promote() {
  // Taking apply_mu_ waits out an in-flight apply, so promotion is a
  // clean cut: every block is either fully applied-and-acked before
  // the flip, or rejected with Aborted after it.
  std::lock_guard<std::mutex> lock(apply_mu_);
  promoted_.store(true, std::memory_order_release);
  role_->Set(1);
}

}  // namespace spitz
