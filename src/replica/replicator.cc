#include "replica/replicator.h"

#include <chrono>

#include "common/clock.h"
#include "net/frame.h"
#include "replica/record.h"

namespace spitz {

namespace {
// Seal timestamps kept for lag measurement; beyond this the oldest are
// dropped (their blocks still ship, they just skip the histogram).
constexpr size_t kMaxSealTimes = 4096;
}  // namespace

Status Replicator::Options::Validate() const {
  if (db == nullptr) return Status::InvalidArgument("options.db must be set");
  if (reconnect_backoff_ms == 0) {
    return Status::InvalidArgument("reconnect_backoff_ms must be positive");
  }
  return Status::OK();
}

Status Replicator::Open(const Options& options,
                        std::unique_ptr<Replicator>* out) {
  Status s = options.Validate();
  if (!s.ok()) return s;
  auto rep = std::unique_ptr<Replicator>(new Replicator());
  rep->options_ = options;
  rep->db_ = options.db;

  SpitzClient::Options client_options;
  client_options.net = options.backup;
  s = SpitzClient::Open(client_options, &rep->client_);
  if (!s.ok()) return s;
  if ((rep->client_->channel()->server_features() & kFeatureReplication) == 0) {
    return Status::InvalidArgument(
        "backup endpoint does not advertise replication (no BackupReplica "
        "wired into its server)");
  }

  rep->batches_shipped_ =
      rep->registry_.counter("replica.primary.batches_shipped");
  rep->batches_acked_ = rep->registry_.counter("replica.primary.batches_acked");
  rep->digest_mismatches_ =
      rep->registry_.counter("replica.primary.digest_mismatches");
  rep->reconnects_ = rep->registry_.counter("replica.primary.reconnects");
  rep->read_retries_ = rep->registry_.counter("replica.primary.read_retries");
  rep->lag_blocks_ = rep->registry_.gauge("replica.primary.lag_blocks");
  rep->lag_ns_ = rep->registry_.histogram("replica.primary.lag_ns");
  rep->ship_ns_ = rep->registry_.histogram("replica.primary.ship_ns");

  // Resume from whatever the backup already holds; a backup whose
  // claimed history disagrees with ours is a fault now, not at first
  // ship.
  wire::ReplicaAck ack;
  s = rep->client_->ReplicaAckQuery(&ack);
  if (!s.ok()) return s;
  s = rep->ResumeFromAck(ack);
  if (!s.ok()) return s;
  rep->next_height_ = rep->acked_ = ack.applied_blocks;
  rep->sealed_hint_ = options.db->Digest().journal.block_count;

  Replicator* raw = rep.get();
  options.db->SetSealListener([raw](uint64_t sealed) {
    const uint64_t now = MonotonicNanos();
    std::lock_guard<std::mutex> lock(raw->mu_);
    for (uint64_t h = raw->sealed_hint_; h < sealed; h++) {
      raw->seal_times_.emplace_back(h, now);
    }
    while (raw->seal_times_.size() > kMaxSealTimes) {
      raw->seal_times_.pop_front();
    }
    if (sealed > raw->sealed_hint_) raw->sealed_hint_ = sealed;
    raw->cv_.notify_all();
  });
  rep->thread_ = std::thread([raw] { raw->StreamLoop(); });
  *out = std::move(rep);
  return Status::OK();
}

Replicator::~Replicator() { Stop(); }

void Replicator::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
    stop_ = true;
  }
  cv_.notify_all();
  // Detach before joining so no seal notification fires into a
  // half-destroyed replicator.
  db_->SetSealListener(nullptr);
  if (thread_.joinable()) thread_.join();
}

Status Replicator::ResumeFromAck(const wire::ReplicaAck& ack) {
  // The backup's applied state must be a prefix of our ledger: the
  // block it claims to have applied last must have our root and hash.
  wire::ReplicaAck expected;
  if (ack.applied_blocks > 0 &&
      (!SealedBlockAck(*db_, ack.applied_blocks - 1, &expected).ok() ||
       ack != expected)) {
    digest_mismatches_->Increment();
    return Status::VerificationFailed(
        "backup's applied state (" + std::to_string(ack.applied_blocks) +
        " blocks) is not a prefix of the primary's ledger — it replicates "
        "a different primary or a diverged history");
  }
  return Status::OK();
}

Status Replicator::ShipOne(uint64_t height, bool* read_failed) {
  ScopedTimer timer(ship_ns_);
  std::string record;
  Block block;
  Status s = EncodeReplicationRecord(*db_, height, &record, &block);
  *read_failed = s.IsIOError();
  if (!s.ok()) return s;
  batches_shipped_->Increment();
  wire::ReplicaAck ack;
  s = client_->Replicate(record, &ack);
  if (!s.ok()) return s;
  // The agreement check: the backup's independently derived state at
  // this height must equal the block just shipped. Tip-hash equality
  // implies the whole chain matches (each block hash covers its
  // predecessor's).
  if (ack != BlockAck(block)) {
    digest_mismatches_->Increment();
    return Status::VerificationFailed(
        "replication digest mismatch at block " + std::to_string(height) +
        ": the backup's independently derived root disagrees with the "
        "primary's");
  }
  batches_acked_->Increment();
  return Status::OK();
}

bool Replicator::ReconnectLocked(std::unique_lock<std::mutex>* lock) {
  while (!stop_) {
    lock->unlock();
    reconnects_->Increment();
    Status s = client_->Reconnect();
    wire::ReplicaAck ack;
    if (s.ok()) s = client_->ReplicaAckQuery(&ack);
    if (s.ok()) {
      // The record whose ack was lost in the drop may or may not have
      // applied; the backup's own count says which, and a re-ship of
      // an applied height is idempotently re-acked.
      Status rs = ResumeFromAck(ack);
      lock->lock();
      if (!rs.ok()) {
        fault_ = rs;
        cv_.notify_all();
        return false;
      }
      next_height_ = acked_ = ack.applied_blocks;
      cv_.notify_all();
      return true;
    }
    lock->lock();
    if (stop_) return false;
    cv_.wait_for(*lock,
                 std::chrono::milliseconds(options_.reconnect_backoff_ms),
                 [&] { return stop_; });
  }
  return false;
}

void Replicator::StreamLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    // The listener only covers seals after subscription; refresh from
    // the digest so blocks sealed before Open (or during a reconnect)
    // are picked up too.
    lock.unlock();
    const uint64_t sealed = db_->Digest().journal.block_count;
    lock.lock();
    if (sealed > sealed_hint_) sealed_hint_ = sealed;

    while (!stop_ && fault_.ok() && next_height_ < sealed_hint_) {
      const uint64_t h = next_height_;
      lock.unlock();
      bool read_failed = false;
      Status s = ShipOne(h, &read_failed);
      lock.lock();
      if (s.ok()) {
        next_height_ = h + 1;
        acked_ = h + 1;
        lag_blocks_->Set(sealed_hint_ - acked_);
        const uint64_t now = MonotonicNanos();
        while (!seal_times_.empty() && seal_times_.front().first <= h) {
          if (seal_times_.front().first == h) {
            lag_ns_->Record(now - seal_times_.front().second);
          }
          seal_times_.pop_front();
        }
        cv_.notify_all();
        continue;
      }
      if (read_failed) {
        // This node could not read the block; the connection is fine.
        read_retries_->Increment();
        cv_.wait_for(lock,
                     std::chrono::milliseconds(options_.reconnect_backoff_ms),
                     [&] { return stop_; });
        continue;
      }
      if (IsConnectionError(s)) {
        if (!ReconnectLocked(&lock)) return;
        continue;
      }
      // Digest mismatch, promoted backup, aged-out history: sticky.
      fault_ = s;
      cv_.notify_all();
      return;
    }
    if (!fault_.ok()) return;
    cv_.wait(lock, [&] { return stop_ || sealed_hint_ > next_height_; });
  }
}

Status Replicator::WaitDrained(uint64_t timeout_ms) {
  // Drained = every block sealed as of now is acked. Entries still in
  // the open (unsealed) group-commit batch are not covered; callers
  // who need them shipped flush first (SpitzDb::FlushBlock).
  const uint64_t target = db_->Digest().journal.block_count;
  std::unique_lock<std::mutex> lock(mu_);
  auto done = [&] { return stop_ || !fault_.ok() || acked_ >= target; };
  if (timeout_ms == 0) {
    cv_.wait(lock, done);
  } else if (!cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                           done)) {
    return Status::TimedOut("replication queue not drained within " +
                            std::to_string(timeout_ms) + "ms");
  }
  if (!fault_.ok()) return fault_;
  if (acked_ >= target) return Status::OK();
  return Status::Aborted("replicator stopped before draining");
}

Status Replicator::ReplicationFault() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fault_;
}

uint64_t Replicator::acked_blocks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return acked_;
}

MetricsSnapshot Replicator::Metrics() const { return registry_.Snapshot(); }

}  // namespace spitz
