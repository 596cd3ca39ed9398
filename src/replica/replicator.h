#ifndef SPITZ_REPLICA_REPLICATOR_H_
#define SPITZ_REPLICA_REPLICATOR_H_

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "common/metrics.h"
#include "common/status.h"
#include "core/spitz_db.h"
#include "net/spitz_client.h"

namespace spitz {

// ---------------------------------------------------------------------------
// Replicator — the primary half of per-shard primary-backup
// replication (DESIGN.md §15). Opened against the primary's SpitzDb
// and the backup's endpoint, it:
//
//   1. subscribes to the database's seal notifications
//      (SpitzDb::SetSealListener), so a group-commit seal wakes the
//      stream thread — the only wake-up it has besides Stop;
//   2. ships each sealed block as a self-verifying replication record
//      (EncodeReplicationRecord, replica/record.h) over wire::kReplicate;
//   3. checks every ack: the backup's independently derived index root
//      and journal tip must equal those of the block just shipped.
//      Disagreement is the replication fault — a hard, sticky,
//      metric-counted error (replica.primary.digest_mismatches), never
//      a warning. The stream stops; the pair needs operator attention
//      (one of the two databases is corrupt or diverged).
//
// Connection loss is one recoverable failure: the replicator redials
// with backoff, re-queries the backup's applied state
// (wire::kReplicaAck) and resumes from there — a record whose ack was
// lost in the drop is re-shipped and idempotently re-acked. The other
// is a failed local read (IOError from journal.log or a chunk segment
// while encoding a record): the same block is retried after the same
// backoff, on the same connection (replica.primary.read_retries). A
// block whose bytes fail their CRC or hash (Corruption) is never
// shipped: it faults the stream like a digest mismatch.
//
// WaitDrained() blocks until every currently sealed block is acked —
// the precondition for planned promotion (unplanned failover instead
// bounds loss at the unacked tail; see DESIGN.md §15).
// ---------------------------------------------------------------------------
class Replicator {
 public:
  struct Options {
    Options() {}
    // The primary database to stream from. Must outlive the replicator.
    SpitzDb* db = nullptr;
    // The backup endpoint (a SpitzServer wired to a BackupReplica; its
    // handshake must advertise kFeatureReplication).
    NetClient::Options backup;
    // Backoff before a redial after a connection drop, and before
    // retrying a block whose local read failed.
    uint64_t reconnect_backoff_ms = 50;

    Status Validate() const;
  };

  // Connects, verifies the feature bit, queries the backup's resume
  // point, cross-checks it against the local ledger (a backup claiming
  // a different history than ours is a fault at open, not at first
  // ship), and spawns the stream thread.
  static Status Open(const Options& options, std::unique_ptr<Replicator>* out);

  ~Replicator();

  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  // Detaches the seal listener and joins the stream thread. Idempotent.
  void Stop();

  // Blocks until every block sealed at call time is acked, the stream
  // faults, or the timeout expires (TimedOut). timeout_ms = 0 waits
  // forever.
  Status WaitDrained(uint64_t timeout_ms);

  // OK while the stream is healthy (including mid-reconnect); the
  // sticky fault once digest agreement broke or the backup rejected
  // the stream (e.g. promoted under us).
  Status ReplicationFault() const;

  // Blocks sealed by the primary that the backup has acked.
  uint64_t acked_blocks() const;

  // replica.primary.* counters, gauges and the lag histogram.
  MetricsSnapshot Metrics() const;

 private:
  Replicator() = default;

  void StreamLoop();
  // Encode + ship + verify one block. Returns the encode, RPC or verify
  // status; *read_failed is set when the encode's local read failed
  // with IOError (retried by the caller in place). Connection errors are
  // retried after a redial; everything else faults the stream.
  Status ShipOne(uint64_t height, bool* read_failed);
  // Redial until connected or Stop(); re-learns the resume point.
  // Returns false when stopping.
  bool ReconnectLocked(std::unique_lock<std::mutex>* lock);
  // Validates the backup's claimed applied state against the local
  // ledger; the stream resumes at ack.applied_blocks.
  Status ResumeFromAck(const wire::ReplicaAck& ack);

  static bool IsConnectionError(const Status& s) {
    return s.IsIOError() || s.IsUnavailable() || s.IsTimedOut();
  }

  Options options_;
  SpitzDb* db_ = nullptr;
  std::unique_ptr<SpitzClient> client_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool stopped_ = false;  // Stop() ran (listener detached, thread joined)
  uint64_t sealed_hint_ = 0;  // latest seal notification
  uint64_t next_height_ = 0;  // next block to ship
  uint64_t acked_ = 0;        // blocks acked by the backup
  Status fault_;              // sticky; OK while healthy
  // Seal timestamps (height, MonotonicNanos at seal) for blocks sealed
  // while we were subscribed — feeds the replication-lag histogram.
  std::deque<std::pair<uint64_t, uint64_t>> seal_times_;

  std::thread thread_;

  MetricsRegistry registry_;
  Counter* batches_shipped_ = nullptr;
  Counter* batches_acked_ = nullptr;
  Counter* digest_mismatches_ = nullptr;
  Counter* reconnects_ = nullptr;
  Counter* read_retries_ = nullptr;
  Gauge* lag_blocks_ = nullptr;
  Histogram* lag_ns_ = nullptr;
  Histogram* ship_ns_ = nullptr;
};

}  // namespace spitz

#endif  // SPITZ_REPLICA_REPLICATOR_H_
