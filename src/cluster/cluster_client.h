#ifndef SPITZ_CLUSTER_CLUSTER_CLIENT_H_
#define SPITZ_CLUSTER_CLUSTER_CLIENT_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster_digest.h"
#include "cluster/coordinator.h"
#include "core/verified_kv.h"
#include "net/spitz_client.h"

namespace spitz {

// ---------------------------------------------------------------------------
// ClusterClient — a sharded Spitz cluster behind the one VerifiedKv
// surface. Keys route by the shared partition function (the same one
// the coordinator uses); cross-shard batches commit via 2PC, and a
// batch's read set makes a read-modify-write serializable (Write);
// verified reads and scans check out against a single cluster root
// digest.
//
// Verified read protocol (Get/Scan with ReadOptions::verify):
//
//   1. snapshot: fetch every shard's digest, Merkle them into one
//      ClusterDigest (its root is the hash the caller can retain);
//   2. prove: ask the owning shard (all shards, for a scan) for a
//      proof pinned at exactly the index root its digest named
//      (kGetProofAt/kScanProofAt) — concurrent commits cannot skew it;
//   3. verify locally against the pinned shard digest, whose bytes the
//      cluster root commits.
//
// A proof that fails because the pinned root aged out of a busy
// shard's version-retention window is retried with a fresh snapshot
// (Options::verify_retries); a proof that fails because rows and hash
// disagree keeps failing and surfaces as VerificationFailed.
//
// Scans fan out to every shard at the pinned roots, verify per shard
// (and that the shard owns every row it proved), then merge-sort by key
// and truncate to `limit` — each shard proved its first `limit`
// in-range rows, so the global first `limit` rows are covered by proofs.
//
// Replicated shards: Options::backups names each shard's backup
// endpoint. A snapshot holds one digest per shard, from the node
// that will serve that shard's proofs; a live primary's backup is asked
// nothing. When a primary is unreachable the client fails over for
// reads — the shard's slot in the snapshot is pinned at the backup's
// *last-agreed* digest and proofs are fetched from the backup over the
// same pinned-root methods, so every post-failover read still verifies.
// Writes keep failing until Promote(shard) flips the backup to
// primary-for-writes (the planned path first drains the primary-side
// Replicator; an unplanned failover bounds loss at the unacked tail —
// see DESIGN.md §15).
//
// Thread-safe: routing state is immutable after Open except the
// per-shard promoted flag (atomic) and the coordinator, which is
// rebuilt under a mutex on promotion.
// ---------------------------------------------------------------------------
class ClusterClient : public VerifiedKv {
 public:
  struct Options {
    Options() {}
    // One endpoint per shard, in partition order — must match the
    // server-side deployment on every client, or routes diverge.
    // Open probes every endpoint (handshake + one digest round trip)
    // so a dead or misordered list fails fast, tagged with the shard
    // index.
    std::vector<NetClient::Options> shards;
    // Optional backup endpoint per shard (empty, or shards.size()
    // long; port 0 = that shard is unreplicated). Each must front a
    // BackupReplica (advertise kFeatureReplication).
    std::vector<NetClient::Options> backups;
    // Per-endpoint deadline for the open-time liveness probe; 0 skips
    // the probe entirely (for deployments that open clients before
    // every shard is up and accept lazy failures instead).
    uint64_t probe_deadline_ms = 2'000;
    // Fresh-snapshot retries for verified reads whose pinned root aged
    // out under write pressure.
    int verify_retries = 3;
    // Forwarded to ClusterCoordinator (0 = clock-derived).
    uint64_t txn_id_seed = 0;

    Status Validate() const;
  };

  static Status Open(const Options& options,
                     std::unique_ptr<ClusterClient>* out);

  ClusterClient(const ClusterClient&) = delete;
  ClusterClient& operator=(const ClusterClient&) = delete;

  // --- VerifiedKv ---------------------------------------------------------

  Status Put(const WriteOptions& options, const Slice& key,
             const Slice& value) override;
  Status Delete(const WriteOptions& options, const Slice& key) override;
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value) override;
  Status Scan(const ReadOptions& options, const Slice& start,
              const Slice& end, size_t limit,
              std::vector<PosEntry>* rows) override;
  // Evidence against the *cluster*: digest = ClusterDigest envelope,
  // proof = shard index + the shard's pinned-root proof. Verify with
  // VerifyClusterGetEvidence / VerifyClusterScanEvidence
  // (core/verifier.h).
  Status GetProof(const Slice& key, Evidence* out) override;
  Status ScanProof(const Slice& start, const Slice& end, size_t limit,
                   ScanEvidence* out) override;
  Status Digest(std::string* out) override;
  // Routes to the owning shard; empty key audits every shard's last
  // sealed block.
  Status Audit(const Slice& key) override;

  using VerifiedKv::Delete;
  using VerifiedKv::Get;
  using VerifiedKv::Put;
  using VerifiedKv::Scan;

  // --- Cluster surface ----------------------------------------------------

  // Atomic cross-shard write: splits writes and read set by partition,
  // one-phase on a single shard, 2PC otherwise. Aborted when a read in
  // the batch's read set is stale: re-read and retry.
  Status Write(const WriteOptions& options, const WriteBatch& batch);

  // Captures a fresh cluster snapshot (per-shard digests + root).
  Status GetClusterDigest(ClusterDigest* out);

  // Makes shard `shard`'s backup the new primary for writes: sends the
  // promote command, verifies the role flipped, and reroutes writes
  // and 2PC (the coordinator is rebuilt) to the backup. The planned
  // path calls Replicator::WaitDrained on the primary first; after an
  // unplanned primary death the unacked tail is lost by design.
  // Idempotent.
  Status Promote(size_t shard);
  bool promoted(size_t shard) const {
    return promoted_[shard].load(std::memory_order_acquire);
  }
  bool has_backup(size_t shard) const {
    return shard < backups_.size() && backups_[shard] != nullptr;
  }

  size_t shard_count() const { return shards_.size(); }
  SpitzClient* shard(size_t i) { return shards_[i].get(); }
  SpitzClient* backup_shard(size_t i) { return backups_[i].get(); }
  // Test/inspection only; racy against a concurrent Promote().
  ClusterCoordinator* coordinator() {
    std::lock_guard<std::mutex> lock(route_mu_);
    return coordinator_.get();
  }

 private:
  ClusterClient() = default;

  // One pinned snapshot: the cluster digest plus, per shard, the node
  // (primary, or backup after failover) whose digest fills that leaf —
  // proofs for this snapshot must come from the same node.
  struct ClusterSnapshot {
    ClusterDigest digest;
    std::vector<SpitzClient*> readers;
  };
  Status TakeSnapshot(ClusterSnapshot* out);

  // One digest round trip with a single transparent reconnect.
  static Status FetchShardDigest(SpitzClient* client, SpitzDigest* out);
  static bool IsConnectionError(const Status& s) {
    return s.IsIOError() || s.IsUnavailable() || s.IsTimedOut();
  }

  // Where writes for shard i go: the primary, or the backup once
  // promoted.
  SpitzClient* WriteClient(size_t i) {
    return promoted(i) ? backups_[i].get() : shards_[i].get();
  }

  // One verified-read attempt at a fresh snapshot (protocol above), the
  // routine behind both Get/Scan with verify and GetProof/ScanProof,
  // which only encode the verified result.
  struct VerifiedGetResult {
    ClusterDigest digest;
    size_t shard = 0;
    std::optional<std::string> value;
    ReadProof proof;
  };
  Status GetAttempt(const Slice& key, VerifiedGetResult* out);
  struct VerifiedScanResult {
    ClusterDigest digest;
    std::vector<std::vector<PosEntry>> rows;  // per shard
    std::vector<spitz::ScanProof> proofs;     // per shard
  };
  Status ScanAttempt(const Slice& start, const Slice& end, size_t limit,
                     VerifiedScanResult* out);
  template <typename Attempt>
  Status WithRetries(Attempt attempt);

  std::vector<std::unique_ptr<SpitzClient>> shards_;
  // backups_[i] == nullptr when shard i is unreplicated; empty when no
  // backups were configured at all.
  std::vector<std::unique_ptr<SpitzClient>> backups_;
  // Never resized after Open (atomics don't relocate).
  std::vector<std::atomic<bool>> promoted_;
  std::mutex route_mu_;  // guards coordinator_ rebuild on promotion
  std::shared_ptr<ClusterCoordinator> coordinator_;
  int verify_retries_ = 3;
};

}  // namespace spitz

#endif  // SPITZ_CLUSTER_CLUSTER_CLIENT_H_
