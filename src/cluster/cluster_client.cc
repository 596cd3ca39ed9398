#include "cluster/cluster_client.h"

#include "cluster/partition.h"
#include "common/codec.h"
#include "net/frame.h"
#include "net/spitz_wire.h"

namespace spitz {

Status ClusterClient::Options::Validate() const {
  if (shards.empty()) {
    return Status::InvalidArgument("cluster needs at least one shard");
  }
  for (size_t i = 0; i < shards.size(); i++) {
    if (shards[i].port == 0) {
      return Status::InvalidArgument("shard " + std::to_string(i) +
                                     " endpoint has no port");
    }
  }
  if (!backups.empty() && backups.size() != shards.size()) {
    return Status::InvalidArgument(
        "backups must be empty or name one endpoint per shard (port 0 = "
        "unreplicated shard)");
  }
  if (verify_retries < 0) {
    return Status::InvalidArgument("verify_retries must be non-negative");
  }
  return Status::OK();
}

Status ClusterClient::Open(const Options& options,
                           std::unique_ptr<ClusterClient>* out) {
  Status s = options.Validate();
  if (!s.ok()) return s;
  auto client = std::unique_ptr<ClusterClient>(new ClusterClient());
  client->verify_retries_ = options.verify_retries;
  std::vector<SpitzClient*> raw;
  for (size_t i = 0; i < options.shards.size(); i++) {
    SpitzClient::Options shard_options;
    shard_options.net = options.shards[i];
    std::unique_ptr<SpitzClient> shard;
    s = SpitzClient::Open(shard_options, &shard);
    if (!s.ok()) return TagShard(i, s);
    // Liveness ping: one digest round trip (under its own short
    // deadline) proves the endpoint serves the Spitz surface, not
    // merely that something accepted the TCP connect — a dead or wrong
    // endpoint fails here, tagged with its shard index, instead of on
    // the first real operation.
    if (options.probe_deadline_ms > 0) {
      std::string probe;
      s = shard->channel()->Call(wire::kDigest, "", &probe,
                                 options.probe_deadline_ms);
      if (!s.ok()) return TagShard(i, s);
      // Misorder check: an endpoint serving the replication surface in
      // the backup role cannot be a primary — a backup listed in the
      // primary slot would reject every write.
      if ((shard->channel()->server_features() & kFeatureReplication) != 0) {
        std::string reply;
        s = shard->channel()->Call(
            wire::kReplicaStatus,
            std::string(1, static_cast<char>(wire::kReplicaStatusQuery)),
            &reply, options.probe_deadline_ms);
        wire::ReplicaStatusResult status;
        if (s.ok() && wire::DecodeReply(reply, &status).ok() &&
            status.role == 0) {
          return TagShard(
              i, Status::InvalidArgument(
                     "primary endpoint is an un-promoted backup — endpoint "
                     "list misordered?"));
        }
      }
    }
    raw.push_back(shard.get());
    client->shards_.push_back(std::move(shard));
  }
  client->backups_.resize(client->shards_.size());
  for (size_t i = 0; i < options.backups.size(); i++) {
    if (options.backups[i].port == 0) continue;
    SpitzClient::Options backup_options;
    backup_options.net = options.backups[i];
    std::unique_ptr<SpitzClient> backup;
    s = SpitzClient::Open(backup_options, &backup);
    if (!s.ok()) return TagShard(i, s);
    if ((backup->channel()->server_features() & kFeatureReplication) == 0) {
      return TagShard(i, Status::InvalidArgument(
                             "backup endpoint does not serve replication — "
                             "endpoint list misordered?"));
    }
    client->backups_[i] = std::move(backup);
  }
  client->promoted_ = std::vector<std::atomic<bool>>(client->shards_.size());
  client->coordinator_ = std::make_shared<ClusterCoordinator>(
      std::move(raw), options.txn_id_seed);
  *out = std::move(client);
  return Status::OK();
}

// --- Write path -------------------------------------------------------------

Status ClusterClient::Put(const WriteOptions& options, const Slice& key,
                          const Slice& value) {
  return WriteClient(PartitionOf(key, shards_.size()))->Put(options, key, value);
}

Status ClusterClient::Delete(const WriteOptions& options, const Slice& key) {
  return WriteClient(PartitionOf(key, shards_.size()))->Delete(options, key);
}

Status ClusterClient::Write(const WriteOptions& options,
                            const WriteBatch& batch) {
  std::shared_ptr<ClusterCoordinator> coordinator;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    coordinator = coordinator_;
  }
  return coordinator->CommitBatch(options, batch);
}

// --- Failover ---------------------------------------------------------------

Status ClusterClient::Promote(size_t shard) {
  if (shard >= shards_.size()) {
    return Status::InvalidArgument("shard index out of range");
  }
  if (!has_backup(shard)) {
    return TagShard(shard,
                    Status::InvalidArgument("shard has no backup to promote"));
  }
  if (promoted(shard)) return Status::OK();
  wire::ReplicaStatusResult result;
  Status s =
      backups_[shard]->ReplicaStatus(wire::kReplicaStatusPromote, &result);
  if (!s.ok() && IsConnectionError(s)) {
    if (backups_[shard]->Reconnect().ok()) {
      s = backups_[shard]->ReplicaStatus(wire::kReplicaStatusPromote, &result);
    }
  }
  if (!s.ok()) return TagShard(shard, s);
  if (result.role != 1) {
    return TagShard(shard, Status::VerificationFailed(
                               "backup did not report the promoted role"));
  }
  promoted_[shard].store(true, std::memory_order_release);
  // Reroute 2PC: rebuild the coordinator over the post-promotion write
  // targets. In-flight CommitBatch calls finish on the old coordinator
  // (kept alive by their shared_ptr) against the dead primary and fail
  // like any primary-down write; new ones see the backup.
  std::vector<SpitzClient*> raw;
  raw.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); i++) raw.push_back(WriteClient(i));
  auto rebuilt = std::make_shared<ClusterCoordinator>(std::move(raw));
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    coordinator_ = std::move(rebuilt);
  }
  return Status::OK();
}

// --- Snapshot ---------------------------------------------------------------

Status ClusterClient::FetchShardDigest(SpitzClient* client, SpitzDigest* out) {
  Status s = client->Digest(out);
  if (!s.ok() && IsConnectionError(s)) {
    if (client->Reconnect().ok()) s = client->Digest(out);
  }
  return s;
}

Status ClusterClient::TakeSnapshot(ClusterSnapshot* out) {
  const size_t n = shards_.size();
  out->digest.shards.assign(n, SpitzDigest());
  out->readers.assign(n, nullptr);
  for (size_t i = 0; i < n; i++) {
    SpitzClient* node = WriteClient(i);
    Status s = FetchShardDigest(node, &out->digest.shards[i]);
    if (IsConnectionError(s) && has_backup(i) && !promoted(i)) {
      // Verified-read failover: the primary is unreachable, so this
      // shard's slot is re-pinned at the backup's last-agreed digest
      // and its proofs will be fetched from the backup.
      node = backups_[i].get();
      s = FetchShardDigest(node, &out->digest.shards[i]);
    }
    if (!s.ok()) return TagShard(i, s);
    out->readers[i] = node;
  }
  out->digest.Seal();
  return Status::OK();
}

Status ClusterClient::GetClusterDigest(ClusterDigest* out) {
  ClusterSnapshot snapshot;
  Status s = TakeSnapshot(&snapshot);
  if (!s.ok()) return s;
  *out = std::move(snapshot.digest);
  return Status::OK();
}

// --- Read path --------------------------------------------------------------

// The one retry rule of verified reads and evidence alike: re-run the
// attempt (a fresh snapshot each time) until OK or NotFound, at most
// 1 + verify_retries_ times, and return the last status.
template <typename Attempt>
Status ClusterClient::WithRetries(Attempt attempt) {
  Status s;
  for (int i = 0; i <= verify_retries_; i++) {
    s = attempt();
    if (s.ok() || s.IsNotFound()) return s;
  }
  return s;
}

Status ClusterClient::Get(const ReadOptions& options, const Slice& key,
                          std::string* value) {
  if (!options.verify) {
    // Forward the caller's options verbatim (minus verify, which is
    // false on this path anyway) — dropping them here silently
    // discarded every non-verify read knob, e.g. deadline_ms.
    return WriteClient(PartitionOf(key, shards_.size()))
        ->Get(options, key, value);
  }
  VerifiedGetResult read;
  Status s = WithRetries([&] { return GetAttempt(key, &read); });
  if (s.ok()) *value = std::move(*read.value);
  return s;
}

Status ClusterClient::Scan(const ReadOptions& options, const Slice& start,
                           const Slice& end, size_t limit,
                           std::vector<PosEntry>* rows) {
  if (!options.verify) {
    std::vector<std::vector<PosEntry>> per_shard(shards_.size());
    for (size_t i = 0; i < shards_.size(); i++) {
      Status s =
          WriteClient(i)->Scan(options, start, end, limit, &per_shard[i]);
      if (!s.ok()) return s;
    }
    MergeShardRows(std::move(per_shard), limit, rows);
    return Status::OK();
  }
  VerifiedScanResult scan;
  Status s = WithRetries([&] { return ScanAttempt(start, end, limit, &scan); });
  if (!s.ok()) return s;
  // Every shard proved its first `limit` in-range rows, so the merged
  // first `limit` rows are each covered by some shard's proof.
  MergeShardRows(std::move(scan.rows), limit, rows);
  return Status::OK();
}

Status ClusterClient::GetAttempt(const Slice& key, VerifiedGetResult* out) {
  ClusterSnapshot snapshot;
  Status s = TakeSnapshot(&snapshot);
  if (!s.ok()) return s;
  out->digest = std::move(snapshot.digest);
  out->shard = PartitionOf(key, shards_.size());
  const SpitzDigest& pinned = out->digest.shards[out->shard];
  // The same node whose digest pinned this shard's leaf serves the
  // proof — after failover that is the backup, at its last-agreed root.
  s = snapshot.readers[out->shard]->GetProofAt(pinned.index_root, key,
                                               &out->value, &out->proof);
  if (!s.ok() && !s.IsNotFound()) return s;
  Status verdict =
      VerifyShardRead(out->digest, out->shard, key, out->value, out->proof);
  return verdict.ok() ? s : verdict;
}

Status ClusterClient::ScanAttempt(const Slice& start, const Slice& end,
                                  size_t limit, VerifiedScanResult* out) {
  ClusterSnapshot snapshot;
  Status s = TakeSnapshot(&snapshot);
  if (!s.ok()) return s;
  out->digest = std::move(snapshot.digest);
  const size_t n = shards_.size();
  out->rows.assign(n, {});
  out->proofs.assign(n, {});
  for (size_t i = 0; i < n; i++) {
    s = snapshot.readers[i]->ScanProofAt(out->digest.shards[i].index_root,
                                         start, end, limit, &out->rows[i],
                                         &out->proofs[i]);
    // As for a point read, NotFound (a root lost to GC) goes to the
    // verifier, which fails it unless the root is provably empty.
    if (!s.ok() && !s.IsNotFound()) return s;
    s = VerifyShardScan(out->digest, i, start, end, limit, out->rows[i],
                        out->proofs[i]);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

// --- Evidence ---------------------------------------------------------------
//
// Cluster evidence is the encoding VerifyClusterGetEvidence and
// VerifyClusterScanEvidence (core/verifier.h) decode. It is
// deterministic, so the attempt's verdict covers it.

Status ClusterClient::GetProof(const Slice& key, Evidence* out) {
  VerifiedGetResult read;
  Status s = WithRetries([&] { return GetAttempt(key, &read); });
  if (!s.ok() && !s.IsNotFound()) return s;
  out->value = std::move(read.value);
  out->proof.clear();
  PutVarint64(&out->proof, read.shard);
  read.proof.EncodeTo(&out->proof);
  out->digest.clear();
  read.digest.EncodeTo(&out->digest);
  return s;
}

Status ClusterClient::ScanProof(const Slice& start, const Slice& end,
                                size_t limit, ScanEvidence* out) {
  VerifiedScanResult scan;
  Status s = WithRetries([&] { return ScanAttempt(start, end, limit, &scan); });
  if (!s.ok()) return s;
  out->proof.clear();
  PutVarint64(&out->proof, scan.rows.size());
  for (size_t i = 0; i < scan.rows.size(); i++) {
    PutEntryList(&out->proof, scan.rows[i]);
    scan.proofs[i].EncodeTo(&out->proof);
  }
  out->digest.clear();
  scan.digest.EncodeTo(&out->digest);
  MergeShardRows(std::move(scan.rows), limit, &out->rows);
  return Status::OK();
}

Status ClusterClient::Digest(std::string* out) {
  ClusterDigest digest;
  Status s = GetClusterDigest(&digest);
  if (!s.ok()) return s;
  out->clear();
  digest.EncodeTo(out);
  return Status::OK();
}

Status ClusterClient::Audit(const Slice& key) {
  if (!key.empty()) {
    return WriteClient(PartitionOf(key, shards_.size()))->Audit(key);
  }
  for (size_t i = 0; i < shards_.size(); i++) {
    Status s = WriteClient(i)->Audit(Slice());
    if (!s.ok()) return TagShard(i, s);
  }
  return Status::OK();
}

}  // namespace spitz
