#include "core/verifier.h"

#include "cluster/cluster_digest.h"
#include "cluster/partition.h"
#include "common/codec.h"
#include "common/metrics.h"

namespace spitz {

// The digest's wire format (also the leaf bytes a cluster root digest
// commits to — changing this re-hashes every cluster digest).
void SpitzDigest::EncodeTo(std::string* out) const {
  out->append(index_root.slice().view());
  PutVarint64(out, journal.block_count);
  PutVarint64(out, journal.entry_count);
  out->append(journal.tip_hash.slice().view());
  out->append(journal.merkle_root.slice().view());
  PutVarint64(out, last_commit_ts);
}

size_t SpitzDigest::EncodedSize() const {
  return 3 * Hash256::kSize + VarintLength(journal.block_count) +
         VarintLength(journal.entry_count) + VarintLength(last_commit_ts);
}

Status SpitzDigest::DecodeFrom(Slice* input, SpitzDigest* out) {
  Status s = GetHash256(input, &out->index_root);
  if (s.ok()) s = GetVarint64(input, &out->journal.block_count);
  if (s.ok()) s = GetVarint64(input, &out->journal.entry_count);
  if (s.ok()) s = GetHash256(input, &out->journal.tip_hash);
  if (s.ok()) s = GetHash256(input, &out->journal.merkle_root);
  if (s.ok()) s = GetVarint64(input, &out->last_commit_ts);
  return s;
}

Status VerifyRead(const SpitzDigest& digest, const Slice& key,
                  const std::optional<std::string>& expected_value,
                  const ReadProof& proof) {
  ScopedTimer timer(
      MetricsRegistry::Global()->histogram("client.db.verify_read_latency_ns"));
  if (proof.index_root != digest.index_root) {
    return Status::VerificationFailed("proof is for a different version");
  }
  return proof.index_proof.Verify(digest.index_root, key, expected_value);
}

Status VerifyScan(const SpitzDigest& digest, const Slice& start,
                  const Slice& end, size_t limit,
                  const std::vector<PosEntry>& results,
                  const ScanProof& proof) {
  ScopedTimer timer(
      MetricsRegistry::Global()->histogram("client.db.verify_scan_latency_ns"));
  if (proof.index_root != digest.index_root) {
    return Status::VerificationFailed("proof is for a different version");
  }
  return proof.index_proof.Verify(digest.index_root, start, end, limit,
                                  results);
}

namespace {

// Decodes evidence's two slots, each of which must be exactly one
// encoding: one Digest, and what `decode_proof` reads of the proof.
template <typename Digest, typename DecodeProof>
Status DecodeEvidence(const std::string& digest_bytes,
                      const std::string& proof_bytes, Digest* digest,
                      DecodeProof decode_proof) {
  Slice digest_input(digest_bytes), proof_input(proof_bytes);
  Status s = Digest::DecodeFrom(&digest_input, digest);
  if (s.ok()) s = CheckConsumed(digest_input, "evidence digest");
  if (s.ok()) s = decode_proof(&proof_input);
  if (s.ok()) s = CheckConsumed(proof_input, "evidence proof");
  return s;
}

}  // namespace

Status VerifyGetEvidence(const Slice& key,
                         const VerifiedKv::Evidence& evidence) {
  SpitzDigest digest;
  ReadProof proof;
  Status s = DecodeEvidence(
      evidence.digest, evidence.proof, &digest,
      [&](Slice* input) { return ReadProof::DecodeFrom(input, &proof); });
  return s.ok() ? VerifyRead(digest, key, evidence.value, proof) : s;
}

Status VerifyScanEvidence(const Slice& start, const Slice& end, size_t limit,
                          const VerifiedKv::ScanEvidence& evidence) {
  SpitzDigest digest;
  ScanProof proof;
  Status s = DecodeEvidence(
      evidence.digest, evidence.proof, &digest,
      [&](Slice* input) { return ScanProof::DecodeFrom(input, &proof); });
  return s.ok() ? VerifyScan(digest, start, end, limit, evidence.rows, proof)
                : s;
}

// --- A cluster ---------------------------------------------------------------

Status VerifyShardRead(const ClusterDigest& digest, size_t shard,
                       const Slice& key,
                       const std::optional<std::string>& expected_value,
                       const ReadProof& proof) {
  // The answering shard must be the one the partition function owns the
  // key to — otherwise a shard could vouch for keys it never held.
  if (shard >= digest.shards.size() ||
      shard != PartitionOf(key, digest.shards.size())) {
    return Status::VerificationFailed("proof's shard does not own the key");
  }
  Status s = VerifyRead(digest.shards[shard], key, expected_value, proof);
  return s.ok() ? s : TagShard(shard, s);
}

Status VerifyShardScan(const ClusterDigest& digest, size_t shard,
                       const Slice& start, const Slice& end, size_t limit,
                       const std::vector<PosEntry>& rows,
                       const ScanProof& proof) {
  Status s = VerifyScan(digest.shards[shard], start, end, limit, rows, proof);
  if (!s.ok()) return TagShard(shard, s);
  for (const PosEntry& row : rows) {
    if (PartitionOf(row.key, digest.shards.size()) != shard) {
      return TagShard(shard, Status::VerificationFailed(
                                 "proved a row it does not own: " + row.key));
    }
  }
  return Status::OK();
}

Status VerifyClusterGetEvidence(const Slice& key,
                                const VerifiedKv::Evidence& evidence) {
  ClusterDigest digest;
  uint64_t shard = 0;
  ReadProof proof;
  Status s = DecodeEvidence(
      evidence.digest, evidence.proof, &digest, [&](Slice* input) {
        Status s = GetVarint64(input, &shard);
        return s.ok() ? ReadProof::DecodeFrom(input, &proof) : s;
      });
  return s.ok() ? VerifyShardRead(digest, shard, key, evidence.value, proof)
                : s;
}

Status VerifyClusterScanEvidence(const Slice& start, const Slice& end,
                                 size_t limit,
                                 const VerifiedKv::ScanEvidence& evidence) {
  ClusterDigest digest;
  std::vector<std::vector<PosEntry>> per_shard;
  std::vector<ScanProof> proofs;
  Status s = DecodeEvidence(
      evidence.digest, evidence.proof, &digest, [&](Slice* input) {
        uint64_t shard_count = 0;
        Status s = GetVarint64(input, &shard_count);
        if (s.ok() && shard_count != digest.shards.size()) {
          s = Status::VerificationFailed("scan evidence shard count mismatch");
        }
        per_shard.resize(digest.shards.size());
        proofs.resize(digest.shards.size());
        for (size_t i = 0; s.ok() && i < per_shard.size(); i++) {
          s = GetEntryList(input, &per_shard[i]);
          if (s.ok()) s = ScanProof::DecodeFrom(input, &proofs[i]);
        }
        return s;
      });
  for (size_t i = 0; s.ok() && i < per_shard.size(); i++) {
    s = VerifyShardScan(digest, i, start, end, limit, per_shard[i], proofs[i]);
  }
  if (!s.ok()) return s;
  // The merged rows must be exactly the merge of the proven per-shard
  // sets — no row invented, dropped, or reordered after verification.
  std::vector<PosEntry> expected;
  MergeShardRows(std::move(per_shard), limit, &expected);
  if (expected != evidence.rows) {
    return Status::VerificationFailed("scan evidence rows diverge from proofs");
  }
  return Status::OK();
}

void MergeShardRows(std::vector<std::vector<PosEntry>> per_shard, size_t limit,
                    std::vector<PosEntry>* out) {
  out->clear();
  // limit 0 = no limit, matching the scan contract everywhere else.
  const size_t cap = limit == 0 ? static_cast<size_t>(-1) : limit;
  std::vector<size_t> cursor(per_shard.size(), 0);
  while (out->size() < cap) {
    int best = -1;
    for (size_t i = 0; i < per_shard.size(); i++) {
      if (cursor[i] >= per_shard[i].size()) continue;
      if (best < 0 ||
          per_shard[i][cursor[i]].key <
              per_shard[static_cast<size_t>(best)][cursor[best]].key) {
        best = static_cast<int>(i);
      }
    }
    if (best < 0) break;
    out->push_back(
        std::move(per_shard[static_cast<size_t>(best)][cursor[best]]));
    cursor[static_cast<size_t>(best)]++;
  }
}

// --- The kept digest ---------------------------------------------------------

Status ClientVerifier::ObserveDigest(
    const SpitzDigest& digest, const MerkleConsistencyProof* consistency) {
  if (!has_digest_) {
    digest_ = digest;
    has_digest_ = true;
    return Status::OK();
  }
  if (digest.journal.block_count < digest_.journal.block_count) {
    return Status::VerificationFailed("ledger rollback detected");
  }
  if (digest.journal.block_count == digest_.journal.block_count) {
    if (digest.journal.merkle_root != digest_.journal.merkle_root ||
        digest.journal.tip_hash != digest_.journal.tip_hash) {
      return Status::VerificationFailed("ledger fork at equal size");
    }
    digest_ = digest;  // index root may have advanced within a block
    return Status::OK();
  }
  if (consistency == nullptr) {
    return Status::VerificationFailed(
        "digest advanced without a consistency proof");
  }
  if (!VerifyJournalConsistency(*consistency, digest_.journal,
                                digest.journal)) {
    return Status::VerificationFailed("ledger consistency proof invalid");
  }
  digest_ = digest;
  return Status::OK();
}

Status ClientVerifier::CheckRead(
    const Slice& key, const std::optional<std::string>& expected_value,
    const ReadProof& proof) const {
  if (!has_digest_) return Status::VerificationFailed("no trusted digest");
  return VerifyRead(digest_, key, expected_value, proof);
}

Status ClientVerifier::CheckScan(const Slice& start, const Slice& end,
                                 size_t limit,
                                 const std::vector<PosEntry>& results,
                                 const ScanProof& proof) const {
  if (!has_digest_) return Status::VerificationFailed("no trusted digest");
  return VerifyScan(digest_, start, end, limit, results, proof);
}

Status ClientVerifier::CheckHistoricalEntry(
    const LedgerEntry& entry, const JournalEntryProof& proof) const {
  if (!has_digest_) return Status::VerificationFailed("no trusted digest");
  return VerifyJournalEntry(entry, proof, digest_.journal);
}

}  // namespace spitz
