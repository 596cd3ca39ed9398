#include "core/verifier.h"

#include "common/codec.h"
#include "core/spitz_db.h"

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

// SpitzDb's static verifiers (declared in core/spitz_db.h) live here,
// with the rest of the client side, which has no database instance
// (and hence no per-instance registry); their latencies land in the
// process-wide registry under client.db.*.

Status SpitzDb::VerifyRead(const SpitzDigest& digest, const Slice& key,
                           const std::optional<std::string>& expected_value,
                           const ReadProof& proof) {
  ScopedTimer timer(
      MetricsRegistry::Global()->histogram("client.db.verify_read_latency_ns"));
  if (proof.index_root != digest.index_root) {
    return Status::VerificationFailed("proof is for a different version");
  }
  return proof.index_proof.Verify(digest.index_root, key, expected_value);
}

Status SpitzDb::VerifyScan(const SpitzDigest& digest, const Slice& start,
                           const Slice& end, size_t limit,
                           const std::vector<PosEntry>& results,
                           const spitz::ScanProof& proof) {
  ScopedTimer timer(
      MetricsRegistry::Global()->histogram("client.db.verify_scan_latency_ns"));
  if (proof.index_root != digest.index_root) {
    return Status::VerificationFailed("proof is for a different version");
  }
  return proof.index_proof.Verify(digest.index_root, start, end, limit,
                                  results);
}

namespace {

// Decodes evidence's digest and proof, each of which must be exactly one
// encoding.
template <typename Proof>
Status DecodeEvidence(const std::string& digest_bytes,
                      const std::string& proof_bytes, SpitzDigest* digest,
                      Proof* proof) {
  Slice digest_input(digest_bytes), proof_input(proof_bytes);
  Status s = SpitzDigest::DecodeFrom(&digest_input, digest);
  if (s.ok()) s = CheckConsumed(digest_input, "evidence digest");
  if (s.ok()) s = Proof::DecodeFrom(&proof_input, proof);
  if (s.ok()) s = CheckConsumed(proof_input, "evidence proof");
  return s;
}

}  // namespace

Status SpitzDb::VerifyGetEvidence(const Slice& key, const Evidence& evidence) {
  SpitzDigest digest;
  ReadProof proof;
  Status s = DecodeEvidence(evidence.digest, evidence.proof, &digest, &proof);
  return s.ok() ? VerifyRead(digest, key, evidence.value, proof) : s;
}

Status SpitzDb::VerifyScanEvidence(const Slice& start, const Slice& end,
                                   size_t limit,
                                   const ScanEvidence& evidence) {
  SpitzDigest digest;
  spitz::ScanProof proof;
  Status s = DecodeEvidence(evidence.digest, evidence.proof, &digest, &proof);
  return s.ok() ? VerifyScan(digest, start, end, limit, evidence.rows, proof)
                : s;
}

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
  if (!Journal::VerifyConsistency(*consistency, digest_.journal,
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
  return SpitzDb::VerifyRead(digest_, key, expected_value, proof);
}

Status ClientVerifier::CheckScan(const Slice& start, const Slice& end,
                                 size_t limit,
                                 const std::vector<PosEntry>& results,
                                 const ScanProof& proof) const {
  if (!has_digest_) return Status::VerificationFailed("no trusted digest");
  return SpitzDb::VerifyScan(digest_, start, end, limit, results, proof);
}

Status ClientVerifier::CheckHistoricalEntry(
    const LedgerEntry& entry, const JournalEntryProof& proof) const {
  if (!has_digest_) return Status::VerificationFailed("no trusted digest");
  return Journal::VerifyEntry(entry, proof, digest_.journal);
}

}  // namespace spitz
