#ifndef SPITZ_CORE_VERIFIER_H_
#define SPITZ_CORE_VERIFIER_H_

#include <optional>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "core/verified_kv.h"
#include "crypto/hash.h"
#include "proof/block.h"
#include "proof/siri_proof.h"

namespace spitz {

// Every check a Spitz client runs on an answer (paper section 5.3),
// defined once: the spitz_verify library, which links no server. A check
// reads no database, only a digest and the evidence.

// The state a client needs to retain to verify any later answer: the
// current index root (a SIRI index version) and the ledger digest
// covering the block history. Every proof verifies against one of
// these. Serializable — the digest crosses the wire to clients and is
// the leaf a cluster root digest commits to.
struct SpitzDigest {
  Hash256 index_root;
  JournalDigest journal;
  uint64_t last_commit_ts = 0;

  void EncodeTo(std::string* out) const;
  size_t EncodedSize() const;
  static Status DecodeFrom(Slice* input, SpitzDigest* out);

  bool operator==(const SpitzDigest& other) const {
    return index_root == other.index_root &&
           journal.block_count == other.journal.block_count &&
           journal.entry_count == other.journal.entry_count &&
           journal.tip_hash == other.journal.tip_hash &&
           journal.merkle_root == other.journal.merkle_root &&
           last_commit_ts == other.last_commit_ts;
  }
  bool operator!=(const SpitzDigest& other) const { return !(*this == other); }
};

// A point read (value present) or non-membership (nullopt) at `digest`,
// timed in the process-wide client.db.verify_read_latency_ns.
Status VerifyRead(const SpitzDigest& digest, const Slice& key,
                  const std::optional<std::string>& expected_value,
                  const ReadProof& proof);
// The first `limit` rows (0 = no limit) of [start, end) at `digest`
// (client.db.verify_scan_latency_ns).
Status VerifyScan(const SpitzDigest& digest, const Slice& start,
                  const Slice& end, size_t limit,
                  const std::vector<PosEntry>& results,
                  const ScanProof& proof);

// Single-node evidence (SpitzDb's and SpitzClient's GetProof/ScanProof):
// exactly one SpitzDigest and one proof, then VerifyRead/VerifyScan.
Status VerifyGetEvidence(const Slice& key,
                         const VerifiedKv::Evidence& evidence);
Status VerifyScanEvidence(const Slice& start, const Slice& end, size_t limit,
                          const VerifiedKv::ScanEvidence& evidence);

struct ClusterDigest;  // cluster/cluster_digest.h

// Shard `shard`'s answer at the cluster snapshot `digest`: the proof
// against the shard digest the cluster root commits, and that the shard
// owns every key it proved (otherwise a scan could return a row that a
// point read of the same key, routed to the owner, proves absent). A
// failure names the shard.
Status VerifyShardRead(const ClusterDigest& digest, size_t shard,
                       const Slice& key,
                       const std::optional<std::string>& expected_value,
                       const ReadProof& proof);
Status VerifyShardScan(const ClusterDigest& digest, size_t shard,
                       const Slice& start, const Slice& end, size_t limit,
                       const std::vector<PosEntry>& rows,
                       const ScanProof& proof);

// Cluster evidence (ClusterClient's GetProof/ScanProof): the digest slot
// is the ClusterDigest envelope; the proof slot is the answering shard's
// index and proof, or for a scan every shard's rows and proof, since
// merged rows cannot be re-verified per shard after truncation.
Status VerifyClusterGetEvidence(const Slice& key,
                                const VerifiedKv::Evidence& evidence);
Status VerifyClusterScanEvidence(const Slice& start, const Slice& end,
                                 size_t limit,
                                 const VerifiedKv::ScanEvidence& evidence);

// k-way merge of per-shard scan results (each sorted by key), truncated
// to `limit` (0 = no limit).
void MergeShardRows(std::vector<std::vector<PosEntry>> per_shard, size_t limit,
                    std::vector<PosEntry>* out);

// ---------------------------------------------------------------------------
// ClientVerifier — the client-side state machine of paper section 5.3:
// "Clients can use the digest of the ledger to perform verification
// locally. ... clients can recalculate the digest with the received
// proof and compare it with the previous digest saved locally."
//
// The verifier retains the last digest it accepted. A new digest is
// accepted only with a ledger consistency proof showing the history it
// covers extends the retained one (fork/rollback detection). Reads and
// scans are checked against the retained digest.
// ---------------------------------------------------------------------------
class ClientVerifier {
 public:
  ClientVerifier() = default;

  // Adopts the first digest unconditionally (trust-on-first-use), or a
  // later digest when `consistency` proves append-only growth from the
  // retained one. Rejects regressions and forks.
  Status ObserveDigest(const SpitzDigest& digest,
                       const MerkleConsistencyProof* consistency = nullptr);

  // VerifyRead, VerifyScan and VerifyJournalEntry against the retained
  // digest; VerificationFailed before the first ObserveDigest.
  Status CheckRead(const Slice& key,
                   const std::optional<std::string>& expected_value,
                   const ReadProof& proof) const;
  Status CheckScan(const Slice& start, const Slice& end, size_t limit,
                   const std::vector<PosEntry>& results,
                   const ScanProof& proof) const;
  Status CheckHistoricalEntry(const LedgerEntry& entry,
                              const JournalEntryProof& proof) const;

  bool has_digest() const { return has_digest_; }
  const SpitzDigest& digest() const { return digest_; }

 private:
  bool has_digest_ = false;
  SpitzDigest digest_;
};

}  // namespace spitz

#endif  // SPITZ_CORE_VERIFIER_H_
