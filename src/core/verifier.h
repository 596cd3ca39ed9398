#ifndef SPITZ_CORE_VERIFIER_H_
#define SPITZ_CORE_VERIFIER_H_

#include <optional>
#include <string>
#include <vector>

#include "crypto/hash.h"
#include "index/versioned_index.h"
#include "ledger/journal.h"
#include "ledger/merkle_tree.h"

namespace spitz {

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

  // Verifies a point read (value present) or non-membership (nullopt)
  // against the retained digest.
  Status CheckRead(const Slice& key,
                   const std::optional<std::string>& expected_value,
                   const ReadProof& proof) const;

  Status CheckScan(const Slice& start, const Slice& end, size_t limit,
                   const std::vector<PosEntry>& results,
                   const ScanProof& proof) const;

  // Verifies a historical ledger entry against the retained digest.
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
