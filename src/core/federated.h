#ifndef SPITZ_CORE_FEDERATED_H_
#define SPITZ_CORE_FEDERATED_H_

#include <map>
#include <string>
#include <vector>

#include "core/spitz_db.h"

namespace spitz {

// ---------------------------------------------------------------------------
// Verifiable federated analytics — paper section 7.2 and Figure 9: "it
// is possible to consolidate multiple clients' VDB to provide federated
// analytics. For example, a few hospitals want to have a more precise
// and comprehensive analysis of a disease. The integrity of the data
// and queries are important in these use cases."
//
// The coordinator queries every participating Spitz instance, verifies
// each partial result against THAT party's digest before merging, and
// returns the merged result together with the evidence (per-party
// digests and proofs) so any downstream auditor can re-check the whole
// computation. A single tampering party corrupts only its own partial
// result — and is identified by name.
// ---------------------------------------------------------------------------
class FederatedAnalytics {
 public:
  FederatedAnalytics() = default;

  FederatedAnalytics(const FederatedAnalytics&) = delete;
  FederatedAnalytics& operator=(const FederatedAnalytics&) = delete;

  // Registers a participant (not owned).
  void AddParty(const std::string& name, SpitzDb* db);

  // One party's single-node ScanEvidence (rows plus proof and digest
  // bytes), tagged with the party. Bytes, so the bundle ships to a
  // downstream auditor verbatim; every verification — including the
  // coordinator's own — is VerifyScanEvidence on these bytes.
  struct PartyEvidence : VerifiedKv::ScanEvidence {
    std::string party;
  };

  struct FederatedResult {
    // Merged rows tagged with their source party, in (party, key) order.
    std::vector<std::pair<std::string, PosEntry>> rows;
    // The complete evidence bundle for downstream auditing.
    std::vector<PartyEvidence> evidence;
  };

  // Runs a verified range scan [start, end) on every party. Fails with
  // VerificationFailed naming the first party whose result does not
  // verify; no partial result from an unverified party is merged.
  Status FederatedScan(const Slice& start, const Slice& end, size_t limit,
                       FederatedResult* result) const;

  // Verified federated aggregation: count and sum of numeric values over
  // the range (values parsed as integers; non-numeric values count with
  // value 0). Every partial result is verified before inclusion.
  struct Aggregate {
    uint64_t count = 0;
    long long sum = 0;
    std::map<std::string, uint64_t> per_party_count;
  };
  Status FederatedAggregate(const Slice& start, const Slice& end,
                            Aggregate* aggregate) const;

  // Re-verifies an evidence bundle (what a downstream auditor runs; no
  // access to the parties needed).
  static Status AuditEvidence(const Slice& start, const Slice& end,
                              size_t limit,
                              const std::vector<PartyEvidence>& evidence);

  size_t party_count() const { return parties_.size(); }

 private:
  std::vector<std::pair<std::string, SpitzDb*>> parties_;
};

}  // namespace spitz

#endif  // SPITZ_CORE_FEDERATED_H_
