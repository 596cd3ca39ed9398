#include "core/federated.h"

#include <algorithm>
#include <cstdlib>

namespace spitz {

void FederatedAnalytics::AddParty(const std::string& name, SpitzDb* db) {
  parties_.emplace_back(name, db);
}

Status FederatedAnalytics::FederatedScan(const Slice& start, const Slice& end,
                                         size_t limit,
                                         FederatedResult* result) const {
  result->rows.clear();
  result->evidence.clear();
  for (const auto& [name, db] : parties_) {
    PartyEvidence evidence;
    evidence.party = name;
    Status s = db->ScanProof(start, end, limit, &evidence);
    if (!s.ok()) return s;
    // Verify THIS party's evidence against THIS party's digest, from the
    // bytes alone, before it can contribute to the merged answer.
    s = VerifyScanEvidence(start, end, limit, evidence);
    if (!s.ok()) {
      return Status::VerificationFailed("party '" + name +
                                        "' returned an unverifiable result: " +
                                        s.message());
    }
    for (const PosEntry& row : evidence.rows) {
      result->rows.emplace_back(name, row);
    }
    result->evidence.push_back(std::move(evidence));
  }
  std::sort(result->rows.begin(), result->rows.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second.key < b.second.key;
            });
  return Status::OK();
}

Status FederatedAnalytics::FederatedAggregate(const Slice& start,
                                              const Slice& end,
                                              Aggregate* aggregate) const {
  *aggregate = Aggregate();
  FederatedResult result;
  Status s = FederatedScan(start, end, 0, &result);
  if (!s.ok()) return s;
  for (const auto& [party, row] : result.rows) {
    aggregate->count++;
    aggregate->per_party_count[party]++;
    aggregate->sum += strtoll(row.value.c_str(), nullptr, 10);
  }
  return Status::OK();
}

Status FederatedAnalytics::AuditEvidence(
    const Slice& start, const Slice& end, size_t limit,
    const std::vector<PartyEvidence>& evidence) {
  for (const PartyEvidence& e : evidence) {
    if (!VerifyScanEvidence(start, end, limit, e).ok()) {
      return Status::VerificationFailed("evidence from party '" + e.party +
                                        "' does not verify");
    }
  }
  return Status::OK();
}

}  // namespace spitz
