#include "core/auditor.h"

#include "core/spitz_db.h"

namespace spitz {

Auditor::Auditor(SpitzDb* db, DeferredVerifier::Options options,
                 MetricsRegistry* registry)
    : db_(db), verifier_(options) {
  if (registry == nullptr) return;
  proof_verify_ns_ = registry->histogram("core.db.proof_verify_latency_ns");
  verifier_.ExportMetrics(registry);
}

Status Auditor::AuditKey(const Slice& key,
                         std::optional<std::string> expected_value) {
  return verifier_.Submit([this, digest = db_->Digest(), key = key.ToString(),
                           expected_value = std::move(expected_value)] {
    Status s = CheckKey(digest, key, expected_value);
    if (!s.ok()) NoteFailure("key " + key, s);
    return s;
  });
}

Status Auditor::AuditLastBlock() {
  const uint64_t blocks = db_->Digest().journal.block_count;
  if (blocks == 0) return Status::OK();
  return verifier_.Submit([this, height = blocks - 1] {
    JournalEntryProof proof;
    LedgerEntry entry;
    JournalDigest digest;
    Status s = db_->ledger()->ProveHistoricalEntry(height, 0, &proof, &entry,
                                                   &digest);
    if (s.ok()) {
      ScopedTimer timer(proof_verify_ns_);
      s = Journal::VerifyEntry(entry, proof, digest);
    }
    if (!s.ok()) NoteFailure("block " + std::to_string(height), s);
    return s;
  });
}

Status Auditor::Drain() {
  verifier_.Flush();
  if (!verifier_.failed()) return Status::OK();
  std::lock_guard<std::mutex> lock(failure_mu_);
  return Status::VerificationFailed("deferred audits detected tampering; "
                                    "first failure: " + first_failure_);
}

Status Auditor::CheckKey(const SpitzDigest& digest, const std::string& key,
                         const std::optional<std::string>& expected_value) {
  std::string value;
  ReadProof proof;
  Status s = db_->Read(digest.index_root, key, &value, &proof);
  if (s.ok() || s.IsNotFound()) {
    std::optional<std::string> found;
    if (s.ok()) found = std::move(value);
    {
      ScopedTimer timer(proof_verify_ns_);
      s = SpitzDb::VerifyRead(digest, key, found, proof);
    }
    if (s.ok() && expected_value.has_value() && found != expected_value) {
      s = Status::VerificationFailed("audited value differs");
    }
  }
  // An audit can outlive its version's retention window; a failure on a
  // version GC has since collected is vacuous.
  if (!s.ok() && db_->gc()->Collected(digest.index_root)) {
    return Status::OK();
  }
  return s;
}

void Auditor::NoteFailure(const std::string& what, const Status& failure) {
  std::lock_guard<std::mutex> lock(failure_mu_);
  if (first_failure_.empty()) first_failure_ = what + ": " + failure.ToString();
}

}  // namespace spitz
