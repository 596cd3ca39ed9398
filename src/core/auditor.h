#ifndef SPITZ_CORE_AUDITOR_H_
#define SPITZ_CORE_AUDITOR_H_

#include <mutex>
#include <optional>
#include <string>

#include "common/metrics.h"
#include "common/slice.h"
#include "common/status.h"
#include "txn/batch_verifier.h"

namespace spitz {

class SpitzDb;
struct SpitzDigest;

// The deferred auditor of paper section 5.3, owned by a SpitzDb and
// reached through SpitzDb::auditor(). Audits queue on a DeferredVerifier
// and, when they run, check what a client checks, through SpitzDb's
// public surface: a read with a proof, verified by the client's
// verifier. (Not the remote continuous auditor of bench/auditor.h.)
class Auditor {
 public:
  // `registry` (null = no metrics) receives txn.verifier.* and
  // core.db.proof_verify_latency_ns.
  Auditor(SpitzDb* db, DeferredVerifier::Options options,
          MetricsRegistry* registry);

  Auditor(const Auditor&) = delete;
  Auditor& operator=(const Auditor&) = delete;

  // Queues an audit of `key` at the digest current now: Read with a
  // proof at its index root, then VerifyRead (core/verifier.h); with
  // `expected_value` the key must also hold that value. Without one the
  // audit checks integrity only, since later writers may legally change
  // the key first. Online mode (batch size 0) returns the verdict.
  Status AuditKey(const Slice& key,
                  std::optional<std::string> expected_value = std::nullopt);

  // Queues an audit of the last sealed block (OK when there is none):
  // ProveHistoricalEntry of its first entry, then VerifyJournalEntry
  // against the journal digest that proof was taken against.
  Status AuditLastBlock();

  // Waits for every audit queued before the call. VerificationFailed,
  // naming the first failure, once any audit has failed.
  Status Drain();

 private:
  Status CheckKey(const SpitzDigest& digest, const std::string& key,
                  const std::optional<std::string>& expected_value);
  // Keeps the first failure for Drain to name.
  void NoteFailure(const std::string& what, const Status& failure);

  SpitzDb* const db_;
  Histogram* proof_verify_ns_ = nullptr;
  std::mutex failure_mu_;
  std::string first_failure_;  // guarded by failure_mu_
  // Last, so its workers are joined before the members above go away.
  DeferredVerifier verifier_;
};

}  // namespace spitz

#endif  // SPITZ_CORE_AUDITOR_H_
