#ifndef SPITZ_BENCH_AUDITOR_H_
#define SPITZ_BENCH_AUDITOR_H_

// The continuous auditor: GlassDB-style operational transparency
// (PAPERS.md) — an independent client that, on an interval, samples a
// live deployment's GetProof/ScanProof evidence and digest, re-verifies
// everything STATELESSLY from the serialized bytes (the same check a
// third party holding only the envelope could run), and tracks how the
// digest evolves:
//
//   * every Evidence / ScanEvidence envelope is decoded from bytes and
//     checked by the one verifier of its format (Verify*Evidence for a
//     single node, VerifyCluster*Evidence for a cluster) —
//     never through any state the serving process handed us in memory;
//   * the digest stream must be consistent: the journal entry count
//     (per shard, for a cluster) never decreases — a digest that "goes
//     backwards" is evidence of a forked or rolled-back server;
//   * digest transitions are counted, so a run against a live write
//     load can assert it actually observed state changes.
//
// Any verification failure is terminal for the run's verdict: the
// report carries the count and the first failure's description, and
// bench/auditor_client + examples/auditor_client exit non-zero on it.
//
// The audit loop tolerates transient IO errors (a server restart mid
// round): they are counted, the optional reconnect hook is invoked, and
// the loop moves on — only proof/digest inconsistencies are failures.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_client.h"
#include "core/verified_kv.h"
#include "core/verifier.h"

namespace spitz {
namespace bench {

struct AuditorOptions {
  // How the serialized evidence decodes: a single node emits
  // ReadProof/ScanProof + SpitzDigest, a cluster emits the
  // shard-tagged envelope + ClusterDigest. The auditor picks its
  // verifier from what it expects to receive, never by asking the
  // deployment it audits.
  enum class Mode { kSingle, kCluster };
  Mode mode = Mode::kSingle;

  // Rounds to run; each round samples proofs + the digest, then sleeps
  // interval_ms. The stop flag (below) ends the loop early.
  size_t rounds = 10;
  uint64_t interval_ms = 50;

  size_t get_samples_per_round = 4;
  size_t scan_samples_per_round = 1;
  uint64_t scan_limit = 16;

  // Produces the next key to audit (required). Called once per get
  // sample; keys that do not exist are fine — absence is proven too.
  std::function<std::string()> sample_key;
  // Produces the next [start, end) range to audit; defaults to the
  // whole key space when unset.
  std::function<std::pair<std::string, std::string>()> sample_range;

  // Invoked after a round that saw IO errors — the seam where a
  // long-running auditor heals its connections (SpitzClient::Reconnect).
  std::function<void()> reconnect;

  // Optional external stop flag (borrowed); checked between rounds.
  const std::atomic<bool>* stop = nullptr;
};

struct AuditorReport {
  uint64_t rounds = 0;
  uint64_t get_samples = 0;
  uint64_t scan_samples = 0;
  uint64_t digest_checks = 0;
  uint64_t digest_transitions = 0;
  uint64_t verification_failures = 0;
  uint64_t io_errors = 0;
  std::string first_failure;

  bool ok() const { return verification_failures == 0; }

  void Fail(const std::string& what) {
    verification_failures++;
    if (first_failure.empty()) first_failure = what;
  }
};

namespace internal {

// The digest-stream consistency check: decodes the serialized digest
// and enforces per-shard journal monotonicity against the previous
// round's counts. Returns the entry counts for the next round.
inline Status CheckDigestStream(AuditorOptions::Mode mode,
                                const std::string& encoded,
                                std::vector<uint64_t>* last_entry_counts) {
  std::vector<uint64_t> counts;
  if (mode == AuditorOptions::Mode::kSingle) {
    Slice input(encoded);
    SpitzDigest digest;
    Status s = SpitzDigest::DecodeFrom(&input, &digest);
    if (!s.ok()) return s;
    counts.push_back(digest.journal.entry_count);
  } else {
    Slice input(encoded);
    ClusterDigest digest;
    // DecodeFrom re-derives the Merkle root: a tampered envelope fails
    // here before any comparison.
    Status s = ClusterDigest::DecodeFrom(&input, &digest);
    if (!s.ok()) return s;
    for (const SpitzDigest& shard : digest.shards) {
      counts.push_back(shard.journal.entry_count);
    }
  }
  if (!last_entry_counts->empty()) {
    if (counts.size() != last_entry_counts->size()) {
      return Status::VerificationFailed("digest changed shard count");
    }
    for (size_t i = 0; i < counts.size(); i++) {
      if (counts[i] < (*last_entry_counts)[i]) {
        return Status::VerificationFailed(
            "journal entry count went backwards on shard " +
            std::to_string(i));
      }
    }
  }
  *last_entry_counts = std::move(counts);
  return Status::OK();
}

}  // namespace internal

// Runs the audit loop against any VerifiedKv deployment. Returns the
// report; report.ok() is the verdict.
inline AuditorReport RunAuditor(VerifiedKv* kv, const AuditorOptions& options) {
  AuditorReport report;
  std::vector<uint64_t> last_entry_counts;
  std::string last_digest;
  for (size_t round = 0; round < options.rounds; round++) {
    if (options.stop != nullptr &&
        options.stop->load(std::memory_order_acquire)) {
      break;
    }
    if (round > 0 && options.interval_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options.interval_ms));
    }
    bool round_io_error = false;

    // Digest sample: stream consistency + transition tracking.
    std::string digest;
    Status s = kv->Digest(&digest);
    if (!s.ok()) {
      report.io_errors++;
      round_io_error = true;
    } else {
      report.digest_checks++;
      if (!last_digest.empty() && digest != last_digest) {
        report.digest_transitions++;
      }
      last_digest = digest;
      s = internal::CheckDigestStream(options.mode, digest,
                                      &last_entry_counts);
      if (!s.ok()) report.Fail("digest stream: " + s.ToString());
    }

    // Point evidence samples.
    for (size_t i = 0; i < options.get_samples_per_round; i++) {
      const std::string key = options.sample_key();
      VerifiedKv::Evidence evidence;
      s = kv->GetProof(key, &evidence);
      if (!s.ok() && !s.IsNotFound()) {
        if (s.IsVerificationFailed()) {
          report.Fail("get evidence for '" + key + "': " + s.ToString());
        } else {
          report.io_errors++;
          round_io_error = true;
        }
        continue;
      }
      report.get_samples++;
      Status v = options.mode == AuditorOptions::Mode::kSingle
                     ? VerifyGetEvidence(key, evidence)
                     : VerifyClusterGetEvidence(key, evidence);
      if (!v.ok()) {
        report.Fail("get evidence for '" + key + "': " + v.ToString());
      }
    }

    // Range evidence samples.
    for (size_t i = 0; i < options.scan_samples_per_round; i++) {
      std::pair<std::string, std::string> range =
          options.sample_range ? options.sample_range()
                               : std::make_pair(std::string(),
                                                std::string("\xff"));
      VerifiedKv::ScanEvidence evidence;
      s = kv->ScanProof(range.first, range.second, options.scan_limit,
                        &evidence);
      if (!s.ok()) {
        if (s.IsVerificationFailed()) {
          report.Fail("scan evidence [" + range.first + ", " + range.second +
                      "): " + s.ToString());
        } else {
          report.io_errors++;
          round_io_error = true;
        }
        continue;
      }
      report.scan_samples++;
      Status v = options.mode == AuditorOptions::Mode::kSingle
                     ? VerifyScanEvidence(range.first, range.second,
                                          options.scan_limit, evidence)
                     : VerifyClusterScanEvidence(
                           range.first, range.second, options.scan_limit,
                           evidence);
      if (!v.ok()) {
        report.Fail("scan evidence [" + range.first + ", " + range.second +
                    "): " + v.ToString());
      }
    }

    report.rounds++;
    if (round_io_error && options.reconnect) options.reconnect();
  }
  return report;
}

}  // namespace bench
}  // namespace spitz

#endif  // SPITZ_BENCH_AUDITOR_H_
