// Reproduces paper Figure 6: "Basic operations in single-thread setup."
//
//   (a) read-only and (b) write-only throughput, varying the initial
//   database size from 10,000 to 1,280,000 records, across five
//   systems: Immutable KVS, Spitz, Spitz-verify, Baseline,
//   Baseline-verify.
//
// Expected shape (section 6.2.1):
//  * reads: Immutable KVS fastest; Spitz ~ Baseline without verification
//    at large sizes; with verification Baseline drops by ~2 orders of
//    magnitude while Spitz retains a large advantage (the paper reports
//    Spitz-verify ~ 7x Baseline-verify) thanks to the unified index;
//  * writes: Spitz ~ Immutable KVS with and without verification
//    (deferred, batched audits); Baseline much worse because it
//    maintains multiple indexed views plus the ledger.
//
// Each rank is checked at every scale (RankChecks, margins in
// EXPERIMENTS.md); the binary exits non-zero when one inverts.

#include <optional>

#include "baseline/baseline_db.h"
#include "bench/bench_util.h"
#include "core/spitz_db.h"
#include "kvs/immutable_kvs.h"

namespace spitz {
namespace bench {
namespace {

constexpr size_t kReadOps = 20000;
constexpr size_t kVerifiedReadOps = 3000;
constexpr size_t kWriteOps = 5000;

struct Measurement {
  double kvs = 0, spitz = 0, spitz_verify = 0, baseline = 0,
         baseline_verify = 0;
};

Measurement RunReads(size_t records) {
  std::vector<PosEntry> data = MakeRecords(records);
  Random rng(7);
  auto random_key = [&](size_t) -> const std::string& {
    return data[rng.Uniform(data.size())].key;
  };

  Measurement m;
  {
    ImmutableKvs kvs;
    if (!kvs.BulkLoad(data).ok()) abort();
    std::string value;
    m.kvs = MeasureOpsPerSec(kReadOps, [&](size_t i) {
      kvs.Get(random_key(i), &value);
    }) / 1000.0;
  }
  {
    SpitzDb spitz;
    if (!spitz.BulkLoad(data).ok()) abort();
    std::string value;
    m.spitz = MeasureOpsPerSec(kReadOps, [&](size_t i) {
      spitz.Get(random_key(i), &value);
    }) / 1000.0;
    // Verified read: proof assembled from the same traversal, verified
    // client-side against the digest.
    SpitzDigest digest = spitz.Digest();
    m.spitz_verify = MeasureOpsPerSec(kVerifiedReadOps, [&](size_t i) {
      ReadProof proof;
      const std::string& key = random_key(i);
      if (!spitz.Read(kCurrentVersion, key, &value, &proof).ok()) abort();
      if (!VerifyRead(digest, key, value, proof).ok()) abort();
    }) / 1000.0;
  }
  {
    BaselineDb baseline;
    if (!baseline.BulkLoad(data).ok()) abort();
    baseline.FlushBlock();
    std::string value;
    m.baseline = MeasureOpsPerSec(kReadOps, [&](size_t i) {
      baseline.Get(random_key(i), &value);
    }) / 1000.0;
    JournalDigest digest = baseline.Digest();
    m.baseline_verify = MeasureOpsPerSec(kVerifiedReadOps, [&](size_t i) {
      BaselineDb::VerifiedValue vv;
      const std::string& key = random_key(i);
      if (!baseline.GetVerified(key, &vv).ok()) abort();
      if (!BaselineDb::VerifyValue(digest, key, vv).ok()) abort();
    }) / 1000.0;
  }
  return m;
}

Measurement RunWrites(size_t records) {
  std::vector<PosEntry> data = MakeRecords(records);
  // Fresh key-value pairs to write during measurement (updates of
  // existing records).
  Random rng(13);
  auto target = [&](size_t) -> const std::string& {
    return data[rng.Uniform(data.size())].key;
  };
  Random value_rng(17);

  Measurement m;
  {
    ImmutableKvs kvs;
    if (!kvs.BulkLoad(data).ok()) abort();
    m.kvs = MeasureOpsPerSec(kWriteOps, [&](size_t i) {
      if (!kvs.Put(target(i), value_rng.Bytes(20)).ok()) abort();
    }) / 1000.0;
  }
  {
    SpitzDb spitz;
    if (!spitz.BulkLoad(data).ok()) abort();
    m.spitz = MeasureOpsPerSec(kWriteOps, [&](size_t i) {
      if (!spitz.Put(target(i), value_rng.Bytes(20)).ok()) abort();
    }) / 1000.0;
  }
  {
    // Spitz with deferred, batched verification (section 5.3): one
    // block-level audit per sealed block; the drain at the end is part
    // of the measured time.
    SpitzOptions options;
    SpitzDb spitz(options);
    if (!spitz.BulkLoad(data).ok()) abort();
    uint64_t start = MonotonicNanos();
    for (size_t i = 0; i < kWriteOps; i++) {
      if (!spitz.Put(target(i), value_rng.Bytes(20)).ok()) abort();
      if ((i + 1) % options.block_size == 0) {
        if (!spitz.auditor()->AuditLastBlock().ok()) abort();
      }
    }
    if (!spitz.auditor()->Drain().ok()) abort();
    uint64_t elapsed = MonotonicNanos() - start;
    m.spitz_verify =
        static_cast<double>(kWriteOps) * 1e9 / elapsed / 1000.0;
  }
  {
    BaselineDb baseline;
    if (!baseline.BulkLoad(data).ok()) abort();
    m.baseline = MeasureOpsPerSec(kWriteOps, [&](size_t i) {
      if (!baseline.Put(target(i), value_rng.Bytes(20)).ok()) abort();
    }) / 1000.0;
  }
  {
    // Baseline with verification: the service has no batched proof
    // path, so the client verifies each write by fetching its proof
    // individually once the enclosing block seals.
    BaselineDb::Options options;
    BaselineDb baseline(options);
    if (!baseline.BulkLoad(data).ok()) abort();
    // Align block boundaries with the verification batches below.
    baseline.FlushBlock();
    std::vector<std::string> since_seal;
    uint64_t start = MonotonicNanos();
    for (size_t i = 0; i < kWriteOps; i++) {
      const std::string& key = target(i);
      if (!baseline.Put(key, value_rng.Bytes(20)).ok()) abort();
      since_seal.push_back(key);
      if (since_seal.size() == options.block_size) {
        JournalDigest digest = baseline.Digest();
        for (const std::string& k : since_seal) {
          BaselineDb::VerifiedValue vv;
          if (!baseline.GetVerified(k, &vv).ok()) abort();
          if (!BaselineDb::VerifyValue(digest, k, vv).ok()) abort();
        }
        since_seal.clear();
      }
    }
    uint64_t elapsed = MonotonicNanos() - start;
    m.baseline_verify =
        static_cast<double>(kWriteOps) * 1e9 / elapsed / 1000.0;
  }
  return m;
}

// The reads' ranks. The KVS and Spitz share one read path, so "KVS
// fastest" is gated only as far as their run-to-run noise allows.
void CheckReads(size_t records, const Measurement& m, RankChecks* ranks) {
  ranks->AtLeast("read: ImmutableKVS / Spitz", records, m.kvs, m.spitz, 0.5);
  ranks->AtLeast("read: Baseline / Spitz (plain within 2x)", records,
                 m.baseline, m.spitz, 0.5);
  ranks->AtLeast("read: Baseline / Baseline-verify", records, m.baseline,
                 m.baseline_verify, 10);
  ranks->AtLeast("read: Spitz-verify / Baseline-verify", records,
                 m.spitz_verify, m.baseline_verify, 3);
}

// The writes' ranks. Baseline-verify adds one proof per write to
// Baseline's writes, a gap within this host's noise, so "Baseline-verify
// worst" is gated only as far as that noise allows.
void CheckWrites(size_t records, const Measurement& m, RankChecks* ranks) {
  ranks->AtLeast("write: Spitz / ImmutableKVS", records, m.spitz, m.kvs, 0.5);
  ranks->AtLeast("write: Spitz-verify / ImmutableKVS", records,
                 m.spitz_verify, m.kvs, 0.5);
  ranks->AtLeast("write: Spitz / Baseline", records, m.spitz, m.baseline,
                 1.5);
  ranks->AtLeast("write: Baseline / Baseline-verify", records, m.baseline,
                 m.baseline_verify, 0.75);
}

int Run() {
  const std::vector<std::string> systems = {"ImmutableKVS", "Spitz",
                                            "Spitz-verify", "Baseline",
                                            "Baseline-verify"};
  RankChecks ranks;
  std::vector<std::pair<size_t, Measurement>> rows;
  PrintHeader(
      "Figure 6(a): read-only throughput, single thread (Kops/s)",
      systems);
  for (size_t records : RecordScales()) {
    Measurement m = RunReads(records);
    PrintRow(records,
             {m.kvs, m.spitz, m.spitz_verify, m.baseline, m.baseline_verify});
    rows.emplace_back(records, m);
  }
  PrintFooter(
      "shape: KVS fastest; Spitz ~ Baseline plain; Baseline-verify ~2 "
      "orders below Baseline; Spitz-verify >> Baseline-verify (paper: 7x)");
  for (const auto& [records, m] : rows) CheckReads(records, m, &ranks);

  rows.clear();
  PrintHeader(
      "Figure 6(b): write-only throughput, single thread (Kops/s)",
      systems);
  for (size_t records : RecordScales()) {
    Measurement m = RunWrites(records);
    PrintRow(records,
             {m.kvs, m.spitz, m.spitz_verify, m.baseline, m.baseline_verify});
    rows.emplace_back(records, m);
  }
  PrintFooter(
      "shape: Spitz ~ ImmutableKVS with and without verification "
      "(deferred batch audits); Baseline much worse (multiple views); "
      "Baseline-verify worst (per-record proof retrieval)");
  for (const auto& [records, m] : rows) CheckWrites(records, m, &ranks);
  return ranks.ExitCode();
}

}  // namespace
}  // namespace bench
}  // namespace spitz

int main() { return spitz::bench::Run(); }
