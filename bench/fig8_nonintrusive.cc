// Reproduces paper Figure 8: "Non-intrusive design vs. Spitz."
//
// Section 6.2.3 deploys an immutable KVS as the underlying database and
// a Spitz instance as the Ledger database (Figure 3), connected by an
// RPC boundary, and compares against standalone Spitz:
//
//   (a) reads:  Spitz-verify ~ 6x Non-intrusive-verify — the composed
//       design pays an extra round trip to the ledger per proof;
//   (b) writes: Spitz ~ 3x Non-intrusive — each write must commit in
//       both systems.
//
// The composed design's two services are served over real loopback TCP
// sockets (framing, CRC, kernel round trips), so the overhead is
// measured, not modelled. The results land in one JSON document so
// BENCH_*.json tracking can diff runs. Both ranks are checked at every
// scale (RankChecks, on stderr; margins in EXPERIMENTS.md); the binary
// exits non-zero when one inverts.

#include "bench/bench_util.h"
#include "core/spitz_db.h"
#include "nonintrusive/non_intrusive_db.h"

namespace spitz {
namespace bench {
namespace {

constexpr size_t kReadOps = 20000;
constexpr size_t kVerifiedReadOps = 3000;
constexpr size_t kWriteOps = 4000;

std::unique_ptr<NonIntrusiveDb> MakeComposed() {
  std::unique_ptr<NonIntrusiveDb> composed;
  if (!NonIntrusiveDb::Open(NonIntrusiveDb::Options(), &composed).ok()) {
    fprintf(stderr, "fig8: failed to start the tcp transport\n");
    exit(1);
  }
  return composed;
}

struct Row {
  size_t records = 0;
  double spitz = 0, spitz_verify = 0;              // Kops/s
  double composed = 0, composed_verify = 0;        // Kops/s
};

Row RunReads(size_t records) {
  std::vector<PosEntry> data = MakeRecords(records);
  Random rng(7);
  auto random_key = [&](size_t) -> const std::string& {
    return data[rng.Uniform(data.size())].key;
  };

  Row row;
  row.records = records;
  {
    SpitzDb spitz;
    if (!spitz.BulkLoad(data).ok()) abort();
    std::string value;
    row.spitz = MeasureOpsPerSec(kReadOps, [&](size_t i) {
      spitz.Get(random_key(i), &value);
    }) / 1000.0;
    SpitzDigest digest = spitz.Digest();
    row.spitz_verify = MeasureOpsPerSec(kVerifiedReadOps, [&](size_t i) {
      ReadProof proof;
      const std::string& key = random_key(i);
      if (!spitz.Read(kCurrentVersion, key, &value, &proof).ok()) abort();
      if (!VerifyRead(digest, key, value, proof).ok()) abort();
    }) / 1000.0;
  }
  {
    std::unique_ptr<NonIntrusiveDb> composed = MakeComposed();
    if (!composed->BulkLoad(data).ok()) abort();
    std::string value;
    row.composed = MeasureOpsPerSec(kReadOps / 2, [&](size_t i) {
      composed->Get(random_key(i), &value);
    }) / 1000.0;
    SpitzDigest digest = composed->Digest();
    row.composed_verify = MeasureOpsPerSec(kVerifiedReadOps, [&](size_t i) {
      NonIntrusiveDb::VerifiedValue vv;
      const std::string& key = random_key(i);
      if (!composed->GetVerified(key, &vv).ok()) abort();
      if (!NonIntrusiveDb::VerifyValue(digest, key, vv).ok()) abort();
    }) / 1000.0;
  }
  return row;
}

Row RunWrites(size_t records) {
  std::vector<PosEntry> data = MakeRecords(records);
  Random rng(13);
  auto target = [&](size_t) -> const std::string& {
    return data[rng.Uniform(data.size())].key;
  };
  Random value_rng(17);

  Row row;
  row.records = records;
  {
    SpitzDb spitz;
    if (!spitz.BulkLoad(data).ok()) abort();
    row.spitz = MeasureOpsPerSec(kWriteOps, [&](size_t i) {
      if (!spitz.Put(target(i), value_rng.Bytes(20)).ok()) abort();
    }) / 1000.0;
  }
  {
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
    row.spitz_verify = static_cast<double>(kWriteOps) * 1e9 /
                       (MonotonicNanos() - start) / 1000.0;
  }
  {
    std::unique_ptr<NonIntrusiveDb> composed = MakeComposed();
    if (!composed->BulkLoad(data).ok()) abort();
    // Writes commit in both systems whether or not the client later
    // verifies, so "Non-intrusive" and "Non-intrusive-verify" writes
    // differ only in the client's verification of the write's proof.
    row.composed = MeasureOpsPerSec(kWriteOps, [&](size_t i) {
      if (!composed->Put(target(i), value_rng.Bytes(20)).ok()) abort();
    }) / 1000.0;
  }
  {
    std::unique_ptr<NonIntrusiveDb> composed = MakeComposed();
    if (!composed->BulkLoad(data).ok()) abort();
    SpitzDigest digest;
    row.composed_verify = MeasureOpsPerSec(kWriteOps / 2, [&](size_t i) {
      const std::string& key = target(i);
      if (!composed->Put(key, value_rng.Bytes(20)).ok()) abort();
      // Client verification of the write: fetch the proof from the
      // ledger database and check the binding.
      NonIntrusiveDb::VerifiedValue vv;
      if (!composed->GetVerified(key, &vv).ok()) abort();
      digest = composed->Digest();
      if (!NonIntrusiveDb::VerifyValue(digest, key, vv).ok()) abort();
    }) / 1000.0;
  }
  return row;
}

void PrintRows(const char* key, const std::vector<Row>& rows,
               bool* first_section) {
  if (!*first_section) printf(",\n");
  *first_section = false;
  printf("  \"%s\": [\n", key);
  for (size_t i = 0; i < rows.size(); i++) {
    const Row& r = rows[i];
    printf("    {\"records\": %zu, \"spitz_kops\": %.2f, "
           "\"spitz_verify_kops\": %.2f, \"nonintrusive\": "
           "{\"transport\": \"tcp\", \"plain_kops\": %.2f, "
           "\"verify_kops\": %.2f}}%s\n",
           r.records, r.spitz, r.spitz_verify, r.composed, r.composed_verify,
           i + 1 < rows.size() ? "," : "");
  }
  printf("  ]");
}

// One measured loopback round trip per Digest() call: the per-hop cost
// the composed design pays on the machine that runs the bench.
double MeasureTcpRttMicros() {
  std::unique_ptr<NonIntrusiveDb> composed = MakeComposed();
  constexpr size_t kProbes = 2000;
  uint64_t start = MonotonicNanos();
  for (size_t i = 0; i < kProbes; i++) composed->Digest();
  return static_cast<double>(MonotonicNanos() - start) / kProbes / 1000.0;
}

int Run() {
  std::vector<Row> reads, writes;
  for (size_t records : RecordScales()) reads.push_back(RunReads(records));
  for (size_t records : RecordScales()) writes.push_back(RunWrites(records));

  printf("{\n");
  printf("  \"benchmark\": \"fig8_nonintrusive\",\n");
  printf("  \"transport_config\": {\"tcp_digest_rtt_micros\": %.2f},\n",
         MeasureTcpRttMicros());
  bool first_section = true;
  PrintRows("reads", reads, &first_section);
  PrintRows("writes", writes, &first_section);
  printf(",\n  \"shape\": [\n");
  printf("    \"reads: Spitz-verify several-fold above "
         "Non-intrusive-verify (paper: ~6x) — the composed design pays "
         "RPC hops to two systems\",\n");
  printf("    \"writes: Spitz several-fold above Non-intrusive (paper: "
         "~3x) — every write commits in both the underlying and ledger "
         "databases\"\n");
  printf("  ]\n");
  printf("}\n");

  RankChecks ranks("records", stderr);
  for (const Row& r : reads) {
    ranks.AtLeast("read: Spitz-verify / Non-intrusive-verify", r.records,
                  r.spitz_verify, r.composed_verify, 3);
  }
  for (const Row& r : writes) {
    ranks.AtLeast("write: Spitz / Non-intrusive", r.records, r.spitz,
                  r.composed, 2);
  }
  return ranks.ExitCode();
}

}  // namespace
}  // namespace bench
}  // namespace spitz

int main() { return spitz::bench::Run(); }
