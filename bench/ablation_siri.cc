// Ablation A1 (DESIGN.md): the SIRI index family compared.
//
// Paper section 3.1 cites the SIRI analysis ([59]) concluding that the
// POS-tree "has better overall performance" among the three instances
// (POS-tree, Merkle Patricia Trie, Merkle Bucket Tree).
//
// Phase 1 reproduces that comparison at the index level — every
// backend driven through the uniform SiriIndex interface — on the
// dimensions Spitz's ledger cares about: point read, point update,
// wire-format proof size, client verification cost, and version
// sharing (chunks added per update).
//
// Phase 2 runs the *whole SpitzDb stack* on each backend via
// SpitzOptions::index_backend: block sealing, digest publication,
// snapshot reads, proof generation, and a full encode -> decode ->
// verify wire round trip per proof (what a remote client actually
// pays), plus the deferred audit path.

#include <cstdio>

#include "bench/bench_util.h"
#include "chunk/chunk_store.h"
#include "core/spitz_db.h"
#include "index/siri.h"

namespace spitz {
namespace bench {
namespace {

// Index-level phase: POS-tree puts are cheap, MBT puts rewrite a whole
// bucket plus the directory, so sizes are chosen to keep the slowest
// backend in the seconds range.
constexpr size_t kRecords = 100000;
constexpr size_t kReadOps = 20000;
constexpr size_t kWriteOps = 3000;
constexpr size_t kProofOps = 3000;

// System-level phase (every op also pays ledger sealing + snapshots).
constexpr size_t kDbRecords = 20000;
constexpr size_t kDbWriteOps = 2000;
constexpr size_t kDbReadOps = 10000;
constexpr size_t kDbProofOps = 2000;
constexpr size_t kDbAuditOps = 500;

constexpr SiriBackend kBackends[] = {SiriBackend::kPosTree,
                                     SiriBackend::kMerklePatriciaTrie,
                                     SiriBackend::kMerkleBucketTree};

struct IndexResult {
  const char* name;
  double get_kops;
  double put_kops;
  double verify_kops;
  double proof_bytes;
  double chunks_per_update;
};

void PrintIndexResult(const IndexResult& r) {
  printf("%-10s  %12.1f  %12.1f  %14.1f  %14.0f  %18.1f\n", r.name,
         r.get_kops, r.put_kops, r.verify_kops, r.proof_bytes,
         r.chunks_per_update);
}

IndexResult RunIndexLevel(SiriBackend kind,
                          const std::vector<PosEntry>& data) {
  ChunkStore store;
  std::unique_ptr<SiriIndex> index = MakeSiriIndex(kind, &store);
  Hash256 root = index->EmptyRoot();
  if (!index->Build(data, &root).ok()) abort();

  Random rng(5);
  auto random_key = [&]() -> const std::string& {
    return data[rng.Uniform(data.size())].key;
  };
  IndexResult r;
  r.name = SiriBackendName(kind);

  std::string value;
  r.get_kops = MeasureOpsPerSec(kReadOps, [&](size_t) {
    if (!index->Get(root, random_key(), &value, nullptr).ok()) abort();
  }) / 1000.0;

  uint64_t chunks_before = store.stats().chunk_count;
  Random value_rng(6);
  Hash256 w = root;
  r.put_kops = MeasureOpsPerSec(kWriteOps, [&](size_t) {
    IndexWrites one{{PosEntry{random_key(), value_rng.Bytes(20)}}, {}};
    if (!index->Apply(w, std::move(one), &w).ok()) abort();
  }) / 1000.0;
  r.chunks_per_update =
      static_cast<double>(store.stats().chunk_count - chunks_before) /
      kWriteOps;

  // Proof generation + serialization + client verification, measured as
  // a remote client pays it: the proof crosses a wire, so the verified
  // object is a *decoded* envelope and the size is the encoded size.
  double total_proof_bytes = 0;
  r.verify_kops = MeasureOpsPerSec(kProofOps, [&](size_t) {
    const std::string& key = random_key();
    SiriProof proof;
    if (!index->Get(w, key, &value, &proof).ok()) abort();
    std::string wire = proof.Encode();
    total_proof_bytes += wire.size();
    SiriProof decoded;
    Slice input(wire);
    if (!SiriProof::DecodeFrom(&input, &decoded).ok()) abort();
    if (!decoded.Verify(w, key, value).ok()) abort();
  }) / 1000.0;
  r.proof_bytes = total_proof_bytes / kProofOps;
  return r;
}

struct DbResult {
  const char* name;
  double put_kops;
  double get_kops;
  double verified_get_kops;
  double wire_proof_bytes;
  double audit_kops;
  bool scan_supported;
};

void PrintDbResult(const DbResult& r) {
  printf("%-10s  %12.1f  %12.1f  %16.1f  %16.0f  %12.1f  %6s\n", r.name,
         r.put_kops, r.get_kops, r.verified_get_kops, r.wire_proof_bytes,
         r.audit_kops, r.scan_supported ? "yes" : "no");
}

DbResult RunSystemLevel(SiriBackend kind, const std::vector<PosEntry>& data,
                        MetricsSnapshot* metrics) {
  SpitzOptions options;
  options.index_backend = kind;
  SpitzDb db(options);
  DbResult r;
  r.name = SiriBackendName(kind);
  r.scan_supported = db.SupportsScan();

  if (!db.BulkLoad(data).ok()) abort();

  Random rng(7);
  auto random_key = [&]() -> const std::string& {
    return data[rng.Uniform(data.size())].key;
  };

  Random value_rng(8);
  r.put_kops = MeasureOpsPerSec(kDbWriteOps, [&](size_t) {
    if (!db.Put(random_key(), value_rng.Bytes(20)).ok()) abort();
  }) / 1000.0;
  if (!db.FlushBlock().ok()) abort();

  std::string value;
  r.get_kops = MeasureOpsPerSec(kDbReadOps, [&](size_t) {
    if (!db.Get(random_key(), &value).ok()) abort();
  }) / 1000.0;

  // Verified read with the full wire round trip: GetProof serializes
  // the evidence the RPC layer ships (ReadProof envelope = index root +
  // tagged SiriProof, plus the digest); VerifyGetEvidence decodes and
  // verifies it as the client does.
  double total_wire_bytes = 0;
  r.verified_get_kops = MeasureOpsPerSec(kDbProofOps, [&](size_t) {
    const std::string& key = random_key();
    VerifiedKv::Evidence evidence;
    if (!db.GetProof(key, &evidence).ok()) abort();
    total_wire_bytes += evidence.proof.size();
    if (!VerifyGetEvidence(key, evidence).ok()) abort();
  }) / 1000.0;
  r.wire_proof_bytes = total_wire_bytes / kDbProofOps;

  r.audit_kops = MeasureOpsPerSec(kDbAuditOps, [&](size_t) {
    if (!db.auditor()->AuditKey(random_key()).ok()) abort();
  }) / 1000.0;
  if (!db.auditor()->Drain().ok()) abort();
  *metrics = db.Metrics();
  return r;
}

void Run() {
  {
    std::vector<PosEntry> data = MakeRecords(kRecords);
    printf("Ablation A1 phase 1: SIRI index family at %zu records\n",
           kRecords);
    printf("%-10s  %12s  %12s  %14s  %14s  %18s\n", "index", "get Kops/s",
           "put Kops/s", "verify Kops/s", "proof bytes", "chunks/update");
    for (SiriBackend kind : kBackends) {
      PrintIndexResult(RunIndexLevel(kind, data));
    }
  }

  {
    std::vector<PosEntry> data = MakeRecords(kDbRecords, 43);
    printf(
        "\nAblation A1 phase 2: full SpitzDb stack per backend at %zu "
        "records (block sealing + digest + wire-format proofs)\n",
        kDbRecords);
    printf("%-10s  %12s  %12s  %16s  %16s  %12s  %6s\n", "backend",
           "put Kops/s", "get Kops/s", "vget Kops/s", "wire proof B",
           "audit Kops/s", "scan");
    std::vector<std::pair<const char*, MetricsSnapshot>> per_backend;
    for (SiriBackend kind : kBackends) {
      MetricsSnapshot metrics;
      PrintDbResult(RunSystemLevel(kind, data, &metrics));
      per_backend.emplace_back(SiriBackendName(kind), std::move(metrics));
    }
    // Machine-readable tail: each backend's full registry snapshot
    // (latency percentiles, per-backend proof-size histograms) for
    // BENCH_*.json tracking.
    printf("\nMETRICS_JSON_BEGIN\n{\"benchmark\": \"ablation_siri\", "
           "\"metrics\": {");
    for (size_t i = 0; i < per_backend.size(); i++) {
      printf("%s\"%s\": %s", i == 0 ? "" : ", ", per_backend[i].first,
             per_backend[i].second.ToJsonString().c_str());
    }
    printf("}}\nMETRICS_JSON_END\n");
  }

  printf(
      "\nexpected: POS-tree best overall balance (paper 3.1 / SIRI "
      "analysis); MBT pays a full directory rewrite per update and bulky "
      "proofs; MPT pays deeper traversals and per-nibble nodes. Only the "
      "POS-tree backend serves ordered scans, so it alone supports "
      "Figure 7's range queries.\n");
}

}  // namespace
}  // namespace bench
}  // namespace spitz

int main() {
  spitz::bench::Run();
  return 0;
}
