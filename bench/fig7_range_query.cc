// Reproduces paper Figure 7: "Range query performance."
//
// Analytical workload (section 6.2.2): range queries on the primary key
// with selectivity fixed at 0.1%, databases of 10,000..1,280,000
// records, across the five systems of Figure 6.
//
// Expected shape:
//  * range throughput is 25-90% below the point-read throughput of
//    Figure 6(a) (more nodes traversed and scanned);
//  * throughput falls as the record count grows (fixed selectivity =>
//    more records fetched per query);
//  * with verification, Spitz outperforms the baseline by up to two
//    orders of magnitude — proofs ride along with the scan in Spitz,
//    while the baseline retrieves each record's proof individually.
//
// The last two are checked (RankChecks, margins in EXPERIMENTS.md); the
// binary exits non-zero when one inverts.

#include "baseline/baseline_db.h"
#include "bench/bench_util.h"
#include "core/spitz_db.h"
#include "kvs/immutable_kvs.h"

namespace spitz {
namespace bench {
namespace {

constexpr double kSelectivity = 0.001;  // 0.1%

size_t QueriesForScale(size_t records) {
  // Keep total scanned volume roughly constant across scales, with a
  // floor that keeps per-point variance low.
  size_t q = 4000000 / records;
  return q < 50 ? 50 : q;
}

int Run() {
  const std::vector<std::string> systems = {"ImmutableKVS", "Spitz",
                                            "Spitz-verify", "Baseline",
                                            "Baseline-verify"};
  PrintHeader("Figure 7: range query throughput, selectivity 0.1% (Kops/s)",
              systems);
  const std::vector<size_t> scales = RecordScales();
  // Per scale, each system's Kops/s in `systems` order.
  std::vector<std::vector<double>> rows;

  for (size_t records : scales) {
    std::vector<PosEntry> data = MakeRecords(records);
    // Sorted keys let us pick range starts with a known span.
    std::vector<std::string> sorted_keys;
    sorted_keys.reserve(data.size());
    for (const auto& e : data) sorted_keys.push_back(e.key);
    std::sort(sorted_keys.begin(), sorted_keys.end());
    const size_t span = static_cast<size_t>(records * kSelectivity);
    Random rng(23);
    auto pick_range = [&](std::string* start, std::string* end) {
      size_t i = rng.Uniform(sorted_keys.size() - span - 1);
      *start = sorted_keys[i];
      *end = sorted_keys[i + span];
    };
    const size_t queries = QueriesForScale(records);

    double kvs_kops, spitz_kops, spitz_verify_kops, baseline_kops,
        baseline_verify_kops;
    {
      ImmutableKvs kvs;
      if (!kvs.BulkLoad(data).ok()) abort();
      std::vector<PosEntry> rows;
      kvs_kops = MeasureOpsPerSec(queries, [&](size_t) {
        std::string start, end;
        pick_range(&start, &end);
        if (!kvs.Scan(start, end, 0, &rows).ok()) abort();
      }) / 1000.0;
    }
    {
      SpitzDb spitz;
      if (!spitz.BulkLoad(data).ok()) abort();
      std::vector<PosEntry> rows;
      spitz_kops = MeasureOpsPerSec(queries, [&](size_t) {
        std::string start, end;
        pick_range(&start, &end);
        if (!spitz.Scan(start, end, 0, &rows).ok()) abort();
      }) / 1000.0;
      SpitzDigest digest = spitz.Digest();
      // Verified range query: proofs are gathered during the same
      // traversal that produces the result ("returned simultaneously
      // when the resultant records are scanned and selected").
      spitz_verify_kops = MeasureOpsPerSec(queries, [&](size_t) {
        std::string start, end;
        pick_range(&start, &end);
        ScanProof proof;
        if (!spitz.ReadRange(kCurrentVersion, start, end, 0, &rows, &proof)
                 .ok()) {
          abort();
        }
        if (!VerifyScan(digest, start, end, 0, rows, proof).ok()) {
          abort();
        }
      }) / 1000.0;
    }
    {
      BaselineDb baseline;
      if (!baseline.BulkLoad(data).ok()) abort();
      baseline.FlushBlock();
      std::vector<PosEntry> rows;
      baseline_kops = MeasureOpsPerSec(queries, [&](size_t) {
        std::string start, end;
        pick_range(&start, &end);
        if (!baseline.Scan(start, end, 0, &rows).ok()) abort();
      }) / 1000.0;
      JournalDigest digest = baseline.Digest();
      // Verified range query: one per-record ledger search per row.
      const size_t verified_queries = queries > 200 ? 200 : queries;
      baseline_verify_kops = MeasureOpsPerSec(verified_queries, [&](size_t) {
        std::string start, end;
        pick_range(&start, &end);
        std::vector<BaselineDb::VerifiedValue> vrows;
        if (!baseline.ScanVerified(start, end, 0, &vrows).ok()) abort();
        for (const auto& vv : vrows) {
          if (!BaselineDb::VerifyValue(digest, vv.entry.key, vv).ok()) {
            abort();
          }
        }
      }) / 1000.0;
    }
    rows.push_back({kvs_kops, spitz_kops, spitz_verify_kops, baseline_kops,
                    baseline_verify_kops});
    PrintRow(records, rows.back());
  }
  PrintFooter(
      "shape: throughput falls with record count (fixed selectivity); "
      "Spitz-verify up to ~2 orders above Baseline-verify (batched proof "
      "retrieval vs per-record ledger search)");
  RankChecks ranks;
  for (size_t i = 0; i < rows.size(); i++) {
    ranks.AtLeast("Spitz-verify / Baseline-verify", scales[i], rows[i][2],
                  rows[i][4], 10);
  }
  // Each system at the smallest scale against itself at the largest.
  // Between scales closer than 4x apart the verified series' fall is
  // within this host's noise, so it is checked from 4x apart.
  if (scales.size() > 1 && scales.back() >= 4 * scales.front()) {
    for (size_t s = 0; s < systems.size(); s++) {
      ranks.AtLeast(systems[s] + ": smallest scale / largest",
                    scales.back(), rows.front()[s], rows.back()[s], 1.1);
    }
  }
  return ranks.ExitCode();
}

}  // namespace
}  // namespace bench
}  // namespace spitz

int main() { return spitz::bench::Run(); }
