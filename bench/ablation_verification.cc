// Ablation A2 (DESIGN.md): online vs deferred verification.
//
// Paper section 5.3: "To improve verification throughput, we use a
// deferred scheme, which means the transactions are verified
// asynchronously in batch." This benchmark sweeps the auditor batch
// size on a write workload with a per-write audit. Batch size 0 is the
// online scheme (commit waits for verification); larger batches move
// the verification off the critical path and amortize it.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/spitz_db.h"

namespace spitz {
namespace bench {
namespace {

constexpr size_t kRecords = 100000;
constexpr size_t kWriteOps = 4000;

double RunWithBatchSize(size_t batch_size,
                        const std::vector<PosEntry>& data) {
  SpitzOptions options;
  options.audit_batch_size = batch_size;
  SpitzDb db(options);
  if (!db.BulkLoad(data).ok()) abort();

  Random rng(3);
  Random value_rng(4);
  uint64_t start = MonotonicNanos();
  for (size_t i = 0; i < kWriteOps; i++) {
    const std::string& key = data[rng.Uniform(data.size())].key;
    std::string value = value_rng.Bytes(20);
    if (!db.Put(key, value).ok()) abort();
    // Every write is audited; in online mode this blocks the writer.
    Status s = db.auditor()->AuditKey(key);
    if (!s.ok()) abort();
  }
  if (!db.auditor()->Drain().ok()) abort();
  uint64_t elapsed = MonotonicNanos() - start;
  return static_cast<double>(kWriteOps) * 1e9 / elapsed / 1000.0;
}

void Run() {
  std::vector<PosEntry> data = MakeRecords(kRecords);
  printf(
      "Ablation A2: write throughput vs verification scheme "
      "(%zu records, per-write audit)\n",
      kRecords);
  printf("%-24s  %16s\n", "scheme", "writes Kops/s");
  const size_t batch_sizes[] = {0, 1, 8, 64, 256, 1024};
  double online = 0;
  double best_deferred = 0;
  for (size_t b : batch_sizes) {
    double kops = RunWithBatchSize(b, data);
    char label[64];
    if (b == 0) {
      snprintf(label, sizeof(label), "online (batch=0)");
      online = kops;
    } else {
      snprintf(label, sizeof(label), "deferred (batch=%zu)", b);
      if (kops > best_deferred) best_deferred = kops;
    }
    printf("%-24s  %16.1f\n", label, kops);
  }
  printf(
      "\nexpected: deferred beats online (section 5.3); gains grow with "
      "batch size until the audit thread saturates. measured speedup: "
      "%.2fx\n",
      online > 0 ? best_deferred / online : 0.0);
}

}  // namespace
}  // namespace bench
}  // namespace spitz

int main() {
  spitz::bench::Run();
  return 0;
}
