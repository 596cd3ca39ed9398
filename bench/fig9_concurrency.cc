// Concurrency scaling benchmark for the parallel verification pipeline:
//
//  1. Read-proof scaling — N reader threads hammer Read-with-proof +
//     client-side VerifyProof against a preloaded SpitzDb. Reads
//     snapshot the root lock-free and traverse immutable chunks, so
//     throughput should scale with cores (cf. ForkBase's lock-free
//     reads over immutable storage).
//  2. Deferred-verification drain — a fixed batch of proof
//     re-computations is pushed through DeferredVerifier pools of
//     increasing size; drain time should shrink with workers (cf.
//     GlassDB's batched parallel verification).
//
// Emits a JSON document so BENCH_*.json tracking can diff runs.
// Absolute numbers and achievable speedups depend on the machine's core
// count (hardware_concurrency is reported in the JSON).
//
// Usage: fig9_concurrency [num_records] [ops_per_reader] [audit_checks]

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "core/spitz_db.h"
#include "txn/batch_verifier.h"

namespace spitz {
namespace {

const size_t kThreadSweep[] = {1, 2, 4, 8};

struct Point {
  size_t threads = 0;
  double ops_per_sec = 0;
  double speedup = 0;
};

// N threads each run `ops` verified reads; returns aggregate ops/sec.
double RunReaders(const SpitzDb& db, const std::vector<PosEntry>& records,
                  size_t threads, size_t ops) {
  std::atomic<bool> go{false};
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (size_t t = 0; t < threads; t++) {
    pool.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      std::string value;
      ReadProof proof;
      // Each thread strides from a different offset so the sweep
      // touches the whole key space, not one hot leaf.
      size_t i = t * 7919;
      for (size_t n = 0; n < ops; n++) {
        const std::string& key = records[i % records.size()].key;
        if (!db.Read(kCurrentVersion, key, &value, &proof).ok() ||
            !proof.index_proof.Verify(proof.index_root, key, value).ok()) {
          errors.fetch_add(1);
        }
        i += 104729;
      }
    });
  }
  uint64_t start = MonotonicNanos();
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  uint64_t elapsed = MonotonicNanos() - start;
  if (elapsed == 0) elapsed = 1;
  if (errors.load() > 0) {
    fprintf(stderr, "fig9: %" PRIu64 " verified reads failed\n",
            errors.load());
    exit(1);
  }
  return static_cast<double>(threads * ops) * 1e9 /
         static_cast<double>(elapsed);
}

// Pushes `checks` proof verifications through a W-worker verifier and
// times Submit-to-drain.
double RunVerifierDrain(const SpitzDb& db,
                        const std::vector<PosEntry>& records, size_t workers,
                        size_t checks) {
  // Pre-compute the proofs once; the measured work is the verification
  // itself (hash re-computation up the proof path), which is what the
  // deferred scheme runs off the commit path.
  SpitzDigest digest = db.Digest();
  std::vector<std::pair<std::string, std::string>> kvs(checks);
  std::vector<ReadProof> proofs(checks);
  for (size_t i = 0; i < checks; i++) {
    const std::string& key = records[(i * 7919) % records.size()].key;
    kvs[i].first = key;
    if (!db.Read(kCurrentVersion, key, &kvs[i].second, &proofs[i]).ok()) {
      abort();
    }
  }

  DeferredVerifier verifier(
      DeferredVerifier::Options(/*batch=*/64, /*workers=*/workers));
  uint64_t start = MonotonicNanos();
  for (size_t i = 0; i < checks; i++) {
    const auto* kv = &kvs[i];
    const ReadProof* proof = &proofs[i];
    verifier.Submit([kv, proof, &digest] {
      return VerifyRead(digest, kv->first, kv->second, *proof);
    });
  }
  verifier.Flush();
  uint64_t elapsed = MonotonicNanos() - start;
  if (elapsed == 0) elapsed = 1;
  if (verifier.failed() || verifier.verified_count() != checks) {
    fprintf(stderr, "fig9: verifier drain failed (%" PRIu64 "/%zu ok)\n",
            verifier.verified_count(), checks);
    exit(1);
  }
  return static_cast<double>(checks) * 1e9 / static_cast<double>(elapsed);
}

void PrintPoints(const char* key, const std::vector<Point>& points,
                 bool* first_section) {
  if (!*first_section) printf(",\n");
  *first_section = false;
  printf("  \"%s\": [\n", key);
  for (size_t i = 0; i < points.size(); i++) {
    printf("    {\"threads\": %zu, \"ops_per_sec\": %.1f, "
           "\"speedup_vs_1\": %.2f}%s\n",
           points[i].threads, points[i].ops_per_sec, points[i].speedup,
           i + 1 < points.size() ? "," : "");
  }
  printf("  ]");
}

}  // namespace
}  // namespace spitz

int main(int argc, char** argv) {
  using namespace spitz;
  size_t num_records = argc > 1 ? strtoull(argv[1], nullptr, 10) : 100000;
  size_t ops_per_reader = argc > 2 ? strtoull(argv[2], nullptr, 10) : 20000;
  size_t audit_checks = argc > 3 ? strtoull(argv[3], nullptr, 10) : 50000;
  if (num_records == 0 || ops_per_reader == 0 || audit_checks == 0) {
    fprintf(stderr,
            "usage: %s [num_records] [ops_per_reader] [audit_checks]\n"
            "       all arguments must be positive integers\n",
            argv[0]);
    return 2;
  }

  std::vector<PosEntry> records = bench::MakeRecords(num_records);

  SpitzOptions options;
  options.audit_batch_size = 64;
  SpitzDb db(options);
  if (!db.BulkLoad(records).ok()) {
    fprintf(stderr, "fig9: bulk load failed\n");
    return 1;
  }
  // Warm the node cache with one pass so every sweep point sees the
  // same steady-state cache.
  std::string value;
  for (const PosEntry& r : records) {
    if (!db.Get(r.key, &value).ok()) return 1;
  }

  std::vector<Point> read_points;
  for (size_t threads : kThreadSweep) {
    Point p;
    p.threads = threads;
    p.ops_per_sec = RunReaders(db, records, threads, ops_per_reader);
    p.speedup = read_points.empty() ? 1.0
                                    : p.ops_per_sec / read_points[0].ops_per_sec;
    read_points.push_back(p);
  }

  std::vector<Point> drain_points;
  for (size_t workers : kThreadSweep) {
    Point p;
    p.threads = workers;
    p.ops_per_sec = RunVerifierDrain(db, records, workers, audit_checks);
    p.speedup = drain_points.empty()
                    ? 1.0
                    : p.ops_per_sec / drain_points[0].ops_per_sec;
    drain_points.push_back(p);
  }

  MetricsSnapshot metrics = db.Metrics();
  uint64_t hits = metrics.CounterValue("index.cache.hits");
  uint64_t misses = metrics.CounterValue("index.cache.misses");
  printf("{\n");
  printf("  \"benchmark\": \"fig9_concurrency\",\n");
  printf("  \"num_records\": %zu,\n", num_records);
  printf("  \"hardware_concurrency\": %u,\n",
         std::thread::hardware_concurrency());
  bool first_section = true;
  PrintPoints("read_proof_scaling", read_points, &first_section);
  PrintPoints("verifier_drain_scaling", drain_points, &first_section);
  printf(",\n  \"node_cache\": {\"hits\": %" PRIu64 ", \"misses\": %" PRIu64
         ", \"hit_rate\": %.4f, \"bytes\": %" PRIu64 "}",
         hits, misses,
         hits + misses == 0
             ? 0.0
             : static_cast<double>(hits) / static_cast<double>(hits + misses),
         metrics.GaugeValue("index.cache.bytes"));
  // The full registry snapshot rides along so BENCH_*.json diffs can
  // track latency percentiles and proof sizes without re-deriving them.
  printf(",\n  \"metrics\": %s\n", metrics.ToJsonString().c_str());
  printf("}\n");
  return 0;
}
