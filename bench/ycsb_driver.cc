// YCSB workload driver: production-shaped traffic over real loopback
// TCP, against both deployment shapes of the one VerifiedKv surface —
// a single served SpitzServer and a >=3-shard cluster behind
// ClusterClient (so cross-shard 2PC batches see skewed contention).
//
// All six standard mixes run under both key choosers:
//
//   A  update-heavy       50% read / 50% update
//   B  read-heavy         95% read /  5% update
//   C  read-only         100% read
//   D  read-latest        95% read of recently inserted keys / 5% insert
//   E  scan-heavy         95% short range scan / 5% insert
//   F  read-modify-write  50% read / 50% two-key RMW transaction
//
//   zipfian — the YCSB scrambled-zipfian chooser (theta 0.99): ranks
//     drawn from a zipfian distribution, then hashed across the key
//     space, so a handful of hot keys dominate but land on different
//     shards.
//   uniform — every key equally likely.
//
// A sampled fraction of reads (1 in kVerifyEvery) runs verified —
// proof fetched, checked against the digest client-side — so the
// emitted verified-vs-raw ratio tracks the real cost of verification
// under load. Mix F's RMW commits a two-key atomic batch, which on the
// cluster takes client-driven 2PC whenever the keys land on different
// shards — under zipfian skew that is exactly the contended-coordinator
// scenario the paper's section 5.2 worries about.
//
// Emits BENCH_ycsb.json (override with --out <path>): per-mix
// throughput, p50/p95/p99 latency from the shared log2 histograms,
// verified-vs-raw read counts, proof failures, errors, Busy conflicts
// and 2PC commit counts. --smoke shrinks every dimension and turns the
// invariants into hard assertions (zero errors, zero proof failures,
// cluster mix F saw real 2PC) for the CI leg.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_client.h"
#include "cluster/local_fleet.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/random.h"
#include "spitzbench/workload_keys.h"

namespace spitz {
namespace {

int failures = 0;

#define Y_CHECK(cond, what)                                            \
  do {                                                                 \
    if (!(cond)) {                                                     \
      fprintf(stderr, "ycsb_driver: FAILED: %s (%s)\n", what, #cond);  \
      failures++;                                                      \
    }                                                                  \
  } while (0)

constexpr size_t kValueBytes = 100;
// Every kVerifyEvery-th read per worker runs with options.verify.
constexpr uint64_t kVerifyEvery = 10;

// --- Key choosers -----------------------------------------------------------

// The zipfian generator, scramble and key format are the repository
// benchmark's, so a key index names the same record in both.
using bench::RecordKey;

struct KeyChooser {
  enum class Kind { kZipfian, kUniform };

  KeyChooser(Kind kind, uint64_t items)
      : kind(kind), items(items), zipf(items) {}

  // A key index in [0, items), hot-key skewed under zipfian.
  uint64_t Next(Random* rng) const {
    if (kind == Kind::kUniform) return rng->Uniform(items);
    return bench::Scramble(zipf.Next(rng)) % items;
  }

  // Mix D's "latest" choice: rank 0 is the newest inserted key.
  uint64_t NextLatest(Random* rng, uint64_t inserted) const {
    const uint64_t rank = kind == Kind::kUniform
                              ? rng->Uniform(items)
                              : zipf.Next(rng);
    return inserted - 1 - (rank % inserted);
  }

  const char* name() const {
    return kind == Kind::kUniform ? "uniform" : "zipfian";
  }

  Kind kind;
  uint64_t items;
  bench::ZipfianChooser zipf;
};

// --- Mixes ------------------------------------------------------------------

struct MixSpec {
  const char* name;
  int read_pct;    // plain (or sampled-verified) point read
  int update_pct;  // overwrite an existing key
  int insert_pct;  // append a brand-new key
  int scan_pct;    // short range scan
  int rmw_pct;     // two-key read-modify-write transaction
  bool latest;     // reads target recently inserted keys (mix D)
};

constexpr MixSpec kMixes[] = {
    {"A", 50, 50, 0, 0, 0, false}, {"B", 95, 5, 0, 0, 0, false},
    {"C", 100, 0, 0, 0, 0, false}, {"D", 95, 0, 5, 0, 0, true},
    {"E", 0, 0, 5, 95, 0, false},  {"F", 50, 0, 0, 0, 50, false},
};

// --- Per-run shared state ---------------------------------------------------

struct OpStats {
  Histogram read_ns;
  Histogram write_ns;  // updates, inserts and RMW commits
  Histogram scan_ns;
  std::atomic<uint64_t> verified_reads{0};
  std::atomic<uint64_t> raw_reads{0};
  std::atomic<uint64_t> proof_failures{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> busy{0};
};

struct Row {
  std::string target;   // "single" | "cluster3"
  std::string mix;      // "A".."F"
  std::string chooser;  // "zipfian" | "uniform"
  size_t threads = 0;
  uint64_t ops = 0;
  double secs = 0;
  double ops_per_sec = 0;
  double read_p50_us = 0, read_p95_us = 0, read_p99_us = 0;
  double write_p50_us = 0, write_p95_us = 0, write_p99_us = 0;
  double scan_p50_us = 0, scan_p95_us = 0, scan_p99_us = 0;
  uint64_t verified_reads = 0;
  uint64_t raw_reads = 0;
  uint64_t proof_failures = 0;
  uint64_t errors = 0;
  uint64_t busy = 0;
  uint64_t commits_2pc = 0;
};

struct RunConfig {
  uint64_t records = 0;
  size_t threads = 0;
  size_t ops_per_thread = 0;
  size_t scan_ops_per_thread = 0;  // mix E is slower per op
  uint64_t max_scan_limit = 0;
};

// --- The worker loop (shared by both deployment shapes) ---------------------

// Client is SpitzClient or ClusterClient: identical Put/Get/Scan/Write
// signatures via the VerifiedKv surface plus the batch Write.
template <typename Client>
void Worker(Client* client, const MixSpec& mix, const KeyChooser& chooser,
            const RunConfig& config, size_t ops, uint64_t seed,
            std::atomic<uint64_t>* next_insert, OpStats* stats) {
  Random rng(seed);
  uint64_t reads_issued = 0;
  const std::string scan_end = "user~";  // '~' sorts after every digit
  for (size_t i = 0; i < ops; i++) {
    const uint64_t dice = rng.Uniform(100);
    if (dice < static_cast<uint64_t>(mix.read_pct)) {
      const uint64_t inserted = next_insert->load(std::memory_order_relaxed);
      const uint64_t index = mix.latest ? chooser.NextLatest(&rng, inserted)
                                        : chooser.Next(&rng);
      ReadOptions options;
      options.verify = (reads_issued++ % kVerifyEvery) == 0;
      std::string value;
      const uint64_t t0 = MonotonicNanos();
      Status s = client->Get(options, RecordKey(index), &value);
      stats->read_ns.Record(MonotonicNanos() - t0);
      (options.verify ? stats->verified_reads : stats->raw_reads)
          .fetch_add(1, std::memory_order_relaxed);
      if (s.IsVerificationFailed()) {
        stats->proof_failures.fetch_add(1, std::memory_order_relaxed);
        stats->errors.fetch_add(1, std::memory_order_relaxed);
      } else if (!s.ok() && !s.IsNotFound()) {
        stats->errors.fetch_add(1, std::memory_order_relaxed);
      }
    } else if (dice < static_cast<uint64_t>(mix.read_pct + mix.update_pct)) {
      const uint64_t t0 = MonotonicNanos();
      Status s = client->Put(WriteOptions(), RecordKey(chooser.Next(&rng)),
                             rng.Bytes(kValueBytes));
      stats->write_ns.Record(MonotonicNanos() - t0);
      if (!s.ok()) stats->errors.fetch_add(1, std::memory_order_relaxed);
    } else if (dice < static_cast<uint64_t>(mix.read_pct + mix.update_pct +
                                            mix.insert_pct)) {
      const uint64_t index =
          next_insert->fetch_add(1, std::memory_order_relaxed);
      const uint64_t t0 = MonotonicNanos();
      Status s = client->Put(WriteOptions(), RecordKey(index),
                             rng.Bytes(kValueBytes));
      stats->write_ns.Record(MonotonicNanos() - t0);
      if (!s.ok()) stats->errors.fetch_add(1, std::memory_order_relaxed);
    } else if (dice < static_cast<uint64_t>(mix.read_pct + mix.update_pct +
                                            mix.insert_pct + mix.scan_pct)) {
      const uint64_t limit = rng.Range(1, config.max_scan_limit);
      std::vector<PosEntry> rows;
      const uint64_t t0 = MonotonicNanos();
      Status s = client->Scan(ReadOptions(), RecordKey(chooser.Next(&rng)),
                              scan_end, limit, &rows);
      stats->scan_ns.Record(MonotonicNanos() - t0);
      if (!s.ok()) stats->errors.fetch_add(1, std::memory_order_relaxed);
    } else {
      // Two-key read-modify-write: read both, commit one atomic batch.
      // On the cluster this takes 2PC whenever the keys cross shards,
      // which under zipfian skew contends on the hot keys' prepared
      // locks — Busy is that clean conflict, not an error.
      const std::string a = RecordKey(chooser.Next(&rng));
      const std::string b = RecordKey(chooser.Next(&rng));
      std::string va, vb;
      Status s = client->Get(ReadOptions(), a, &va);
      if (!s.ok() && !s.IsNotFound()) {
        stats->errors.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      s = client->Get(ReadOptions(), b, &vb);
      if (!s.ok() && !s.IsNotFound()) {
        stats->errors.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      WriteBatch batch;
      batch.Put(a, rng.Bytes(kValueBytes));
      batch.Put(b, rng.Bytes(kValueBytes));
      const uint64_t t0 = MonotonicNanos();
      s = client->Write(WriteOptions(), batch);
      stats->write_ns.Record(MonotonicNanos() - t0);
      if (s.IsBusy()) {
        stats->busy.fetch_add(1, std::memory_order_relaxed);
      } else if (!s.ok()) {
        stats->errors.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

// --- Deployment shapes ------------------------------------------------------

// "single" drives a one-shard fleet through SpitzClient; "cluster3"
// drives a three-shard fleet through ClusterClient.
void OpenClient(const LocalFleet& fleet, std::unique_ptr<SpitzClient>* out) {
  Y_CHECK(SpitzClient::Open(fleet.ClientOptions(0), out).ok(), "client open");
}

void OpenClient(const LocalFleet& fleet, std::unique_ptr<ClusterClient>* out) {
  Y_CHECK(ClusterClient::Open(fleet.ClusterOptions(), out).ok(),
          "cluster client open");
}

uint64_t Commits2pc(SpitzClient*) { return 0; }

uint64_t Commits2pc(ClusterClient* client) {
  return client->coordinator()->Metrics().CounterValue(
      "cluster.coordinator.commits_2pc");
}

// --- One measured run -------------------------------------------------------

template <typename Client>
Row RunMix(const LocalFleet& fleet, const char* target, const MixSpec& mix,
           const KeyChooser& chooser, const RunConfig& config,
           std::atomic<uint64_t>* next_insert) {
  const size_t ops =
      mix.scan_pct > 0 ? config.scan_ops_per_thread : config.ops_per_thread;
  std::vector<std::unique_ptr<Client>> clients(config.threads);
  for (auto& client : clients) OpenClient(fleet, &client);
  OpStats stats;
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < config.threads; t++) {
    pool.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      Worker(clients[t].get(), mix, chooser, config, ops,
             /*seed=*/0x9c5b ^ (t * 7919) ^ (mix.name[0] << 16), next_insert,
             &stats);
    });
  }
  const uint64_t start = MonotonicNanos();
  go.store(true, std::memory_order_release);
  for (auto& t : pool) t.join();
  const double secs =
      static_cast<double>(MonotonicNanos() - start) / 1e9;

  Row row;
  row.target = target;
  row.mix = mix.name;
  row.chooser = chooser.name();
  row.threads = config.threads;
  row.ops = config.threads * ops;
  row.secs = secs;
  row.ops_per_sec = secs > 0 ? static_cast<double>(row.ops) / secs : 0;
  const HistogramSnapshot reads = stats.read_ns.Snapshot();
  const HistogramSnapshot writes = stats.write_ns.Snapshot();
  const HistogramSnapshot scans = stats.scan_ns.Snapshot();
  row.read_p50_us = reads.Percentile(0.50) / 1e3;
  row.read_p95_us = reads.Percentile(0.95) / 1e3;
  row.read_p99_us = reads.Percentile(0.99) / 1e3;
  row.write_p50_us = writes.Percentile(0.50) / 1e3;
  row.write_p95_us = writes.Percentile(0.95) / 1e3;
  row.write_p99_us = writes.Percentile(0.99) / 1e3;
  row.scan_p50_us = scans.Percentile(0.50) / 1e3;
  row.scan_p95_us = scans.Percentile(0.95) / 1e3;
  row.scan_p99_us = scans.Percentile(0.99) / 1e3;
  row.verified_reads = stats.verified_reads.load();
  row.raw_reads = stats.raw_reads.load();
  row.proof_failures = stats.proof_failures.load();
  row.errors = stats.errors.load();
  row.busy = stats.busy.load();
  for (const auto& client : clients) {
    row.commits_2pc += Commits2pc(client.get());
  }
  return row;
}

// Opens a fleet of `shards` and runs every mix against it through Client.
template <typename Client>
void RunTarget(const char* target, size_t shards, const RunConfig& config,
               std::vector<Row>* rows) {
  LocalFleet::Options options;
  options.shards = shards;
  std::unique_ptr<LocalFleet> fleet;
  Y_CHECK(LocalFleet::Open(options, &fleet).ok(), "fleet open");
  if (fleet == nullptr) return;
  // Load phase: the initial key space, in batches for throughput.
  std::unique_ptr<Client> loader;
  OpenClient(*fleet, &loader);
  Random value_rng(4242);
  for (uint64_t i = 0; i < config.records;) {
    WriteBatch batch;
    for (uint64_t j = 0; j < 128 && i < config.records; j++, i++) {
      batch.Put(RecordKey(i), value_rng.Bytes(kValueBytes));
    }
    Y_CHECK(loader->Write(WriteOptions(), batch).ok(), "load batch");
  }

  std::atomic<uint64_t> next_insert{config.records};
  for (auto kind : {KeyChooser::Kind::kZipfian, KeyChooser::Kind::kUniform}) {
    KeyChooser chooser(kind, config.records);
    for (const MixSpec& mix : kMixes) {
      rows->push_back(
          RunMix<Client>(*fleet, target, mix, chooser, config, &next_insert));
      const Row& r = rows->back();
      printf("ycsb_driver: %-8s mix=%s %-7s ops=%" PRIu64
             " rate=%.0f/s read_p50=%.0fus errors=%" PRIu64
             " proof_failures=%" PRIu64 " 2pc=%" PRIu64 "\n",
             r.target.c_str(), r.mix.c_str(), r.chooser.c_str(), r.ops,
             r.ops_per_sec, r.read_p50_us, r.errors, r.proof_failures,
             r.commits_2pc);
    }
  }
}

void PrintRow(FILE* out, const Row& r, bool last) {
  fprintf(out,
          "    {\"target\": \"%s\", \"mix\": \"%s\", \"chooser\": \"%s\", "
          "\"threads\": %zu, \"ops\": %" PRIu64 ", \"secs\": %.4f, "
          "\"ops_per_sec\": %.1f, "
          "\"read_p50_us\": %.1f, \"read_p95_us\": %.1f, "
          "\"read_p99_us\": %.1f, "
          "\"write_p50_us\": %.1f, \"write_p95_us\": %.1f, "
          "\"write_p99_us\": %.1f, "
          "\"scan_p50_us\": %.1f, \"scan_p95_us\": %.1f, "
          "\"scan_p99_us\": %.1f, "
          "\"verified_reads\": %" PRIu64 ", \"raw_reads\": %" PRIu64 ", "
          "\"proof_failures\": %" PRIu64 ", \"errors\": %" PRIu64 ", "
          "\"busy\": %" PRIu64 ", \"commits_2pc\": %" PRIu64 "}%s\n",
          r.target.c_str(), r.mix.c_str(), r.chooser.c_str(), r.threads,
          r.ops, r.secs, r.ops_per_sec, r.read_p50_us, r.read_p95_us,
          r.read_p99_us, r.write_p50_us, r.write_p95_us, r.write_p99_us,
          r.scan_p50_us, r.scan_p95_us, r.scan_p99_us, r.verified_reads,
          r.raw_reads, r.proof_failures, r.errors, r.busy, r.commits_2pc,
          last ? "" : ",");
}

int Run(bool smoke, const std::string& out_path) {
  RunConfig config;
  config.records = smoke ? 1000 : 20000;
  config.threads = smoke ? 2 : 4;
  config.ops_per_thread = smoke ? 150 : 2000;
  config.scan_ops_per_thread = smoke ? 50 : 400;
  config.max_scan_limit = smoke ? 20 : 100;

  std::vector<Row> rows;
  RunTarget<SpitzClient>("single", 1, config, &rows);
  RunTarget<ClusterClient>("cluster3", 3, config, &rows);

  // Invariants, hard CI assertions under --smoke: an honest deployment
  // never fails a proof and never errors; the cluster's skewed RMW mix
  // exercised real cross-shard 2PC; every mix sampled verified reads
  // (except E, which issues none).
  uint64_t cluster_2pc = 0;
  for (const Row& r : rows) {
    const std::string what = r.target + "/" + r.mix + "/" + r.chooser;
    Y_CHECK(r.errors == 0, (what + " zero errors").c_str());
    Y_CHECK(r.proof_failures == 0, (what + " zero proof failures").c_str());
    if (r.mix != "E") {
      Y_CHECK(r.verified_reads > 0, (what + " sampled verified reads").c_str());
    }
    if (r.target == "cluster3" && r.mix == "F") cluster_2pc += r.commits_2pc;
  }
  Y_CHECK(cluster_2pc > 0, "cluster mix F took the 2PC path");

  FILE* out = fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    fprintf(stderr, "ycsb_driver: cannot write %s\n", out_path.c_str());
    return 1;
  }
  fprintf(out, "{\n  \"benchmark\": \"ycsb\",\n");
  fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  fprintf(out, "  \"records\": %" PRIu64 ",\n", config.records);
  fprintf(out, "  \"threads\": %zu,\n", config.threads);
  fprintf(out, "  \"value_bytes\": %zu,\n", kValueBytes);
  fprintf(out, "  \"verify_every\": %" PRIu64 ",\n", kVerifyEvery);
  fprintf(out, "  \"hardware_concurrency\": %u,\n",
          std::thread::hardware_concurrency());
  fprintf(out, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); i++) {
    PrintRow(out, rows[i], i + 1 == rows.size());
  }
  fprintf(out, "  ]\n}\n");
  fclose(out);

  if (failures > 0) {
    fprintf(stderr, "ycsb_driver: %d check(s) failed\n", failures);
    return 1;
  }
  printf("ycsb_driver: ok (%zu rows -> %s)\n", rows.size(), out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace spitz

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_ycsb.json";
  for (int i = 1; i < argc; i++) {
    if (strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      fprintf(stderr, "usage: %s [--smoke] [--out path]\n", argv[0]);
      return 2;
    }
  }
  return spitz::Run(smoke, out_path);
}
