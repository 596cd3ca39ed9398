// Cluster scaling sweep: a sharded Spitz deployment on loopback TCP —
// shards x client threads — measuring the three cluster workloads of
// DESIGN.md section 13:
//
//   rmw_txn       — cross-shard read-modify-write transactions: each op
//     reads two keys on different shards, then commits one batch
//     touching both via client-driven 2PC (one-phase fast path when the
//     two keys happen to share a shard).
//   verified_get  — point reads verified against the cluster root
//     digest: fresh per-shard digests Merkled into one root, the owning
//     shard proving at the pinned index version, the proof checked
//     locally. Every failed verification is counted — the headline
//     invariant is that this count is ZERO on an honest cluster.
//   verified_scan — cross-shard range scans, each shard's range proof
//     verified against its pinned digest and the results merge-sorted.
//
// Emits BENCH_cluster.json (override with --out <path>) and a summary
// on stdout. --smoke bounds the sweep to the 3-shard cluster and turns
// the invariants into hard assertions (used as a CI leg): every txn
// commits, zero proof failures, at least one real 2PC group, and the
// final cluster digest envelope decodes and re-verifies byte-for-byte.

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

namespace spitz {
namespace {

int failures = 0;

#define CS_CHECK(cond, what)                                         \
  do {                                                               \
    if (!(cond)) {                                                   \
      fprintf(stderr, "cluster_scale: FAILED: %s (%s)\n", what,      \
              #cond);                                                \
      failures++;                                                    \
    }                                                                \
  } while (0)

struct Row {
  size_t shards = 0;
  size_t clients = 0;
  std::string workload;  // "rmw_txn" | "verified_get" | "verified_scan"
  uint64_t ops = 0;
  double secs = 0;
  double ops_per_sec = 0;
  uint64_t commits_1pc = 0;
  uint64_t commits_2pc = 0;
  uint64_t proof_failures = 0;
  uint64_t errors = 0;
};

// One ClusterClient over every shard of the fleet; each bench thread
// opens its own.
std::unique_ptr<ClusterClient> NewClient(const LocalFleet& fleet) {
  std::unique_ptr<ClusterClient> client;
  CS_CHECK(ClusterClient::Open(fleet.ClusterOptions(), &client).ok(),
           "cluster client open");
  return client;
}

std::string Key(size_t space, size_t i) {
  return "c" + std::to_string(space) + "-key" + std::to_string(i);
}

constexpr size_t kKeySpace = 512;
const std::string kValue(20, 'v');

// Runs `clients` threads of `ops` operations each and fills the shared
// row fields. `fn(client, thread, i)` returns ok/failed per op.
template <typename Fn>
void RunThreads(const LocalFleet& fleet, size_t clients, size_t ops,
                Row* row, Fn&& fn) {
  std::vector<std::unique_ptr<ClusterClient>> conns;
  for (size_t c = 0; c < clients; c++) conns.push_back(NewClient(fleet));
  std::atomic<bool> go{false};
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> pool;
  for (size_t c = 0; c < clients; c++) {
    pool.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (size_t i = 0; i < ops; i++) {
        if (!fn(conns[c].get(), c, i)) errors.fetch_add(1);
      }
    });
  }
  uint64_t start = MonotonicNanos();
  go.store(true, std::memory_order_release);
  for (auto& t : pool) t.join();
  row->ops = clients * ops;
  row->secs = static_cast<double>(MonotonicNanos() - start) / 1e9;
  row->ops_per_sec = row->secs > 0 ? row->ops / row->secs : 0;
  row->errors = errors.load();
  // The coordinator metrics live per connection; sum them.
  for (auto& conn : conns) {
    MetricsSnapshot m = conn->coordinator()->Metrics();
    row->commits_1pc += m.CounterValue("cluster.coordinator.commits_1pc");
    row->commits_2pc += m.CounterValue("cluster.coordinator.commits_2pc");
  }
}

Row RunRmwTxns(const LocalFleet& fleet, size_t clients, size_t ops) {
  Row row;
  row.shards = fleet.shards();
  row.clients = clients;
  row.workload = "rmw_txn";
  RunThreads(fleet, clients, ops, &row,
             [&](ClusterClient* client, size_t c, size_t i) {
               // Read two keys from disjoint halves of the key space
               // (usually on different shards), then write both back in
               // one atomic batch — the classic cross-shard RMW.
               const std::string a = Key(c, i % (kKeySpace / 2));
               const std::string b =
                   Key(c, kKeySpace / 2 + i % (kKeySpace / 2));
               std::string va, vb;
               Status s = client->Get(a, &va);
               if (!s.ok() && !s.IsNotFound()) return false;
               s = client->Get(b, &vb);
               if (!s.ok() && !s.IsNotFound()) return false;
               WriteBatch batch;
               batch.Put(a, va + "+");
               batch.Put(b, vb + "+");
               s = client->Write(WriteOptions(), batch);
               // Busy = prepared-lock collision with a concurrent
               // coordinator; a real application retries. The bench
               // counts it as a clean conflict, not an error.
               return s.ok() || s.IsBusy();
             });
  return row;
}

Row RunVerifiedGets(const LocalFleet& fleet, size_t clients, size_t ops,
                    std::atomic<uint64_t>* proof_failures) {
  Row row;
  row.shards = fleet.shards();
  row.clients = clients;
  row.workload = "verified_get";
  RunThreads(fleet, clients, ops, &row,
             [&](ClusterClient* client, size_t c, size_t i) {
               std::string value;
               Status s =
                   client->VerifiedGet(Key(c, i % kKeySpace), &value);
               if (s.IsVerificationFailed()) proof_failures->fetch_add(1);
               return s.ok() || s.IsNotFound();
             });
  row.proof_failures = proof_failures->load();
  return row;
}

Row RunVerifiedScans(const LocalFleet& fleet, size_t clients, size_t ops,
                     std::atomic<uint64_t>* proof_failures) {
  Row row;
  row.shards = fleet.shards();
  row.clients = clients;
  row.workload = "verified_scan";
  RunThreads(fleet, clients, ops, &row,
             [&](ClusterClient* client, size_t c, size_t /*i*/) {
               std::vector<PosEntry> rows;
               Status s = client->VerifiedScan(
                   "c" + std::to_string(c) + "-", "c" + std::to_string(c) + "~",
                   32, &rows);
               if (s.IsVerificationFailed()) proof_failures->fetch_add(1);
               return s.ok();
             });
  row.proof_failures = proof_failures->load();
  return row;
}

void PrintRow(FILE* out, const Row& r, bool last) {
  fprintf(out,
          "    {\"shards\": %zu, \"clients\": %zu, \"workload\": \"%s\", "
          "\"ops\": %" PRIu64 ", \"secs\": %.4f, \"ops_per_sec\": %.1f, "
          "\"commits_1pc\": %" PRIu64 ", \"commits_2pc\": %" PRIu64 ", "
          "\"proof_failures\": %" PRIu64 ", \"errors\": %" PRIu64 "}%s\n",
          r.shards, r.clients, r.workload.c_str(), r.ops, r.secs,
          r.ops_per_sec, r.commits_1pc, r.commits_2pc, r.proof_failures,
          r.errors, last ? "" : ",");
}

int Run(bool smoke, const std::string& out_path) {
  const size_t shard_sweep_full[] = {1, 2, 3, 4};
  const size_t shard_sweep_smoke[] = {3};
  const size_t* sweep = smoke ? shard_sweep_smoke : shard_sweep_full;
  const size_t sweep_n = smoke ? 1 : 4;
  const size_t clients = smoke ? 4 : 8;
  const size_t txn_ops = smoke ? 50 : 400;
  const size_t get_ops = smoke ? 50 : 400;
  const size_t scan_ops = smoke ? 20 : 100;

  std::vector<Row> rows;
  for (size_t s = 0; s < sweep_n; s++) {
    const size_t shards = sweep[s];
    LocalFleet::Options options;
    options.shards = shards;
    std::unique_ptr<LocalFleet> fleet;
    CS_CHECK(LocalFleet::Open(options, &fleet).ok(), "fleet open");
    if (fleet == nullptr) break;
    // Seed the key space so reads and scans have data to prove.
    auto seeder = NewClient(*fleet);
    for (size_t c = 0; c < clients; c++) {
      for (size_t i = 0; i < kKeySpace; i += 4) {
        CS_CHECK(seeder->Put(Key(c, i), kValue).ok(), "seed put");
      }
    }

    rows.push_back(RunRmwTxns(*fleet, clients, txn_ops));
    std::atomic<uint64_t> get_failures{0};
    rows.push_back(RunVerifiedGets(*fleet, clients, get_ops, &get_failures));
    std::atomic<uint64_t> scan_failures{0};
    rows.push_back(
        RunVerifiedScans(*fleet, clients, scan_ops, &scan_failures));

    // The cluster digest at rest: assembled, serialized, re-decoded and
    // re-verified — the envelope a client would retain.
    ClusterDigest digest;
    CS_CHECK(seeder->GetClusterDigest(&digest).ok(), "final cluster digest");
    CS_CHECK(digest.shards.size() == shards, "digest covers every shard");
    CS_CHECK(digest.root == ClusterDigest::ComputeRoot(digest.shards),
             "cluster root recomputes");
    std::string encoded;
    digest.EncodeTo(&encoded);
    Slice input(encoded);
    ClusterDigest decoded;
    CS_CHECK(ClusterDigest::DecodeFrom(&input, &decoded).ok() &&
                 decoded == digest,
             "cluster digest round-trips verified");
  }

  // Invariants (hard CI assertions under --smoke): every op succeeded
  // and no proof ever failed on an honest cluster; multi-shard sweeps
  // exercised real 2PC.
  for (const Row& r : rows) {
    CS_CHECK(r.errors == 0, (r.workload + " zero errors").c_str());
    CS_CHECK(r.proof_failures == 0,
             (r.workload + " zero proof failures").c_str());
    if (r.workload == "rmw_txn" && r.shards >= 2) {
      CS_CHECK(r.commits_2pc > 0, "cross-shard txns took the 2PC path");
    }
  }

  FILE* out = fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    fprintf(stderr, "cluster_scale: cannot write %s\n", out_path.c_str());
    return 1;
  }
  fprintf(out, "{\n  \"benchmark\": \"cluster_scale\",\n");
  fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  fprintf(out, "  \"hardware_concurrency\": %u,\n",
          std::thread::hardware_concurrency());
  fprintf(out, "  \"value_bytes\": %zu,\n", kValue.size());
  fprintf(out, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); i++) {
    PrintRow(out, rows[i], i + 1 == rows.size());
  }
  fprintf(out, "  ]\n}\n");
  fclose(out);

  for (const Row& r : rows) {
    printf("cluster_scale: shards=%zu clients=%zu %-13s ops=%" PRIu64
           " rate=%.0f/s 2pc=%" PRIu64 " proof_failures=%" PRIu64 "\n",
           r.shards, r.clients, r.workload.c_str(), r.ops, r.ops_per_sec,
           r.commits_2pc, r.proof_failures);
  }
  if (failures > 0) {
    fprintf(stderr, "cluster_scale: %d check(s) failed\n", failures);
    return 1;
  }
  printf("cluster_scale: ok (%zu rows -> %s)\n", rows.size(),
         out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace spitz

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_cluster.json";
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
