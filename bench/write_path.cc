// Write-path sweep: durable Put throughput, writers x sync-mode, over
// both the in-process SpitzDb and real TCP SpitzClients — the
// before/after measurement for the group-commit pipeline.
//
// Modes (in-process):
//   per_op_fsync — Put + FlushBlock + SyncStorage per op, serialized by
//     a bench-level mutex: the durable write path *before* group
//     commit, where the writer lock was held across the seal and both
//     fsyncs, so every put paid its own seal and fsync and no two
//     writers overlapped anywhere. This is the "before" row. (Without
//     the mutex the same call pattern now rides the new engine's
//     barrier coalescing and measures something else entirely.)
//   group_sync   — Put(WriteOptions{sync=true}): concurrent writers are
//     batched by the commit queue; one fsync is amortized over each
//     group. This is the "after" row; with >= 8 writers it should
//     sustain a multiple of per_op_fsync throughput, with
//     core.db.journal.fsyncs << total puts.
//   async        — plain Put with one SyncStorage at the end: the
//     throughput ceiling when no per-op durability is demanded.
//
// Over TCP the server's database runs with SpitzOptions::sync_writes,
// so every client Put is durable when acknowledged and concurrent
// clients exercise the same group pipeline through the dispatcher pool.
//
// Emits BENCH_write_path.json (override with --out <path>) and a
// human-readable summary on stdout. --smoke runs bounded iterations and
// turns the group-commit invariants into hard assertions (used as a CI
// leg): every op succeeds, and in sync mode the journal fsync count
// stays strictly below the put count.

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/local_fleet.h"
#include "common/clock.h"
#include "core/spitz_db.h"
#include "net/spitz_client.h"

namespace spitz {
namespace {

struct Row {
  std::string transport;  // "inproc" | "tcp"
  std::string mode;       // "per_op_fsync" | "group_sync" | "async"
  size_t writers = 0;
  uint64_t puts = 0;
  double secs = 0;
  double puts_per_sec = 0;
  uint64_t fsyncs = 0;
  double group_size_mean = 0;
  uint64_t errors = 0;
};

int failures = 0;

#define WP_CHECK(cond, what)                                     \
  do {                                                           \
    if (!(cond)) {                                               \
      fprintf(stderr, "write_path: FAILED: %s (%s)\n", what,     \
              #cond);                                            \
      failures++;                                                \
    }                                                            \
  } while (0)

std::string Key(size_t writer, size_t i) {
  return "w" + std::to_string(writer) + "-key" + std::to_string(i);
}

const std::string kValue(100, 'v');

// Runs `writers` threads of `ops` durable puts each against a fresh
// durable database in `dir`, in the given mode, and returns the row.
Row RunInProcess(const std::string& dir, const std::string& mode,
                 size_t writers, size_t ops) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  SpitzOptions options;
  options.data_dir = dir;
  std::unique_ptr<SpitzDb> db;
  Status open = SpitzDb::Open(options, &db);
  WP_CHECK(open.ok(), "durable open");
  Row row;
  row.transport = "inproc";
  row.mode = mode;
  row.writers = writers;
  row.puts = writers * ops;
  if (!open.ok()) return row;

  std::atomic<bool> go{false};
  std::atomic<uint64_t> errors{0};
  std::mutex serial_mu;  // replicates the seed's serialized write path
  std::vector<std::thread> pool;
  pool.reserve(writers);
  for (size_t w = 0; w < writers; w++) {
    pool.emplace_back([&, w] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (size_t i = 0; i < ops; i++) {
        Status s;
        if (mode == "per_op_fsync") {
          std::lock_guard<std::mutex> serial(serial_mu);
          s = db->Put(Key(w, i), kValue);
          if (s.ok()) s = db->FlushBlock();
          if (s.ok()) s = db->SyncStorage();
        } else if (mode == "group_sync") {
          WriteOptions wo;
          wo.sync = true;
          s = db->Put(wo, Key(w, i), kValue);
        } else {
          s = db->Put(Key(w, i), kValue);
        }
        if (!s.ok()) errors.fetch_add(1);
      }
    });
  }
  uint64_t start = MonotonicNanos();
  go.store(true, std::memory_order_release);
  for (auto& t : pool) t.join();
  if (mode == "async") {
    WP_CHECK(db->FlushBlock().ok() && db->SyncStorage().ok(),
             "final async sync");
  }
  row.secs = static_cast<double>(MonotonicNanos() - start) / 1e9;
  row.puts_per_sec = row.secs > 0 ? static_cast<double>(row.puts) / row.secs
                                  : 0;
  row.errors = errors.load();
  MetricsSnapshot m = db->Metrics();
  row.fsyncs = m.CounterValue("core.db.journal.fsyncs");
  if (const HistogramSnapshot* h =
          m.FindHistogram("core.db.commit.group_size")) {
    row.group_size_mean =
        h->count > 0 ? static_cast<double>(h->sum) / h->count : 0;
  }
  return row;
}

// `clients` TCP SpitzClients of `ops` puts each against a served
// database; sync_writes decides whether every acknowledged Put is
// durable (group commit on the server) or buffered.
Row RunTcp(const std::string& dir, bool sync_writes, size_t clients,
           size_t ops) {
  std::filesystem::remove_all(dir);
  LocalFleet::Options options;
  options.db.data_dir = dir;
  options.db.sync_writes = sync_writes;
  std::unique_ptr<LocalFleet> fleet;
  Status open = LocalFleet::Open(options, &fleet);
  WP_CHECK(open.ok(), "tcp durable open");
  Row row;
  row.transport = "tcp";
  row.mode = sync_writes ? "group_sync" : "async";
  row.writers = clients;
  row.puts = clients * ops;
  if (!open.ok()) return row;

  std::atomic<bool> go{false};
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> pool;
  pool.reserve(clients);
  for (size_t c = 0; c < clients; c++) {
    pool.emplace_back([&, c] {
      std::unique_ptr<SpitzClient> client;
      if (!SpitzClient::Open(fleet->ClientOptions(0), &client).ok()) {
        errors.fetch_add(ops);
        return;
      }
      while (!go.load(std::memory_order_acquire)) {
      }
      for (size_t i = 0; i < ops; i++) {
        if (!client->Put(Key(c, i), kValue).ok()) errors.fetch_add(1);
      }
    });
  }
  uint64_t start = MonotonicNanos();
  go.store(true, std::memory_order_release);
  for (auto& t : pool) t.join();
  row.secs = static_cast<double>(MonotonicNanos() - start) / 1e9;
  row.puts_per_sec = row.secs > 0 ? static_cast<double>(row.puts) / row.secs
                                  : 0;
  row.errors = errors.load();
  MetricsSnapshot m = fleet->db(0)->Metrics();
  row.fsyncs = m.CounterValue("core.db.journal.fsyncs");
  if (const HistogramSnapshot* h =
          m.FindHistogram("core.db.commit.group_size")) {
    row.group_size_mean =
        h->count > 0 ? static_cast<double>(h->sum) / h->count : 0;
  }
  return row;
}

void PrintRow(FILE* out, const Row& r, bool last) {
  fprintf(out,
          "    {\"transport\": \"%s\", \"mode\": \"%s\", \"writers\": %zu, "
          "\"puts\": %" PRIu64 ", \"secs\": %.4f, \"puts_per_sec\": %.1f, "
          "\"journal_fsyncs\": %" PRIu64 ", \"group_size_mean\": %.2f, "
          "\"errors\": %" PRIu64 "}%s\n",
          r.transport.c_str(), r.mode.c_str(), r.writers, r.puts, r.secs,
          r.puts_per_sec, r.fsyncs, r.group_size_mean, r.errors,
          last ? "" : ",");
}

int Run(bool smoke, const std::string& out_path) {
  const std::string root =
      std::filesystem::temp_directory_path() / "spitz_write_path";
  const std::string dir = root + "/db";

  const size_t writer_sweep_full[] = {1, 2, 4, 8, 16};
  const size_t writer_sweep_smoke[] = {8};
  const size_t* sweep = smoke ? writer_sweep_smoke : writer_sweep_full;
  const size_t sweep_n = smoke ? 1 : 5;
  // per_op_fsync and group_sync run the *same* workload so the rows are
  // directly comparable — per-put apply cost grows with index size, so
  // unequal op counts would bias whichever mode wrote less.
  const size_t per_op_ops = smoke ? 60 : 1000;
  const size_t group_ops = smoke ? 60 : 1000;
  const size_t async_ops = smoke ? 200 : 4000;
  const size_t tcp_clients = smoke ? 8 : 8;
  const size_t tcp_ops = smoke ? 40 : 400;

  std::vector<Row> rows;
  for (size_t s = 0; s < sweep_n; s++) {
    size_t writers = sweep[s];
    rows.push_back(RunInProcess(dir, "per_op_fsync", writers, per_op_ops));
    rows.push_back(RunInProcess(dir, "group_sync", writers, group_ops));
    rows.push_back(RunInProcess(dir, "async", writers, async_ops));
  }
  rows.push_back(RunTcp(dir, /*sync_writes=*/true, tcp_clients, tcp_ops));
  rows.push_back(RunTcp(dir, /*sync_writes=*/false, tcp_clients, tcp_ops));

  // Invariants (hard CI assertions under --smoke, reported always):
  // every op succeeded, and every sync-mode run amortized — the journal
  // fsync count stays strictly below the put count whenever writers
  // could group.
  std::map<size_t, double> per_op_by_writers, group_by_writers;
  for (const Row& r : rows) {
    WP_CHECK(r.errors == 0, (r.transport + "/" + r.mode + " zero errors")
                                .c_str());
    if (r.mode == "group_sync" && r.writers >= 8) {
      WP_CHECK(r.fsyncs >= 1, "sync mode issued fsyncs");
      WP_CHECK(r.fsyncs < r.puts,
               (r.transport + " group_sync fsyncs < puts").c_str());
    }
    if (r.transport == "inproc" && r.writers >= 8) {
      if (r.mode == "group_sync") group_by_writers[r.writers] = r.puts_per_sec;
      if (r.mode == "per_op_fsync") {
        per_op_by_writers[r.writers] = r.puts_per_sec;
      }
    }
  }
  // Headline: the best same-writer-count durable speedup at >= 8
  // writers (group commit vs the seed's per-op fsync path).
  double speedup = 0.0;
  size_t speedup_writers = 0;
  for (const auto& [w, group_rate] : group_by_writers) {
    auto it = per_op_by_writers.find(w);
    if (it == per_op_by_writers.end() || it->second <= 0) continue;
    double ratio = group_rate / it->second;
    if (ratio > speedup) {
      speedup = ratio;
      speedup_writers = w;
    }
  }

  FILE* out = fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    fprintf(stderr, "write_path: cannot write %s\n", out_path.c_str());
    return 1;
  }
  fprintf(out, "{\n  \"benchmark\": \"write_path\",\n");
  fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  fprintf(out, "  \"hardware_concurrency\": %u,\n",
          std::thread::hardware_concurrency());
  fprintf(out, "  \"value_bytes\": %zu,\n", kValue.size());
  fprintf(out, "  \"group_commit_speedup\": %.2f,\n", speedup);
  fprintf(out, "  \"group_commit_speedup_writers\": %zu,\n", speedup_writers);
  fprintf(out, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); i++) {
    PrintRow(out, rows[i], i + 1 == rows.size());
  }
  fprintf(out, "  ]\n}\n");
  fclose(out);

  for (const Row& r : rows) {
    printf("write_path: %-6s %-13s writers=%zu puts=%" PRIu64
           " rate=%.0f/s fsyncs=%" PRIu64 " group_mean=%.2f\n",
           r.transport.c_str(), r.mode.c_str(), r.writers, r.puts,
           r.puts_per_sec, r.fsyncs, r.group_size_mean);
  }
  if (speedup > 0) {
    printf("write_path: group-commit speedup at %zu writers: %.2fx\n",
           speedup_writers, speedup);
  }
  std::filesystem::remove_all(root);
  if (failures > 0) {
    fprintf(stderr, "write_path: %d check(s) failed\n", failures);
    return 1;
  }
  printf("write_path: ok (%zu rows -> %s)\n", rows.size(), out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace spitz

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_write_path.json";
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
