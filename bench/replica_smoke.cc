// Replication smoke bench (ci/check.sh leg + BENCH_replica.json).
//
// Three measured phases over loopback TCP, YCSB-style mixed traffic
// (50% updates / 45% reads / 5% verified point reads) throughout:
//
//   1. throughput with replication OFF — one served SpitzDb;
//   2. throughput with replication ON — same shard, plus a backup fed
//      by a Replicator; reports the replication-lag histogram
//      (seal-to-ack, p50/p99) and requires the stream to drain with
//      zero digest mismatches;
//   3. failover — the same replicated shard behind a ClusterClient,
//      primary SIGKILL-equivalent (server shutdown + replicator stop,
//      NO drain) mid-run; measures kill-to-first-verified-read latency
//      through the backup's last-agreed digest, bounds the unacked
//      tail lost at the kill, promotes, and finishes the run writing
//      to the promoted backup. ZERO proof failures end to end.
//
// Exits non-zero on any violated invariant; --smoke shrinks op counts
// for CI; --out overrides the JSON path (default BENCH_replica.json).

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
#include "common/random.h"

namespace spitz {
namespace {

int failures = 0;

#define RS_CHECK(cond, what)                                              \
  do {                                                                    \
    if (!(cond)) {                                                        \
      fprintf(stderr, "replica_smoke: FAILED: %s (%s)\n", what, #cond);   \
      failures++;                                                         \
    }                                                                     \
  } while (0)

constexpr size_t kKeySpace = 512;

std::string Key(size_t i) { return "user" + std::to_string(100000 + i); }

// One shard, optionally with a backup fed by a Replicator.
std::unique_ptr<LocalFleet> OpenShard(bool replicated) {
  LocalFleet::Options options;
  options.replicated = replicated;
  options.db.block_size = 8;  // seal often: replication traffic per ~8 writes
  std::unique_ptr<LocalFleet> fleet;
  RS_CHECK(LocalFleet::Open(options, &fleet).ok(), "fleet open");
  return fleet;
}

// One YCSB-style op against any VerifiedKv-shaped client. Returns
// false only on a verified-read proof failure (connection errors are
// the caller's business via *last_status).
template <typename Client>
bool MixedOp(Client* client, Random* rng, uint64_t* proof_failures,
             Status* last_status) {
  const uint64_t dice = rng->Uniform(100);
  const std::string key = Key(rng->Uniform(kKeySpace));
  if (dice < 50) {
    *last_status = client->Put(WriteOptions(), key, rng->Bytes(64));
  } else if (dice < 95) {
    std::string value;
    *last_status = client->Get(ReadOptions(), key, &value);
    if (last_status->IsNotFound()) *last_status = Status::OK();
  } else {
    ReadOptions options;
    options.verify = true;
    std::string value;
    *last_status = client->Get(options, key, &value);
    if (last_status->IsNotFound()) *last_status = Status::OK();
    if (last_status->IsVerificationFailed()) {
      (*proof_failures)++;
      return false;
    }
  }
  return true;
}

struct ThroughputResult {
  uint64_t ops = 0;
  double ops_per_sec = 0;
  double lag_p50_ns = 0;  // replicated run only
  double lag_p99_ns = 0;
  uint64_t batches_acked = 0;
};

// Phases 1 and 2: the same single-shard workload, with and without a
// live replication stream.
ThroughputResult MeasureThroughput(bool replicated, uint64_t ops,
                                   uint64_t* proof_failures) {
  ThroughputResult result;
  std::unique_ptr<LocalFleet> fleet = OpenShard(replicated);
  if (fleet == nullptr) return result;
  std::unique_ptr<SpitzClient> client;
  RS_CHECK(SpitzClient::Open(fleet->ClientOptions(0), &client).ok(),
           "client open");
  if (client == nullptr) return result;

  Random rng(replicated ? 9102 : 9101);
  const uint64_t start = MonotonicNanos();
  for (uint64_t i = 0; i < ops; i++) {
    Status s;
    MixedOp(client.get(), &rng, proof_failures, &s);
    RS_CHECK(s.ok(), "mixed op against a healthy shard");
    if (!s.ok()) break;
  }
  const uint64_t elapsed = MonotonicNanos() - start;
  result.ops = ops;
  result.ops_per_sec =
      elapsed > 0 ? static_cast<double>(ops) * 1e9 / elapsed : 0;

  if (replicated) {
    // Drain: every block sealed by the run must be acked, with the
    // backup's independently derived digest agreeing block for block.
    Replicator* replicator = fleet->replicator(0);
    RS_CHECK(fleet->Drain().ok(), "replication drains");
    RS_CHECK(replicator->ReplicationFault().ok(), "stream stays healthy");
    MetricsSnapshot m = replicator->Metrics();
    RS_CHECK(m.CounterValue("replica.primary.digest_mismatches") == 0,
             "zero digest mismatches");
    const HistogramSnapshot* lag = m.FindHistogram("replica.primary.lag_ns");
    if (lag != nullptr) {
      result.lag_p50_ns = lag->p50();
      result.lag_p99_ns = lag->p99();
    }
    result.batches_acked = replicator->acked_blocks();
    RS_CHECK(result.batches_acked > 0, "replication saw traffic");
    RS_CHECK(fleet->replica(0)->digest_mismatches() == 0,
             "backup agrees throughout");
  }
  return result;
}

struct FailoverResult {
  uint64_t ops = 0;
  double first_verified_read_ms = 0;
  uint64_t sealed_at_kill = 0;
  uint64_t acked_at_kill = 0;
  uint64_t unacked_blocks_lost = 0;
};

// Phase 3: kill the primary mid-run with no drain, fail over, promote,
// finish the run on the backup.
FailoverResult MeasureFailover(uint64_t ops, uint64_t* proof_failures) {
  FailoverResult result;
  result.ops = ops;
  std::unique_ptr<LocalFleet> fleet = OpenShard(/*replicated=*/true);
  if (fleet == nullptr) return result;
  ClusterClient::Options client_options = fleet->ClusterOptions();
  // Fail over fast, not after 10 dials.
  client_options.shards[0].connect_attempts = 2;
  std::unique_ptr<ClusterClient> client;
  RS_CHECK(ClusterClient::Open(client_options, &client).ok(), "client open");
  if (client == nullptr) return result;

  Random rng(9103);
  const uint64_t half = ops / 2;
  for (uint64_t i = 0; i < half; i++) {
    Status s;
    MixedOp(client.get(), &rng, proof_failures, &s);
    RS_CHECK(s.ok(), "mixed op before the kill");
    if (!s.ok()) return result;
  }

  // The kill: the stream stops first (a dead process ships nothing),
  // then the server. Deliberately NO drain — the unacked tail is the
  // loss this phase bounds.
  result.sealed_at_kill = fleet->db(0)->Digest().journal.block_count;
  result.acked_at_kill = fleet->replicator(0)->acked_blocks();
  fleet->KillPrimary(0);
  const uint64_t kill_ns = MonotonicNanos();
  result.unacked_blocks_lost = result.sealed_at_kill - result.acked_at_kill;

  // Kill-to-first-verified-read: the client's next verified read must
  // fail over to the backup's last-agreed digest and verify.
  Status first;
  for (int i = 0; i < 1000; i++) {
    ReadOptions options;
    options.verify = true;
    std::string value;
    first = client->Get(options, Key(0), &value);
    if (first.IsNotFound()) first = Status::OK();
    if (first.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  result.first_verified_read_ms =
      static_cast<double>(MonotonicNanos() - kill_ns) / 1e6;
  RS_CHECK(first.ok(), "verified read fails over to the backup");
  RS_CHECK(first.IsVerificationFailed() == false, "failover read verifies");

  // Promote and finish the run against the new primary.
  RS_CHECK(client->Promote(0).ok(), "promote the backup");
  for (uint64_t i = half; i < ops; i++) {
    Status s;
    MixedOp(client.get(), &rng, proof_failures, &s);
    RS_CHECK(s.ok(), "mixed op after promotion");
    if (!s.ok()) break;
  }

  // The loss window is the in-flight tail, not an unbounded queue: the
  // replicator ships block-by-block, so at most a handful of sealed
  // blocks can be unacked at the kill.
  RS_CHECK(result.unacked_blocks_lost <= 8, "unacked-batch loss is bounded");
  return result;
}

int Run(bool smoke, const std::string& out_path) {
  const uint64_t throughput_ops = smoke ? 2'000 : 20'000;
  const uint64_t failover_ops = smoke ? 1'000 : 10'000;
  uint64_t proof_failures = 0;

  ThroughputResult off =
      MeasureThroughput(/*replicated=*/false, throughput_ops, &proof_failures);
  printf("replica_smoke: replication off  %8.0f ops/s\n", off.ops_per_sec);
  ThroughputResult on =
      MeasureThroughput(/*replicated=*/true, throughput_ops, &proof_failures);
  printf("replica_smoke: replication on   %8.0f ops/s  lag p50=%.0fus "
         "p99=%.0fus acked=%" PRIu64 "\n",
         on.ops_per_sec, on.lag_p50_ns / 1e3, on.lag_p99_ns / 1e3,
         on.batches_acked);
  FailoverResult failover = MeasureFailover(failover_ops, &proof_failures);
  printf("replica_smoke: failover         first verified read %.1fms  "
         "unacked lost %" PRIu64 "/%" PRIu64 " blocks\n",
         failover.first_verified_read_ms, failover.unacked_blocks_lost,
         failover.sealed_at_kill);

  RS_CHECK(proof_failures == 0, "zero proof failures across all phases");

  FILE* out = fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    fprintf(stderr, "replica_smoke: cannot write %s\n", out_path.c_str());
    failures++;
  } else {
    fprintf(out, "{\n  \"benchmark\": \"replica_smoke\",\n");
    fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    fprintf(out, "  \"workload\": \"50/45/5 update/read/verified-read, "
                 "%zu keys, 64B values\",\n", kKeySpace);
    fprintf(out, "  \"throughput\": {\n");
    fprintf(out, "    \"replication_off_ops_per_sec\": %.0f,\n",
            off.ops_per_sec);
    fprintf(out, "    \"replication_on_ops_per_sec\": %.0f,\n",
            on.ops_per_sec);
    fprintf(out, "    \"ops_per_phase\": %" PRIu64 "\n  },\n", throughput_ops);
    fprintf(out, "  \"replication_lag_ns\": { \"p50\": %.0f, \"p99\": %.0f, "
                 "\"batches_acked\": %" PRIu64 " },\n",
            on.lag_p50_ns, on.lag_p99_ns, on.batches_acked);
    fprintf(out, "  \"failover\": {\n");
    fprintf(out, "    \"ops\": %" PRIu64 ",\n", failover.ops);
    fprintf(out, "    \"first_verified_read_ms\": %.2f,\n",
            failover.first_verified_read_ms);
    fprintf(out, "    \"sealed_blocks_at_kill\": %" PRIu64 ",\n",
            failover.sealed_at_kill);
    fprintf(out, "    \"acked_blocks_at_kill\": %" PRIu64 ",\n",
            failover.acked_at_kill);
    fprintf(out, "    \"unacked_blocks_lost\": %" PRIu64 "\n  },\n",
            failover.unacked_blocks_lost);
    fprintf(out, "  \"proof_failures\": %" PRIu64 "\n}\n", proof_failures);
    fclose(out);
    printf("replica_smoke: wrote %s\n", out_path.c_str());
  }

  if (failures > 0) {
    fprintf(stderr, "replica_smoke: %d check(s) failed\n", failures);
    return 1;
  }
  printf("replica_smoke: ok\n");
  return 0;
}

}  // namespace
}  // namespace spitz

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_replica.json";
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
