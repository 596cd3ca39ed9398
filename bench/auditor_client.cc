// Continuous-auditor harness: spins up both deployment shapes (one
// served SpitzDb, then a 3-shard cluster) with a live background write
// load, and runs bench/auditor.h's stateless audit loop against each
// over real loopback TCP — proofs and digests sampled on an interval,
// re-verified from serialized bytes only, digest transitions tracked.
//
// The verdict is the exit code: any verification failure (a proof that
// does not check out, a digest stream that goes backwards) exits
// non-zero. --smoke shortens the run for the CI leg; the assertions
// are identical either way — an honest server under load must sustain
// ZERO verification failures while the auditor actually observes the
// state changing (digest transitions > 0).
//
// For a long-running auditor against an external deployment, see
// examples/auditor_client.cpp, which reuses the same loop.

// --chaos runs the fault scenarios instead: an audit that rides
// through a server bounce (the PR 9 Reconnect seam), an audit that
// rides through a primary kill + verified failover to the backup
// (DESIGN.md §15), and a tampered-run control — a bit-flipped journal
// segment and byte-flipped evidence envelopes MUST fail, proving the
// non-zero-exit contract actually fires.

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <unistd.h>
#include <string>
#include <thread>
#include <vector>

#include "bench/auditor.h"
#include "cluster/cluster_client.h"
#include "cluster/local_fleet.h"
#include "common/random.h"
#include "core/spitz_db.h"

namespace spitz {
namespace {

int failures = 0;

#define AC_CHECK(cond, what)                                              \
  do {                                                                    \
    if (!(cond)) {                                                        \
      fprintf(stderr, "auditor_client: FAILED: %s (%s)\n", what, #cond);  \
      failures++;                                                         \
    }                                                                     \
  } while (0)

constexpr size_t kKeySpace = 400;

std::string Key(size_t i) { return "acct" + std::to_string(1000 + i); }

// Set-up failures end the run: nothing after them can be audited.
void Require(const Status& s, const char* what) {
  if (s.ok()) return;
  fprintf(stderr, "auditor_client: FAILED: %s: %s\n", what,
          s.ToString().c_str());
  exit(1);
}

std::unique_ptr<LocalFleet> OpenFleet(const LocalFleet::Options& options) {
  std::unique_ptr<LocalFleet> fleet;
  Require(LocalFleet::Open(options, &fleet), "fleet open");
  return fleet;
}

std::unique_ptr<SpitzClient> OpenClient(const SpitzClient::Options& options) {
  std::unique_ptr<SpitzClient> client;
  Require(SpitzClient::Open(options, &client), "client open");
  return client;
}

std::unique_ptr<ClusterClient> OpenClient(
    const ClusterClient::Options& options) {
  std::unique_ptr<ClusterClient> client;
  Require(ClusterClient::Open(options, &client), "cluster client open");
  return client;
}

void Reconnect(SpitzClient* client) { client->Reconnect(); }

void Reconnect(ClusterClient* client) {
  for (size_t i = 0; i < client->shard_count(); i++) {
    client->shard(i)->Reconnect();
  }
}

void PrintReport(const char* target, const bench::AuditorReport& report) {
  printf("auditor_client: %-8s rounds=%" PRIu64 " gets=%" PRIu64
         " scans=%" PRIu64 " digest_checks=%" PRIu64 " transitions=%" PRIu64
         " io_errors=%" PRIu64 " verification_failures=%" PRIu64 "\n",
         target, report.rounds, report.get_samples, report.scan_samples,
         report.digest_checks, report.digest_transitions, report.io_errors,
         report.verification_failures);
  if (!report.ok()) {
    fprintf(stderr, "auditor_client: %s first failure: %s\n", target,
            report.first_failure.c_str());
  }
}

void CheckReport(const char* target, const bench::AuditorReport& report) {
  PrintReport(target, report);
  AC_CHECK(report.ok(), (std::string(target) +
                         " zero verification failures").c_str());
  AC_CHECK(report.digest_transitions > 0,
           (std::string(target) + " observed live digest transitions").c_str());
  AC_CHECK(report.get_samples > 0,
           (std::string(target) + " sampled get evidence").c_str());
  AC_CHECK(report.scan_samples > 0,
           (std::string(target) + " sampled scan evidence").c_str());
}

bench::AuditorOptions BaseOptions(bool smoke) {
  bench::AuditorOptions options;
  options.rounds = smoke ? 12 : 100;
  options.interval_ms = smoke ? 10 : 50;
  options.get_samples_per_round = 4;
  options.scan_samples_per_round = 2;
  options.scan_limit = 16;
  return options;
}

// Seeds the key space through `writer`, then runs the audit loop
// through `audit` while a background writer keeps mutating the keys —
// the auditor must observe digest transitions, and every proof it
// samples races real commits. The writer redials after a failed Put,
// so it rides through faults; `chaos`, when set, runs alongside. The
// audit client redials after every round with an IO error, after
// calling any reconnect hook the caller set.
template <typename Client>
bench::AuditorReport AuditUnderLoad(Client* writer, Client* audit,
                                    bench::AuditorOptions options,
                                    uint64_t seed,
                                    const std::function<void()>& chaos = {}) {
  for (size_t i = 0; i < kKeySpace; i += 2) {
    AC_CHECK(writer->Put(Key(i), "seed").ok(), "seed put");
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> writes{0};
  std::thread writer_thread([&] {
    Random rng(seed);
    while (!stop.load(std::memory_order_acquire)) {
      Status s = writer->Put(WriteOptions(), Key(rng.Uniform(kKeySpace)),
                             rng.Bytes(24));
      if (s.ok()) {
        writes.fetch_add(1, std::memory_order_relaxed);
      } else {
        Reconnect(writer);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  Random key_rng(seed + 1);
  options.sample_key = [&key_rng] { return Key(key_rng.Uniform(kKeySpace)); };
  options.sample_range = [&key_rng] {
    return std::make_pair(Key(key_rng.Uniform(kKeySpace)),
                          std::string("acct~"));
  };
  options.reconnect = [observe = options.reconnect, audit] {
    if (observe) observe();
    Reconnect(audit);
  };
  std::thread chaos_thread;
  if (chaos) chaos_thread = std::thread(chaos);

  bench::AuditorReport report = bench::RunAuditor(audit, options);
  stop.store(true, std::memory_order_release);
  writer_thread.join();
  if (chaos_thread.joinable()) chaos_thread.join();
  AC_CHECK(writes.load() > 0, "background writer made progress");
  return report;
}

void RunSingle(bool smoke) {
  std::unique_ptr<LocalFleet> fleet = OpenFleet(LocalFleet::Options());
  auto writer = OpenClient(fleet->ClientOptions(0));
  auto audit = OpenClient(fleet->ClientOptions(0));
  bench::AuditorOptions options = BaseOptions(smoke);
  options.mode = bench::AuditorOptions::Mode::kSingle;
  CheckReport("single",
              AuditUnderLoad(writer.get(), audit.get(), options, 777));
}

void RunCluster(bool smoke, size_t shards) {
  LocalFleet::Options fleet_options;
  fleet_options.shards = shards;
  std::unique_ptr<LocalFleet> fleet = OpenFleet(fleet_options);
  auto writer = OpenClient(fleet->ClusterOptions());
  auto audit = OpenClient(fleet->ClusterOptions());
  bench::AuditorOptions options = BaseOptions(smoke);
  options.mode = bench::AuditorOptions::Mode::kCluster;
  CheckReport("cluster3",
              AuditUnderLoad(writer.get(), audit.get(), options, 787));
}

// --- chaos scenario 1: audit through a server bounce ----------------------
//
// The server shuts down mid-audit and comes back on the same port with
// the same database. The auditor counts the dark rounds as io_errors
// (never verification failures), heals through its reconnect hook, and
// must still end with zero verification failures and live transitions.
void RunChaosBounce(bool smoke) {
  std::unique_ptr<LocalFleet> fleet = OpenFleet(LocalFleet::Options());
  auto writer = OpenClient(fleet->ClientOptions(0));
  auto audit = OpenClient(fleet->ClientOptions(0));
  bench::AuditorOptions options = BaseOptions(smoke);
  options.rounds = smoke ? 40 : 120;
  // The reconnect hook doubles as the chaos trigger's observation
  // point: the chaos thread holds the server down until the auditor has
  // actually seen the outage (saw_outage), which makes the test
  // deterministic instead of a sleep race.
  std::atomic<bool> saw_outage{false};
  options.reconnect = [&saw_outage] {
    saw_outage.store(true, std::memory_order_release);
  };

  auto chaos = [&] {
    // Let the audit get going, then pull the server.
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options.interval_ms * 5));
    fleet->KillPrimary(0);
    // Hold the outage until the auditor has observed it.
    for (int i = 0; i < 10'000 && !saw_outage.load(std::memory_order_acquire);
         i++) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    AC_CHECK(saw_outage.load(), "auditor observed the outage");
    // Same database, same port: the bounced server is the same logical
    // node, so the digest stream must continue monotonically.
    AC_CHECK(fleet->Bounce(0).ok(), "server reopen on the same port");
  };
  bench::AuditorReport report =
      AuditUnderLoad(writer.get(), audit.get(), options, 797, chaos);
  AC_CHECK(report.io_errors > 0, "bounce produced io errors, not failures");
  CheckReport("bounce", report);
}

// --- chaos scenario 2: audit through primary kill + failover --------------
//
// A 2-shard cluster where every shard has a live backup fed by a
// Replicator. Shard 0's primary is killed mid-audit and the writer
// client promotes the backup. The audit client never promotes — its
// verified reads must fail over transparently, re-pinned at the
// backup's last-agreed digest, and sustain zero verification failures
// across the kill, the promotion, and the post-promotion write stream.
void RunChaosFailover(bool smoke) {
  LocalFleet::Options fleet_options;
  fleet_options.shards = 2;
  fleet_options.replicated = true;
  fleet_options.db.block_size = 8;  // seal often so replication has traffic
  std::unique_ptr<LocalFleet> fleet = OpenFleet(fleet_options);
  ClusterClient::Options client_options = fleet->ClusterOptions();
  // A dead primary should cost one refused dial per failover, not a
  // ten-attempt backoff ladder inside every snapshot.
  for (NetClient::Options& primary : client_options.shards) {
    primary.connect_attempts = 1;
  }
  auto writer = OpenClient(client_options);
  auto audit = OpenClient(client_options);
  bench::AuditorOptions options = BaseOptions(smoke);
  options.mode = bench::AuditorOptions::Mode::kCluster;
  options.rounds = smoke ? 40 : 120;

  // The writer tolerates the shard-0 outage window (Puts routed there
  // fail until promotion) — the auditor is the component under test.
  auto chaos = [&] {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options.interval_ms * 5));
    // Planned-enough failover: drain the replication stream so the
    // backup's last-agreed digest covers everything sealed, then kill.
    AC_CHECK(fleet->Drain().ok(), "replication drains before the kill");
    fleet->KillPrimary(0);
    // Writes to shard 0 are dark until the operator promotes.
    AC_CHECK(writer->Promote(0).ok(), "promote shard 0 after primary kill");
  };
  bench::AuditorReport report =
      AuditUnderLoad(writer.get(), audit.get(), options, 807, chaos);
  AC_CHECK(writer->promoted(0), "shard 0 backup was promoted");
  AC_CHECK(!audit->promoted(0), "audit client failed over without promoting");
  AC_CHECK(fleet->replica(0)->Applied().applied_blocks > 0,
           "backup applied replicated blocks before the kill");
  AC_CHECK(fleet->replica(0)->digest_mismatches() == 0,
           "zero digest mismatches on the surviving backup");
  CheckReport("failover", report);
}

// --- chaos scenario 3: the tampered run MUST fail -------------------------

// A VerifiedKv that forwards to an honest SpitzDb but flips one byte in
// every evidence envelope it hands out — the stand-in for a server
// (or a middlebox) lying about proofs. The auditor must catch every
// sample.
class EvidenceTamperingKv : public VerifiedKv {
 public:
  explicit EvidenceTamperingKv(SpitzDb* db) : db_(db) {}

  Status Put(const WriteOptions& options, const Slice& key,
             const Slice& value) override {
    return db_->Put(options, key, value);
  }
  Status Delete(const WriteOptions& options, const Slice& key) override {
    return db_->Delete(options, key);
  }
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value) override {
    return db_->Get(options, key, value);
  }
  Status Scan(const ReadOptions& options, const Slice& start, const Slice& end,
              size_t limit, std::vector<PosEntry>* rows) override {
    return db_->Scan(options, start, end, limit, rows);
  }
  Status GetProof(const Slice& key, Evidence* out) override {
    Status s = db_->GetProof(key, out);
    if (s.ok() && !out->proof.empty()) {
      out->proof[out->proof.size() / 2] ^= 0x20;
    }
    return s;
  }
  Status ScanProof(const Slice& start, const Slice& end, size_t limit,
                   ScanEvidence* out) override {
    Status s = db_->ScanProof(start, end, limit, out);
    if (s.ok() && !out->rows.empty()) {
      out->rows[0].value.push_back('!');  // forged row
    }
    return s;
  }
  Status Digest(std::string* out) override { return db_->Digest(out); }
  Status Audit(const Slice& key) override { return db_->Audit(key); }

 private:
  SpitzDb* db_;
};

void RunChaosTamper() {
  // Part 1: a bit-flipped journal segment. A durable database whose
  // on-disk journal has one flipped bit inside a sealed record must
  // refuse to open (CRC catches it as Corruption) — tampering at rest
  // can never masquerade as a torn tail.
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() /
       ("spitz_chaos_tamper_" + std::to_string(::getpid())))
          .string();
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  SpitzOptions durable_options;
  durable_options.block_size = 4;
  durable_options.data_dir = dir;
  {
    std::unique_ptr<SpitzDb> db;
    AC_CHECK(SpitzDb::Open(durable_options, &db).ok(), "durable open");
    for (size_t i = 0; i < 10; i++) {
      AC_CHECK(db->Put(Key(i), "durable" + std::to_string(i)).ok(),
               "durable put");
    }
    AC_CHECK(db->FlushBlock().ok(), "durable flush");
  }
  const std::string journal_path = dir + "/journal.log";
  std::string journal;
  {
    std::ifstream in(journal_path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    journal = buf.str();
  }
  AC_CHECK(journal.size() > 32, "journal has sealed records to tamper with");
  // 12 bytes past the header frame is inside the first block's payload
  // (past its length prefix), so the record stays structurally complete
  // — only its CRC can tell, and it must.
  journal[Journal::HeaderFrame().size() + 12] ^= 0x40;
  {
    std::ofstream out(journal_path, std::ios::binary | std::ios::trunc);
    out.write(journal.data(), static_cast<std::streamsize>(journal.size()));
  }
  std::unique_ptr<SpitzDb> reopened;
  Status s = SpitzDb::Open(durable_options, &reopened);
  AC_CHECK(!s.ok(), "tampered journal must not open");
  AC_CHECK(s.IsCorruption(), "tamper surfaces as Corruption");
  printf("auditor_client: tamper   journal reopen: %s\n", s.ToString().c_str());
  fs::remove_all(dir, ec);

  // Part 2: byte-flipped evidence envelopes. Run the real audit loop
  // against a tampering server stand-in: the report must NOT be ok —
  // this is the control that proves the harness's non-zero-exit
  // contract fires when evidence lies.
  SpitzDb db;
  for (size_t i = 0; i < kKeySpace; i += 2) {
    AC_CHECK(db.Put(Key(i), "seed").ok(), "tamper seed put");
  }
  EvidenceTamperingKv tampered(&db);
  bench::AuditorOptions options = BaseOptions(/*smoke=*/true);
  options.rounds = 4;
  Random key_rng(43);
  options.sample_key = [&key_rng] { return Key(key_rng.Uniform(kKeySpace)); };
  bench::AuditorReport report = bench::RunAuditor(&tampered, options);
  PrintReport("tamper", report);
  AC_CHECK(!report.ok(), "tampered evidence must fail the audit");
  AC_CHECK(report.verification_failures >= report.get_samples,
           "every tampered get sample was caught");
  AC_CHECK(!report.first_failure.empty(), "first failure is described");
}

int RunChaos(bool smoke) {
  RunChaosBounce(smoke);
  RunChaosFailover(smoke);
  RunChaosTamper();
  if (failures > 0) {
    fprintf(stderr, "auditor_client: %d chaos check(s) failed\n", failures);
    return 1;
  }
  printf("auditor_client: chaos ok\n");
  return 0;
}

int Run(bool smoke) {
  RunSingle(smoke);
  RunCluster(smoke, 3);
  if (failures > 0) {
    fprintf(stderr, "auditor_client: %d check(s) failed\n", failures);
    return 1;
  }
  printf("auditor_client: ok\n");
  return 0;
}

}  // namespace
}  // namespace spitz

int main(int argc, char** argv) {
  bool smoke = false;
  bool chaos = false;
  for (int i = 1; i < argc; i++) {
    if (strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (strcmp(argv[i], "--chaos") == 0) {
      chaos = true;
    } else {
      fprintf(stderr, "usage: %s [--smoke] [--chaos]\n", argv[0]);
      return 2;
    }
  }
  return chaos ? spitz::RunChaos(smoke) : spitz::Run(smoke);
}
