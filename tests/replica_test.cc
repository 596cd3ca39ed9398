// Tests for per-shard primary-backup replication (DESIGN.md §15): the
// primary-side Replicator streaming sealed journal blocks over the
// protocol-v3 wire methods, the backup independently re-deriving the
// same root digest (digest agreement is the replication invariant — a
// mismatch is a hard, counted fault), idempotent re-acks, promotion,
// and ClusterClient verified-read failover to the backup's last-agreed
// root.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_client.h"
#include "cluster/cluster_digest.h"
#include "cluster/local_fleet.h"
#include "cluster/partition.h"
#include "common/fault_env.h"
#include "common/random.h"
#include "core/spitz_db.h"
#include "net/spitz_client.h"
#include "net/spitz_server.h"
#include "common/codec.h"
#include "replica/backup.h"
#include "replica/record.h"
#include "replica/replicator.h"

namespace spitz {
namespace {

constexpr size_t kBlockSize = 4;

SpitzOptions SmallBlocks() {
  SpitzOptions options;
  options.block_size = kBlockSize;
  return options;
}

// A key the partition function routes to `shard` of `shard_count`.
std::string KeyOnShard(size_t shard, size_t shard_count,
                       const std::string& stem) {
  for (int i = 0;; i++) {
    std::string key = stem + "-" + std::to_string(i);
    if (PartitionOf(key, shard_count) == shard) return key;
  }
}

// The replication record of `db`'s sealed block `height`.
std::string RecordOf(const SpitzDb& db, uint64_t height) {
  std::string record;
  Block block;
  Status s = EncodeReplicationRecord(db, height, &record, &block);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return record;
}

// A replicated in-memory fleet with small blocks, so short tests seal.
std::unique_ptr<LocalFleet> OpenReplicatedFleet(size_t shards) {
  LocalFleet::Options options;
  options.shards = shards;
  options.replicated = true;
  options.db = SmallBlocks();
  std::unique_ptr<LocalFleet> fleet;
  Status s = LocalFleet::Open(options, &fleet);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return fleet;
}

// A replication pair wired by hand, for the tests that stage history
// or records before (or instead of) a live stream: a primary db, and a
// backup db behind a BackupReplica and a SpitzServer.
struct ReplicaPair {
  SpitzDb primary{SmallBlocks()};
  SpitzDb backup_db{SmallBlocks()};
  std::unique_ptr<BackupReplica> backup;
  std::unique_ptr<SpitzServer> backup_server;

  void StartBackup() {
    BackupReplica::Options backup_options;
    backup_options.db = &backup_db;
    ASSERT_TRUE(BackupReplica::Open(backup_options, &backup).ok());
    SpitzServer::Options server_options;
    server_options.db = &backup_db;
    server_options.replica = backup.get();
    ASSERT_TRUE(SpitzServer::Open(server_options, &backup_server).ok());
  }

  Replicator::Options StreamOptions() {
    Replicator::Options options;
    options.db = &primary;
    options.backup.port = backup_server->port();
    return options;
  }

  std::unique_ptr<SpitzClient> BackupClient() {
    SpitzClient::Options options;
    options.net.port = backup_server->port();
    std::unique_ptr<SpitzClient> client;
    EXPECT_TRUE(SpitzClient::Open(options, &client).ok());
    return client;
  }
};

// --- Digest agreement -------------------------------------------------------

TEST(ReplicaTest, BackupIndependentlyDerivesThePrimarysDigest) {
  ReplicaPair pair;
  // History sealed before the replicator exists (catch-up path),
  // including overwrites (superseded-put encoding), deletes, and a
  // delete of a key that never existed (the primary records the ledger
  // entry anyway; the backup must tolerate it identically).
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(pair.primary.Put("k" + std::to_string(i), "v1").ok());
  }
  ASSERT_TRUE(pair.primary.Put("k3", "v2").ok());
  ASSERT_TRUE(pair.primary.Delete("k4").ok());
  ASSERT_TRUE(pair.primary.Delete("never-existed").ok());
  ASSERT_TRUE(pair.primary.FlushBlock().ok());

  pair.StartBackup();
  std::unique_ptr<Replicator> replicator;
  ASSERT_TRUE(Replicator::Open(pair.StreamOptions(), &replicator).ok());
  ASSERT_TRUE(replicator->WaitDrained(10'000).ok());
  EXPECT_TRUE(pair.primary.Digest() == pair.backup_db.Digest());

  // Live path: blocks sealed while subscribed stream without polling.
  for (int i = 0; i < 2 * static_cast<int>(kBlockSize); i++) {
    ASSERT_TRUE(pair.primary.Put("live" + std::to_string(i), "w").ok());
  }
  ASSERT_TRUE(pair.primary.FlushBlock().ok());
  ASSERT_TRUE(replicator->WaitDrained(10'000).ok());
  EXPECT_TRUE(pair.primary.Digest() == pair.backup_db.Digest());
  EXPECT_TRUE(replicator->ReplicationFault().ok());
  EXPECT_EQ(pair.backup->digest_mismatches(), 0u);

  // The replicated value is really there, behind a verifiable proof.
  std::string value;
  ASSERT_TRUE(pair.backup_db.VerifiedGet("k3", &value).ok());
  EXPECT_EQ(value, "v2");
  Status s = pair.backup_db.VerifiedGet("k4", &value);
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();

  MetricsSnapshot m = replicator->Metrics();
  EXPECT_GT(m.CounterValue("replica.primary.batches_acked"), 0u);
  EXPECT_EQ(m.CounterValue("replica.primary.digest_mismatches"), 0u);
  // The live blocks were timed from seal to ack.
  const HistogramSnapshot* lag = m.FindHistogram("replica.primary.lag_ns");
  ASSERT_NE(lag, nullptr);
  EXPECT_GT(lag->count, 0u);
}

TEST(ReplicaTest, TamperedRecordIsRejectedAndCounted) {
  ReplicaPair pair;
  for (int i = 0; i < static_cast<int>(kBlockSize); i++) {
    ASSERT_TRUE(pair.primary.Put("t" + std::to_string(i), "value-i").ok());
  }
  pair.StartBackup();

  const std::string record = RecordOf(pair.primary, 0);
  std::unique_ptr<SpitzClient> client = pair.BackupClient();
  ASSERT_NE(client, nullptr);

  // Flip one byte of a shipped value: the value-hash cross-check (and
  // with it the derived root) must reject the record as a hard fault,
  // not apply it.
  std::string tampered = record;
  tampered[tampered.size() - 2] ^= 0x5a;
  wire::ReplicaAck ack;
  Status s = client->Replicate(tampered, &ack);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(pair.backup_db.Digest().journal.block_count, 0u);
  EXPECT_GE(pair.backup->digest_mismatches() +
                (s.IsVerificationFailed() ? 0u : 1u),
            1u);

  // The untampered record still applies cleanly afterwards — a
  // rejected record must not poison the backup.
  s = client->Replicate(record, &ack);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(ack.applied_blocks, 1u);
  EXPECT_TRUE(pair.primary.Digest() == pair.backup_db.Digest());
}

TEST(ReplicaTest, DuplicateRecordIsIdempotentlyReAcked) {
  ReplicaPair pair;
  for (int i = 0; i < static_cast<int>(kBlockSize); i++) {
    ASSERT_TRUE(pair.primary.Put("d" + std::to_string(i), "v").ok());
  }
  pair.StartBackup();
  const std::string record = RecordOf(pair.primary, 0);
  std::unique_ptr<SpitzClient> client = pair.BackupClient();
  ASSERT_NE(client, nullptr);

  wire::ReplicaAck first, second;
  ASSERT_TRUE(client->Replicate(record, &first).ok());
  // Re-delivery (a primary re-ships after a lost ack): same ack, no
  // second apply.
  ASSERT_TRUE(client->Replicate(record, &second).ok());
  EXPECT_EQ(first.applied_blocks, second.applied_blocks);
  EXPECT_TRUE(first.index_root == second.index_root);
  EXPECT_TRUE(first.tip_hash == second.tip_hash);
  EXPECT_EQ(pair.backup_db.Digest().journal.block_count, 1u);
  MetricsSnapshot m = pair.backup->Metrics();
  EXPECT_EQ(m.CounterValue("replica.backup.batches_applied"), 1u);
  EXPECT_EQ(m.CounterValue("replica.backup.duplicate_batches"), 1u);

  // Only a whole record is a duplicate: the record with a trailing byte,
  // or its bare height prefix, is malformed and never re-acked.
  Status s = client->Replicate(record + '\x07', &second);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  s = client->Replicate(record.substr(0, sizeof(uint64_t)), &second);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  m = pair.backup->Metrics();
  EXPECT_EQ(m.CounterValue("replica.backup.duplicate_batches"), 1u);
  EXPECT_EQ(pair.backup_db.Digest().journal.block_count, 1u);
}

// --- The replication record -------------------------------------------------

// Big enough blocks that only FlushBlock seals, and online audits (no
// verifier threads per database: the sweep below opens a thousand).
SpitzOptions CodecOptions() {
  SpitzOptions options;
  options.block_size = 64;
  options.audit_batch_size = 0;
  return options;
}

// Block 0 puts "a"; block 1 holds every case the record encodes: a put
// superseded within the block, a delete of a present key, a delete of
// an absent key and two surviving puts.
void WriteCodecBlocks(SpitzDb* db) {
  ASSERT_TRUE(db->Put("a", "value-a").ok());
  ASSERT_TRUE(db->FlushBlock().ok());
  WriteBatch batch;
  batch.Put("c", "value-c1");
  batch.Put("c", "value-c2");
  batch.Delete("a");
  batch.Delete("absent");
  batch.Put("d", "value-d1");
  ASSERT_TRUE(db->Write(batch).ok());
  ASSERT_TRUE(db->FlushBlock().ok());
}

// An in-process backup replica of `db`, fed without a server.
std::unique_ptr<BackupReplica> OpenBackup(SpitzDb* db) {
  BackupReplica::Options options;
  options.db = db;
  options.sync_applies = false;
  std::unique_ptr<BackupReplica> backup;
  EXPECT_TRUE(BackupReplica::Open(options, &backup).ok());
  return backup;
}

// Hands `record` to `backup` as a kReplicate request would; *ack
// receives the decoded answer when the apply succeeds.
Status Replicate(BackupReplica* backup, const std::string& record,
                 wire::ReplicaAck* ack) {
  std::string response;
  Status s = backup->HandleReplicate(record, &response);
  Slice input(response);
  return s.ok() ? wire::ReplicaAck::DecodeFrom(&input, ack) : s;
}

// A backup retires the index nodes each applied block replaced once
// that block leaves its retain_versions window, as a primary does at
// seal: 20k replicated overwrites of a 64-key hot set, a block each,
// leave the backup's cache (far larger than the data) within a small
// multiple of the live tree's node bytes.
TEST(ReplicaTest, BackupCacheHoldsTheRetainedVersionsNotTheAppliedHistory) {
  const std::string dir = ::testing::TempDir() + "/spitz_replica_retire";
  std::filesystem::remove_all(dir);
  SpitzOptions options;
  options.block_size = 1;
  SpitzDb primary(options);
  options.data_dir = dir;
  options.buffer_cache_bytes = 8 << 20;
  std::unique_ptr<SpitzDb> backup;
  ASSERT_TRUE(SpitzDb::Open(options, &backup).ok());
  constexpr int kHot = 64;
  for (int i = 0; i < 20000; i++) {
    std::string value = "value-" + std::to_string(i);
    value.resize(100, 'x');
    ASSERT_TRUE(primary.Put("hot-" + std::to_string(i * 37 % kHot), value).ok());
    const std::string record = RecordOf(primary, i);
    ReplicationRecord decoded;
    ASSERT_TRUE(DecodeReplicationRecord(record, &decoded).ok());
    const Status s = backup->ApplySealedBlock(decoded.block, decoded.serialized,
                                              decoded.ops, /*sync=*/false,
                                              nullptr);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  ASSERT_EQ(backup->Digest(), primary.Digest());
  std::vector<PosEntry> rows;
  ScanProof live;
  ASSERT_TRUE(
      backup->ReadRange(kCurrentVersion, "", "", 0, &rows, &live).ok());
  const MetricsSnapshot m = backup->Metrics();
  EXPECT_LT(m.GaugeValue("cache.bytes"),
            4 * (options.retain_versions + 2) * live.index_proof.ByteSize());
  EXPECT_GT(m.CounterValue("index.cache.erases"), 0u);
  backup.reset();
  std::filesystem::remove_all(dir);
}

TEST(ReplicaRecordTest, LayoutIsHeightBlockThenOneFlagPerPut) {
  SpitzDb primary(CodecOptions());
  WriteCodecBlocks(&primary);
  std::string block_bytes;
  Block block;
  ASSERT_TRUE(primary.ledger()->SealedBlock(1, &block_bytes, &block).ok());

  // fixed64(h) ‖ lp(block bytes) ‖ per put entry 0, or 1 ‖ lp(value).
  std::string expected;
  PutFixed64(&expected, 1);
  PutLengthPrefixedSlice(&expected, block_bytes);
  expected.push_back('\0');  // c = value-c1, superseded by value-c2
  expected.push_back('\x01');
  PutLengthPrefixedSlice(&expected, "value-c2");
  expected.push_back('\x01');
  PutLengthPrefixedSlice(&expected, "value-d1");
  EXPECT_EQ(RecordOf(primary, 1), expected);
}

TEST(ReplicaRecordTest, EveryByteFlipAndTruncationIsRejectedOrDisagrees) {
  SpitzDb primary(CodecOptions());
  WriteCodecBlocks(&primary);
  const std::string record0 = RecordOf(primary, 0);
  std::string record;
  Block block;
  ASSERT_TRUE(EncodeReplicationRecord(primary, 1, &record, &block).ok());
  const wire::ReplicaAck primary_ack = BlockAck(block);

  // Each variant goes to a fresh backup holding block 0. It is either
  // rejected, leaving the backup as it was, or applied with an ack the
  // primary's agreement check (Replicator::ShipOne) refuses.
  size_t rejected = 0;
  size_t disagreed = 0;
  auto apply = [&](const std::string& variant) {
    SpitzDb db(CodecOptions());
    std::unique_ptr<BackupReplica> backup = OpenBackup(&db);
    wire::ReplicaAck ack;
    ASSERT_TRUE(Replicate(backup.get(), record0, &ack).ok());
    const SpitzDigest before = db.Digest();
    Status s = Replicate(backup.get(), variant, &ack);
    if (!s.ok()) {
      EXPECT_TRUE(db.Digest() == before) << s.ToString();
      rejected++;
    } else {
      EXPECT_TRUE(ack != primary_ack);
      disagreed++;
    }
  };
  for (size_t i = 0; i < record.size(); i++) {
    for (uint8_t mask : {0x01, 0xff}) {
      std::string variant = record;
      variant[i] = static_cast<char>(variant[i] ^ mask);
      apply(variant);
    }
  }
  for (size_t n = 0; n < record.size(); n++) apply(record.substr(0, n));
  EXPECT_EQ(rejected + disagreed, 3 * record.size());
  // Both outcomes occur: a flipped block timestamp still re-derives the
  // sealed root, but not the block hash.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(disagreed, 0u);

  // The untouched record applies and agrees.
  SpitzDb db(CodecOptions());
  std::unique_ptr<BackupReplica> backup = OpenBackup(&db);
  wire::ReplicaAck ack;
  ASSERT_TRUE(Replicate(backup.get(), record0, &ack).ok());
  ASSERT_TRUE(Replicate(backup.get(), record, &ack).ok());
  EXPECT_TRUE(ack == primary_ack);
  EXPECT_TRUE(db.Digest() == primary.Digest());
}

TEST(ReplicaRecordTest, BackupOfABulkLoadAgreesOnTheWholeDigest) {
  // Adopting a block resumes commit timestamps past its entries; the
  // bulk-loaded primary must name the same last timestamp, and both
  // must hand out the same next one. (One block: a bulk load records
  // its final root in every block it seals.)
  SpitzDb primary(CodecOptions());
  std::vector<PosEntry> entries;
  for (int i = 100; i < 164; i++) {
    entries.push_back({"k" + std::to_string(i), "v" + std::to_string(i)});
  }
  ASSERT_TRUE(primary.BulkLoad(entries).ok());
  ASSERT_EQ(primary.Digest().journal.block_count, 1u);
  SpitzDb db(CodecOptions());
  std::unique_ptr<BackupReplica> backup = OpenBackup(&db);
  wire::ReplicaAck ack;
  ASSERT_TRUE(Replicate(backup.get(), RecordOf(primary, 0), &ack).ok());
  EXPECT_TRUE(db.Digest() == primary.Digest());
  ASSERT_TRUE(primary.Put("next", "v").ok());
  ASSERT_TRUE(db.Put("next", "v").ok());
  EXPECT_EQ(db.Digest().last_commit_ts, primary.Digest().last_commit_ts);
}

// --- Roles and promotion ----------------------------------------------------

TEST(ReplicaTest, BackupIsReadOnlyUntilPromotedThenRejectsReplication) {
  std::unique_ptr<LocalFleet> fleet = OpenReplicatedFleet(1);
  SpitzDb* primary = fleet->db(0);
  for (int i = 0; i < static_cast<int>(kBlockSize); i++) {
    ASSERT_TRUE(primary->Put("p" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(fleet->Drain().ok());

  std::unique_ptr<SpitzClient> client;
  ASSERT_TRUE(SpitzClient::Open(fleet->BackupClientOptions(0), &client).ok());

  // Read-only while a backup: reads and proofs work, writes do not.
  std::string value;
  ASSERT_TRUE(client->VerifiedGet("p0", &value).ok());
  Status s = client->Put("write", "rejected");
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();

  wire::ReplicaStatusResult status;
  ASSERT_TRUE(client->ReplicaStatus(wire::kReplicaStatusQuery, &status).ok());
  EXPECT_EQ(status.role, 0u);
  EXPECT_EQ(status.applied.applied_blocks, 1u);

  // Promote over the wire; the node takes writes and hard-rejects any
  // further replication.
  ASSERT_TRUE(client->ReplicaStatus(wire::kReplicaStatusPromote, &status).ok());
  EXPECT_EQ(status.role, 1u);
  EXPECT_TRUE(client->Put("write", "accepted").ok());

  wire::ReplicaAck ack;
  s = client->Replicate(RecordOf(*primary, 0), &ack);
  EXPECT_TRUE(s.IsAborted()) << s.ToString();
}

// --- Replicator guard rails -------------------------------------------------

TEST(ReplicaTest, ReplicatorRefusesAnEndpointWithoutReplication) {
  // A plain SpitzServer (no BackupReplica wired in) does not advertise
  // kFeatureReplication; the replicator must refuse to stream at it.
  std::unique_ptr<LocalFleet> fleet;
  ASSERT_TRUE(LocalFleet::Open(LocalFleet::Options(), &fleet).ok());

  SpitzDb primary{SmallBlocks()};
  Replicator::Options options;
  options.db = &primary;
  options.backup = fleet->ClientOptions(0).net;
  std::unique_ptr<Replicator> replicator;
  Status s = Replicator::Open(options, &replicator);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST(ReplicaTest, ReplicatorRefusesABackupWithForeignHistory) {
  // A backup whose applied state disagrees with the primary's ledger
  // (it replicated some other primary) must fault at Open, before a
  // single block ships.
  ReplicaPair pair;
  for (int i = 0; i < static_cast<int>(kBlockSize); i++) {
    ASSERT_TRUE(pair.backup_db.Put("foreign" + std::to_string(i), "x").ok());
  }
  ASSERT_TRUE(pair.backup_db.FlushBlock().ok());
  pair.StartBackup();

  for (int i = 0; i < 2 * static_cast<int>(kBlockSize); i++) {
    ASSERT_TRUE(pair.primary.Put("mine" + std::to_string(i), "y").ok());
  }
  std::unique_ptr<Replicator> replicator;
  Status s = Replicator::Open(pair.StreamOptions(), &replicator);
  EXPECT_TRUE(s.IsVerificationFailed()) << s.ToString();
}

// --- Catch-up from blocks paged out of RAM ----------------------------------

// A durable primary for the paging tests, in a fresh `dir`.
std::unique_ptr<SpitzDb> OpenDurablePrimary(const std::string& dir,
                                            Env* env) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  SpitzOptions options = SmallBlocks();
  options.data_dir = dir;
  options.env = env;
  std::unique_ptr<SpitzDb> db;
  Status s = SpitzDb::Open(options, &db);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return db;
}

// `blocks` full blocks of puts to `db`, then a sync that pages every
// sealed block out to journal.log.
void WriteAndPageOut(SpitzDb* db, const std::string& stem, int blocks) {
  for (int i = 0; i < blocks * static_cast<int>(kBlockSize); i++) {
    // Every third put overwrites, so records carry superseded puts.
    ASSERT_TRUE(
        db->Put(stem + std::to_string(i % 3 == 2 ? i - 1 : i), "v").ok());
  }
  ASSERT_TRUE(db->SyncStorage().ok());
  EXPECT_EQ(db->Metrics().GaugeValue("core.db.journal.resident_bytes"), 0u);
}

// A durable backup behind its own server, for the tests that bounce it.
struct DurableBackup {
  std::unique_ptr<SpitzDb> db;
  std::unique_ptr<BackupReplica> replica;
  std::unique_ptr<SpitzServer> server;

  // Opens (or reopens, after Close) the backup stored in `dir`.
  void Open(const std::string& dir) {
    SpitzOptions options = SmallBlocks();
    options.data_dir = dir;
    ASSERT_TRUE(SpitzDb::Open(options, &db).ok());
    BackupReplica::Options replica_options;
    replica_options.db = db.get();
    ASSERT_TRUE(BackupReplica::Open(replica_options, &replica).ok());
    SpitzServer::Options server_options;
    server_options.db = db.get();
    server_options.replica = replica.get();
    ASSERT_TRUE(SpitzServer::Open(server_options, &server).ok());
  }

  void Close() {
    server.reset();
    replica.reset();
    db.reset();
  }
};

// A backup that fell many flushed blocks behind (its replicator paused
// and the backup bounced) catches up from blocks read back from the
// primary's journal.log and ends on the primary's digest, with the same
// verified key history on both.
TEST(ReplicaTest, BackupCatchesUpFromBlocksPagedOutOfTheJournal) {
  const std::string dir = ::testing::TempDir() + "/spitz_replica_paged";
  std::filesystem::remove_all(dir);
  std::unique_ptr<SpitzDb> primary =
      OpenDurablePrimary(dir + "/primary", nullptr);
  ASSERT_NE(primary, nullptr);
  DurableBackup backup;
  backup.Open(dir + "/backup");
  Replicator::Options stream;
  stream.db = primary.get();
  stream.backup.port = backup.server->port();

  WriteAndPageOut(primary.get(), "early", 2);
  std::unique_ptr<Replicator> replicator;
  ASSERT_TRUE(Replicator::Open(stream, &replicator).ok());
  ASSERT_TRUE(replicator->WaitDrained(10'000).ok());
  replicator.reset();
  backup.Close();

  WriteAndPageOut(primary.get(), "late", 40);
  backup.Open(dir + "/backup");
  EXPECT_EQ(backup.db->Digest().journal.block_count, 2u);
  stream.backup.port = backup.server->port();
  ASSERT_TRUE(Replicator::Open(stream, &replicator).ok());
  ASSERT_TRUE(replicator->WaitDrained(10'000).ok());
  const SpitzDigest digest = primary->Digest();
  EXPECT_EQ(digest.journal.block_count, 42u);
  EXPECT_TRUE(backup.db->Digest() == digest);
  EXPECT_EQ(replicator->Metrics().CounterValue("replica.primary.read_retries"),
            0u);
  // Synced applies paged the backup's blocks out too.
  EXPECT_EQ(
      backup.db->Metrics().GaugeValue("core.db.journal.resident_bytes"), 0u);

  for (const std::string key : {"early0", "late4", "late100"}) {
    std::vector<SpitzDb::HistoricalWrite> on_primary, on_backup;
    ASSERT_TRUE(primary->ledger()->KeyHistory(key, &on_primary).ok()) << key;
    ASSERT_TRUE(backup.db->ledger()->KeyHistory(key, &on_backup).ok()) << key;
    ASSERT_EQ(on_primary.size(), on_backup.size()) << key;
    for (size_t i = 0; i < on_backup.size(); i++) {
      EXPECT_EQ(on_primary[i].entry, on_backup[i].entry);
      EXPECT_TRUE(VerifyJournalEntry(on_backup[i].entry, on_backup[i].proof,
                                     digest.journal)
                      .ok());
    }
  }
  replicator.reset();
  backup.Close();
  primary.reset();
  std::filesystem::remove_all(dir);
}

// A failed read of the primary's journal.log is retried on the same
// connection until it succeeds; a block whose bytes fail their checks
// is never shipped and faults the stream.
TEST(ReplicaTest, FailedJournalReadIsRetriedAndACorruptBlockNeverShips) {
  const std::string dir = ::testing::TempDir() + "/spitz_replica_eio";
  FaultInjectionEnv env(Env::Default());
  std::unique_ptr<SpitzDb> primary = OpenDurablePrimary(dir, &env);
  ASSERT_NE(primary, nullptr);
  ReplicaPair pair;
  pair.StartBackup();
  Replicator::Options stream = pair.StreamOptions();
  stream.db = primary.get();
  stream.reconnect_backoff_ms = 5;
  WriteAndPageOut(primary.get(), "k", 3);

  env.SetReadFaults(true);
  std::unique_ptr<Replicator> replicator;
  ASSERT_TRUE(Replicator::Open(stream, &replicator).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (replicator->Metrics().CounterValue("replica.primary.read_retries") <
             3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(replicator->Metrics().CounterValue("replica.primary.read_retries"),
            3u);
  EXPECT_TRUE(replicator->ReplicationFault().ok());
  EXPECT_EQ(replicator->Metrics().CounterValue("replica.primary.reconnects"),
            0u);
  EXPECT_EQ(pair.backup_db.Digest().journal.block_count, 0u);
  env.SetReadFaults(false);
  ASSERT_TRUE(replicator->WaitDrained(10'000).ok());
  EXPECT_TRUE(pair.backup_db.Digest() == primary->Digest());
  replicator->Stop();

  // Two more blocks; one byte near the end of the file lands in the
  // last block's frame.
  WriteAndPageOut(primary.get(), "m", 2);
  {
    const std::string path = dir + "/journal.log";
    const auto at =
        static_cast<std::streamoff>(std::filesystem::file_size(path) - 10);
    std::fstream io(path, std::ios::binary | std::ios::in | std::ios::out);
    io.seekg(at);
    const char c = static_cast<char>(io.get());
    io.seekp(at);
    io.put(static_cast<char>(c ^ 0x20));
  }
  ASSERT_TRUE(Replicator::Open(stream, &replicator).ok());
  Status s = replicator->WaitDrained(10'000);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_TRUE(replicator->ReplicationFault().IsCorruption());
  EXPECT_EQ(pair.backup_db.Digest().journal.block_count, 4u);
  replicator.reset();
  primary.reset();
  std::filesystem::remove_all(dir);
}

// A backup whose journal append fails keeps nothing of the block: its
// entry count, digest, roots and key history stay as they were, and a
// retry returns the journal's sticky IOError. The same directory
// reopened on the revived env applies the block with the primary's ack.
TEST(ReplicaTest, FailedJournalAppendLeavesTheBackupUnchanged) {
  const std::string dir = ::testing::TempDir() + "/spitz_replica_append";
  SpitzOptions options = CodecOptions();
  options.block_size = 8;
  SpitzDb primary(options);
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(primary.Put("k" + std::to_string(i), "v").ok());
  }
  std::string record;
  Block block;
  ASSERT_TRUE(EncodeReplicationRecord(primary, 0, &record, &block).ok());
  wire::ReplicaAck ack;

  // A dry run counts the apply's ops; its journal append is the last.
  uint64_t apply_ops = 0;
  {
    FaultInjectionEnv dry(Env::Default());
    std::unique_ptr<SpitzDb> db = OpenDurablePrimary(dir, &dry);
    ASSERT_NE(db, nullptr);
    std::unique_ptr<BackupReplica> backup = OpenBackup(db.get());
    const uint64_t before = dry.ops_seen();
    ASSERT_TRUE(Replicate(backup.get(), record, &ack).ok());
    apply_ops = dry.ops_seen() - before;
    ASSERT_GT(apply_ops, 1u);
  }

  FaultInjectionEnv env(Env::Default());
  {
    std::unique_ptr<SpitzDb> db = OpenDurablePrimary(dir, &env);
    ASSERT_NE(db, nullptr);
    std::unique_ptr<BackupReplica> backup = OpenBackup(db.get());
    const SpitzDigest before = db->Digest();
    env.FailAt(env.ops_seen() + apply_ops - 1, FaultKind::kFailWrite);
    Status s = Replicate(backup.get(), record, &ack);
    EXPECT_TRUE(s.IsIOError()) << s.ToString();
    EXPECT_TRUE(env.fault_fired());
    EXPECT_EQ(db->ledger()->entry_count(), 0u);
    EXPECT_TRUE(db->Digest() == before);
    Hash256 root;
    EXPECT_TRUE(db->ledger()->IndexRootAt(0, &root).IsNotFound());
    std::vector<SpitzDb::HistoricalWrite> history;
    EXPECT_TRUE(db->ledger()->KeyHistory("k0", &history).IsNotFound());
    env.Revive();
    s = Replicate(backup.get(), record, &ack);
    EXPECT_TRUE(s.IsIOError()) << s.ToString();
    EXPECT_NE(s.ToString().find("journal append failed"), std::string::npos)
        << s.ToString();
    EXPECT_EQ(db->ledger()->entry_count(), 0u);
    EXPECT_TRUE(db->Digest() == before);
  }

  SpitzOptions reopen = SmallBlocks();
  reopen.data_dir = dir;
  reopen.env = &env;
  std::unique_ptr<SpitzDb> db;
  ASSERT_TRUE(SpitzDb::Open(reopen, &db).ok());
  EXPECT_EQ(db->Digest().journal.block_count, 0u);
  std::unique_ptr<BackupReplica> backup = OpenBackup(db.get());
  ASSERT_TRUE(Replicate(backup.get(), record, &ack).ok());
  EXPECT_TRUE(ack == BlockAck(block));
  EXPECT_EQ(db->ledger()->entry_count(), 8u);
  backup.reset();
  db.reset();
  std::filesystem::remove_all(dir);
}

// --- Cluster failover -------------------------------------------------------

// A replicated fleet and one ClusterClient over its primaries and
// backups.
struct ReplicatedCluster {
  std::unique_ptr<LocalFleet> fleet;
  std::unique_ptr<ClusterClient> client;

  explicit ReplicatedCluster(size_t n) : fleet(OpenReplicatedFleet(n)) {
    ClusterClient::Options options = fleet->ClusterOptions();
    for (NetClient::Options& primary : options.shards) {
      primary.connect_attempts = 2;
    }
    Status s = ClusterClient::Open(options, &client);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
};

// A snapshot holds one digest per shard, from the node that serves the
// shard's proofs: while the primary answers, its backup is asked
// nothing, so a dead backup costs a verified read nothing either.
TEST(ReplicaClusterTest, VerifiedReadsAskNothingOfALiveShardsBackup) {
  ReplicaPair pair;
  pair.StartBackup();
  std::unique_ptr<Replicator> replicator;
  ASSERT_TRUE(Replicator::Open(pair.StreamOptions(), &replicator).ok());
  for (int i = 0; i < 3 * static_cast<int>(kBlockSize); i++) {
    ASSERT_TRUE(pair.primary.Put("k" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(pair.primary.FlushBlock().ok());
  ASSERT_TRUE(replicator->WaitDrained(10'000).ok());

  SpitzServer::Options server_options;
  server_options.db = &pair.primary;
  std::unique_ptr<SpitzServer> primary_server;
  ASSERT_TRUE(SpitzServer::Open(server_options, &primary_server).ok());
  ClusterClient::Options options;
  options.shards.emplace_back();
  options.shards[0].port = primary_server->port();
  options.backups.emplace_back();
  options.backups[0].port = pair.backup_server->port();
  std::unique_ptr<ClusterClient> client;
  ASSERT_TRUE(ClusterClient::Open(options, &client).ok());

  auto verified_reads = [&] {
    for (int i = 0; i < 4; i++) {
      std::string value;
      ASSERT_TRUE(client->VerifiedGet("k" + std::to_string(i), &value).ok());
      EXPECT_EQ(value, "v");
    }
    std::vector<PosEntry> rows;
    ASSERT_TRUE(client->VerifiedScan("k", "l", 100, &rows).ok());
    EXPECT_EQ(rows.size(), 3 * kBlockSize);
    VerifiedKv::Evidence evidence;
    ASSERT_TRUE(client->GetProof("k1", &evidence).ok());
    EXPECT_TRUE(VerifyClusterGetEvidence("k1", evidence).ok());
  };
  const uint64_t frames = pair.backup_server->frames_served();
  verified_reads();
  EXPECT_EQ(pair.backup_server->frames_served(), frames);

  pair.backup_server->Shutdown();
  verified_reads();
}

TEST(ReplicaClusterTest, VerifiedReadsFailOverAndPromoteRestoresWrites) {
  ReplicatedCluster cluster(2);
  const std::string key0 = KeyOnShard(0, 2, "fo");
  const std::string key1 = KeyOnShard(1, 2, "fo");
  ASSERT_TRUE(cluster.client->Put(key0, "v0").ok());
  ASSERT_TRUE(cluster.client->Put(key1, "v1").ok());
  ASSERT_TRUE(cluster.fleet->Drain().ok());

  // Kill shard 0's primary under the client.
  cluster.fleet->KillPrimary(0);

  // Verified reads keep verifying: shard 0's slot re-pins at the
  // backup's last-agreed root and the proof comes from the backup.
  std::string value;
  Status s = cluster.client->VerifiedGet(key0, &value);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(value, "v0");
  ASSERT_TRUE(cluster.client->VerifiedGet(key1, &value).ok());
  EXPECT_EQ(value, "v1");
  std::vector<PosEntry> rows;
  ReadOptions verified;
  verified.verify = true;
  ASSERT_TRUE(cluster.client->Scan(verified, "", "\xff", 100, &rows).ok());
  EXPECT_GE(rows.size(), 2u);

  // Evidence still assembles and verifies through the failover.
  VerifiedKv::Evidence evidence;
  ASSERT_TRUE(cluster.client->GetProof(key0, &evidence).ok());
  EXPECT_TRUE(VerifyClusterGetEvidence(key0, evidence).ok());

  // Writes to the dead shard fail until promotion...
  s = cluster.client->Put(key0, "rejected");
  EXPECT_FALSE(s.ok());

  // ...then Promote() makes the backup the new primary for writes.
  ASSERT_TRUE(cluster.client->Promote(0).ok());
  EXPECT_TRUE(cluster.client->promoted(0));
  ASSERT_TRUE(cluster.client->Put(key0, "v0-after").ok());
  ASSERT_TRUE(cluster.client->VerifiedGet(key0, &value).ok());
  EXPECT_EQ(value, "v0-after");
  // Idempotent.
  EXPECT_TRUE(cluster.client->Promote(0).ok());
}

// YCSB-style mixed traffic through a ClusterClient: 50% updates, 45%
// plain reads, 5% verified reads. Returns the op's status, NotFound
// folded into OK.
Status MixedOp(ClusterClient* client, Random* rng) {
  const uint64_t dice = rng->Uniform(100);
  const std::string key = "user" + std::to_string(100000 + rng->Uniform(512));
  if (dice < 50) return client->Put(WriteOptions(), key, rng->Bytes(64));
  ReadOptions options;
  options.verify = dice >= 95;
  std::string value;
  Status s = client->Get(options, key, &value);
  return s.IsNotFound() ? Status::OK() : s;
}

TEST(ReplicaClusterTest, KillWithoutDrainLosesOnlyTheUnackedTail) {
  constexpr int kOps = 1000;
  LocalFleet::Options options;
  options.replicated = true;
  options.db.block_size = 8;  // a sealed block every ~8 writes
  std::unique_ptr<LocalFleet> fleet;
  ASSERT_TRUE(LocalFleet::Open(options, &fleet).ok());
  ClusterClient::Options client_options = fleet->ClusterOptions();
  client_options.shards[0].connect_attempts = 2;
  std::unique_ptr<ClusterClient> client;
  ASSERT_TRUE(ClusterClient::Open(client_options, &client).ok());

  Random rng(9103);
  for (int i = 0; i < kOps / 2; i++) {
    Status s = MixedOp(client.get(), &rng);
    ASSERT_TRUE(s.ok()) << "before the kill: " << s.ToString();
  }

  // The kill, with no drain: whatever the stream had not acked is lost.
  const uint64_t sealed = fleet->db(0)->Digest().journal.block_count;
  const uint64_t acked = fleet->replicator(0)->acked_blocks();
  fleet->KillPrimary(0);
  // The replicator ships block by block, so the loss is the in-flight
  // tail, not an unbounded queue.
  EXPECT_LE(sealed - acked, 8u);

  // The next verified read fails over to the backup's last-agreed
  // digest and verifies.
  Status first;
  for (int attempt = 0; attempt < 1000; attempt++) {
    ReadOptions verified;
    verified.verify = true;
    std::string value;
    first = client->Get(verified, "user100000", &value);
    if (first.IsNotFound()) first = Status::OK();
    if (first.ok() || first.IsVerificationFailed()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(first.ok()) << first.ToString();

  ASSERT_TRUE(client->Promote(0).ok());
  for (int i = kOps / 2; i < kOps; i++) {
    Status s = MixedOp(client.get(), &rng);
    ASSERT_TRUE(s.ok()) << "after promotion: " << s.ToString();
  }
}

TEST(ReplicaClusterTest, OpenProbeRejectsABackupListedAsPrimary) {
  // The misordered-endpoint trap the open-time probe exists for: a
  // backup in the primary slot would reject every write; Open must say
  // so, naming the shard.
  std::unique_ptr<LocalFleet> fleet = OpenReplicatedFleet(1);

  ClusterClient::Options options;
  // The backup in the primary slot, on purpose.
  options.shards.push_back(fleet->BackupClientOptions(0).net);
  std::unique_ptr<ClusterClient> client;
  Status s = ClusterClient::Open(options, &client);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.ToString().find("shard 0"), std::string::npos) << s.ToString();
}

TEST(ReplicaClusterTest, OpenProbeFailsFastOnADeadEndpointWithShardIndex) {
  LocalFleet::Options fleet_options;
  fleet_options.shards = 2;
  std::unique_ptr<LocalFleet> fleet;
  ASSERT_TRUE(LocalFleet::Open(fleet_options, &fleet).ok());
  // Nothing listens on shard 1's port once its server is down.
  fleet->KillPrimary(1);

  ClusterClient::Options options = fleet->ClusterOptions();
  options.shards[1].connect_attempts = 1;
  std::unique_ptr<ClusterClient> client;
  Status s = ClusterClient::Open(options, &client);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("shard 1"), std::string::npos) << s.ToString();
}

}  // namespace
}  // namespace spitz
