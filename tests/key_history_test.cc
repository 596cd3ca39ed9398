// Tests for the key-history index (KeyHistoryIndex) and the provenance
// query built on it (Ledger::KeyHistory): fingerprint collisions never
// leak another key's writes, seal order holds across many blocks, and
// the index rebuilt at reopen or on a replica answers exactly as the
// one fed at seal time.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/fault_env.h"
#include "common/random.h"
#include "core/spitz_db.h"
#include "ledger/key_history_index.h"
#include "replica/backup.h"
#include "replica/record.h"

namespace spitz {
namespace {

using History = std::vector<SpitzDb::HistoricalWrite>;

// Two distinct keys with the same fingerprint, by birthday search over
// a 32-bit fingerprint (about 2^16 keys on average). The keys are
// random letters: CRC32C is linear, so keys differing only in a few
// decimal digits almost never collide.
std::pair<std::string, std::string> CollidingKeys() {
  Random rnd(301);
  std::unordered_map<uint32_t, std::string> seen;
  for (;;) {
    std::string key(12, '\0');
    for (char& c : key) c = static_cast<char>('a' + rnd.Uniform(26));
    auto [it, fresh] = seen.emplace(KeyHistoryIndex::Fingerprint(key), key);
    if (!fresh && it->second != key) return {it->second, key};
  }
}

LedgerEntry EntryFor(const std::string& key) {
  LedgerEntry entry;
  entry.key = key;
  return entry;
}

// Every write of `key` in `history` proves against `digest`.
void ExpectVerified(const History& history, const std::string& key,
                    const SpitzDigest& digest) {
  for (const SpitzDb::HistoricalWrite& write : history) {
    EXPECT_EQ(write.entry.key, key);
    EXPECT_EQ(write.proof.block_height, write.block_height);
    EXPECT_TRUE(
        VerifyJournalEntry(write.entry, write.proof, digest.journal).ok());
  }
}

void ExpectSameHistory(const History& a, const History& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); i++) {
    EXPECT_EQ(a[i].entry, b[i].entry);
    EXPECT_EQ(a[i].block_height, b[i].block_height);
    EXPECT_EQ(a[i].proof.entry_index, b[i].proof.entry_index);
  }
}

// --- The index on its own -------------------------------------------------

TEST(KeyHistoryIndexTest, FindsEveryWriteThroughGrowth) {
  // Enough distinct keys to grow the slot table many times, in blocks
  // of 7 with an empty block in the middle (a replicated block may
  // carry no entries).
  constexpr int kKeys = 50000;
  KeyHistoryIndex index;
  std::vector<LedgerEntry> block;
  uint64_t height = 0;
  std::vector<KeyHistoryIndex::Position> expected(kKeys);
  for (int i = 0; i < kKeys; i++) {
    expected[i] = {height, block.size()};
    block.push_back(EntryFor("key-" + std::to_string(i)));
    if (block.size() == 7 || i == kKeys - 1) {
      index.AddBlock(block);
      block.clear();
      height++;
      if (height == 100) {
        index.AddBlock({});
        height++;
      }
    }
  }
  EXPECT_EQ(index.write_count(), static_cast<uint64_t>(kKeys));
  std::vector<KeyHistoryIndex::Position> found;
  for (int i = 0; i < kKeys; i++) {
    const std::string key = "key-" + std::to_string(i);
    index.Lookup(key, &found);
    bool hit = false;
    for (const KeyHistoryIndex::Position& at : found) {
      hit |= at.height == expected[i].height && at.index == expected[i].index;
    }
    EXPECT_TRUE(hit) << key;
  }
  index.Lookup("never-written", &found);
  EXPECT_TRUE(found.empty());
  EXPECT_LE(index.memory_bytes(), 32u * kKeys);
}

TEST(KeyHistoryIndexTest, CollidingKeysShareOneChain) {
  const auto [a, b] = CollidingKeys();
  KeyHistoryIndex index;
  index.AddBlock({EntryFor(a), EntryFor("other"), EntryFor(b)});
  index.AddBlock({EntryFor(a)});
  std::vector<KeyHistoryIndex::Position> found;
  index.Lookup(b, &found);
  // Both keys' writes, in seal order: the caller filters by key.
  ASSERT_EQ(found.size(), 3u);
  EXPECT_EQ(found[0].height, 0u);
  EXPECT_EQ(found[0].index, 0u);
  EXPECT_EQ(found[1].height, 0u);
  EXPECT_EQ(found[1].index, 2u);
  EXPECT_EQ(found[2].height, 1u);
  EXPECT_EQ(found[2].index, 0u);
}

// --- KeyHistory on a database ---------------------------------------------

TEST(KeyHistoryTest, FingerprintCollisionReturnsOnlyOwnWrites) {
  const auto [a, b] = CollidingKeys();
  SpitzOptions options;
  options.block_size = 2;
  SpitzDb db(options);
  ASSERT_TRUE(db.Put(a, "a0").ok());
  ASSERT_TRUE(db.Put("pad", "x").ok());
  ASSERT_TRUE(db.Put(a, "a1").ok());
  ASSERT_TRUE(db.FlushBlock().ok());
  History history;
  // Never written, but sharing a's fingerprint slot.
  EXPECT_TRUE(db.ledger()->KeyHistory(b, &history).IsNotFound());
  EXPECT_TRUE(history.empty());

  ASSERT_TRUE(db.Put(b, "b0").ok());
  ASSERT_TRUE(db.Put(a, "a2").ok());
  ASSERT_TRUE(db.FlushBlock().ok());
  const SpitzDigest digest = db.Digest();
  ASSERT_TRUE(db.ledger()->KeyHistory(a, &history).ok());
  ASSERT_EQ(history.size(), 3u);
  for (int i = 0; i < 3; i++) {
    EXPECT_EQ(history[i].entry.value_hash,
              Hash256::Of("a" + std::to_string(i)));
  }
  ExpectVerified(history, a, digest);
  ASSERT_TRUE(db.ledger()->KeyHistory(b, &history).ok());
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history[0].entry.value_hash, Hash256::Of("b0"));
  ExpectVerified(history, b, digest);
}

TEST(KeyHistoryTest, SameKeyTwiceInOneBlockThenDeleted) {
  SpitzOptions options;
  options.block_size = 8;
  SpitzDb db(options);
  ASSERT_TRUE(db.Put("k", "v0").ok());
  WriteBatch batch;  // the same key twice in one batch, too
  batch.Put("k", "v1");
  batch.Put("k", "v2");
  ASSERT_TRUE(db.Write(batch).ok());
  ASSERT_TRUE(db.Delete("k").ok());
  ASSERT_TRUE(db.FlushBlock().ok());
  History history;
  ASSERT_TRUE(db.ledger()->KeyHistory("k", &history).ok());
  ASSERT_EQ(history.size(), 4u);
  for (size_t i = 0; i < history.size(); i++) {
    EXPECT_EQ(history[i].block_height, 0u);
    EXPECT_EQ(history[i].proof.entry_index, i);
  }
  for (int i = 0; i < 3; i++) {
    EXPECT_EQ(history[i].entry.op, LedgerEntry::Op::kPut);
    EXPECT_EQ(history[i].entry.value_hash,
              Hash256::Of("v" + std::to_string(i)));
  }
  EXPECT_EQ(history[3].entry.op, LedgerEntry::Op::kDelete);
  ExpectVerified(history, "k", db.Digest());
}

TEST(KeyHistoryTest, KeepsSealOrderAcrossThousandsOfBlocks) {
  constexpr int kWrites = 1200;
  SpitzOptions options;
  options.block_size = 1;  // every write seals its own block
  SpitzDb db(options);
  for (int i = 0; i < kWrites; i++) {
    ASSERT_TRUE(db.Put("hot", "v" + std::to_string(i)).ok());
    ASSERT_TRUE(db.Put("cold-" + std::to_string(i % 7), "x").ok());
  }
  const SpitzDigest digest = db.Digest();
  ASSERT_EQ(digest.journal.block_count, 2u * kWrites);
  History history;
  ASSERT_TRUE(db.ledger()->KeyHistory("hot", &history).ok());
  ASSERT_EQ(history.size(), static_cast<size_t>(kWrites));
  for (int i = 0; i < kWrites; i++) {
    EXPECT_EQ(history[i].block_height, 2u * i);
    EXPECT_EQ(history[i].entry.value_hash,
              Hash256::Of("v" + std::to_string(i)));
    if (i > 0) {
      EXPECT_LT(history[i - 1].entry.commit_ts, history[i].entry.commit_ts);
    }
  }
  ExpectVerified(history, "hot", digest);
}

// The keys the rebuild tests write: a colliding pair among ordinary
// keys, overwrites and a delete, over blocks of 3.
std::vector<std::string> WriteRebuildWorkload(SpitzDb* db) {
  const auto [a, b] = CollidingKeys();
  for (int round = 0; round < 4; round++) {
    EXPECT_TRUE(db->Put(a, "a" + std::to_string(round)).ok());
    EXPECT_TRUE(db->Put("doc-" + std::to_string(round % 3), "d").ok());
    if (round % 2 == 1) {
      EXPECT_TRUE(db->Put(b, "b").ok());
    }
  }
  EXPECT_TRUE(db->Delete("doc-1").ok());
  EXPECT_TRUE(db->FlushBlock().ok());
  return {a, b, "doc-0", "doc-1", "doc-2"};
}

TEST(KeyHistoryTest, IdenticalAfterReopen) {
  const std::string dir =
      ::testing::TempDir() + "/spitz_key_history_reopen";
  std::filesystem::remove_all(dir);
  SpitzOptions options;
  options.block_size = 3;
  options.data_dir = dir;
  std::vector<std::string> keys;
  std::vector<History> before;
  uint64_t writes = 0;
  {
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(options, &db).ok());
    keys = WriteRebuildWorkload(db.get());
    for (const std::string& key : keys) {
      History history;
      ASSERT_TRUE(db->ledger()->KeyHistory(key, &history).ok()) << key;
      ExpectVerified(history, key, db->Digest());
      before.push_back(std::move(history));
    }
    writes = db->Metrics().GaugeValue("core.db.history.writes");
    EXPECT_EQ(writes, db->Digest().journal.entry_count);
    EXPECT_GT(db->Metrics().GaugeValue("core.db.journal.resident_bytes"), 0u);
    // The flush pages every block out: the same answers now come from
    // journal.log.
    ASSERT_TRUE(db->SyncStorage().ok());
    EXPECT_EQ(db->Metrics().GaugeValue("core.db.journal.resident_bytes"), 0u);
    for (size_t i = 0; i < keys.size(); i++) {
      History history;
      ASSERT_TRUE(db->ledger()->KeyHistory(keys[i], &history).ok()) << keys[i];
      ExpectSameHistory(before[i], history);
      ExpectVerified(history, keys[i], db->Digest());
    }
  }
  std::unique_ptr<SpitzDb> db;
  ASSERT_TRUE(SpitzDb::Open(options, &db).ok());
  const SpitzDigest digest = db->Digest();
  MetricsSnapshot m = db->Metrics();
  EXPECT_EQ(m.GaugeValue("core.db.history.writes"), writes);
  EXPECT_GT(m.GaugeValue("core.db.history.bytes"), 0u);
  // Recovery keeps only each block's offset.
  EXPECT_EQ(m.GaugeValue("core.db.journal.resident_bytes"), 0u);
  for (size_t i = 0; i < keys.size(); i++) {
    History history;
    ASSERT_TRUE(db->ledger()->KeyHistory(keys[i], &history).ok()) << keys[i];
    ExpectSameHistory(before[i], history);
    ExpectVerified(history, keys[i], digest);
  }
  db.reset();
  std::filesystem::remove_all(dir);
}

TEST(KeyHistoryTest, IdenticalOnBackupAfterReplication) {
  SpitzOptions options;
  options.block_size = 3;
  SpitzDb primary(options);
  SpitzDb backup(options);
  BackupReplica::Options replica_options;
  replica_options.db = &backup;
  replica_options.sync_applies = false;
  std::unique_ptr<BackupReplica> replica;
  ASSERT_TRUE(BackupReplica::Open(replica_options, &replica).ok());
  const std::vector<std::string> keys = WriteRebuildWorkload(&primary);
  const uint64_t blocks = primary.Digest().journal.block_count;
  for (uint64_t height = 0; height < blocks; height++) {
    std::string record, ack;
    Block block;
    ASSERT_TRUE(
        EncodeReplicationRecord(primary, height, &record, &block).ok());
    ASSERT_TRUE(replica->HandleReplicate(record, &ack).ok());
  }
  const SpitzDigest digest = backup.Digest();
  ASSERT_TRUE(digest == primary.Digest());
  for (const std::string& key : keys) {
    History on_primary, on_backup;
    ASSERT_TRUE(primary.ledger()->KeyHistory(key, &on_primary).ok()) << key;
    ASSERT_TRUE(backup.ledger()->KeyHistory(key, &on_backup).ok()) << key;
    ExpectSameHistory(on_primary, on_backup);
    ExpectVerified(on_backup, key, digest);
  }
}

// --- Blocks read back from journal.log ---------------------------------------

// Flips one byte in the middle of block `height`'s frame in the journal
// at `path`, under the live database that wrote it.
void FlipJournalByte(const std::string& path, uint64_t height) {
  std::ifstream in(path, std::ios::binary);
  const std::string contents((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  // Frames are lp(payload) ‖ crc32c, the header first; walk them without
  // checking CRCs, which an earlier flip may already have broken.
  Slice input(contents);
  Slice payload;
  for (uint64_t frame = 0; frame <= height + 1; frame++) {
    if (frame > 0) input.remove_prefix(sizeof(uint32_t));
    ASSERT_TRUE(GetLengthPrefixedSlice(&input, &payload).ok());
  }
  const auto at = static_cast<std::streamoff>(payload.data() - contents.data() +
                                              payload.size() / 2);
  std::fstream io(path, std::ios::binary | std::ios::in | std::ios::out);
  io.seekp(at);
  io.put(static_cast<char>(contents[at] ^ 0x20));
}

// Twelve writes k0..k11 in blocks of 4 (k4..k7 sit in block 1), synced:
// every block paged out to journal.log.
std::unique_ptr<SpitzDb> OpenPagedDb(const std::string& dir, Env* env) {
  std::filesystem::remove_all(dir);
  SpitzOptions options;
  options.block_size = 4;
  options.data_dir = dir;
  options.env = env;
  std::unique_ptr<SpitzDb> db;
  EXPECT_TRUE(SpitzDb::Open(options, &db).ok());
  for (int i = 0; i < 12; i++) {
    EXPECT_TRUE(
        db->Put("k" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  EXPECT_TRUE(db->SyncStorage().ok());
  EXPECT_EQ(db->Metrics().GaugeValue("core.db.journal.resident_bytes"), 0u);
  return db;
}

// A block paged out to journal.log is served only if it reads back
// intact. One flipped byte makes every reader of that block report
// Corruption naming the file: no history entry is returned and no
// replication record is built. The blocks around it keep serving.
TEST(KeyHistoryTest, FlippedJournalByteIsCorruptionForEveryReader) {
  const std::string dir = ::testing::TempDir() + "/spitz_key_history_flip";
  std::unique_ptr<SpitzDb> db = OpenPagedDb(dir, nullptr);
  ASSERT_NE(db, nullptr);
  const std::string journal = dir + "/journal.log";
  FlipJournalByte(journal, 1);

  History history;
  Status s = db->ledger()->KeyHistory("k4", &history);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find(journal), std::string::npos) << s.ToString();
  EXPECT_TRUE(history.empty());
  JournalEntryProof proof;
  LedgerEntry entry;
  s = db->ledger()->ProveHistoricalEntry(1, 0, &proof, &entry);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  std::string serialized;
  Block block;
  EXPECT_TRUE(db->ledger()->SealedBlock(1, &serialized, &block).IsCorruption());
  std::string record;
  EXPECT_TRUE(EncodeReplicationRecord(*db, 1, &record, &block).IsCorruption());
  EXPECT_TRUE(record.empty());

  const SpitzDigest digest = db->Digest();
  for (const std::string key : {"k0", "k11"}) {
    ASSERT_TRUE(db->ledger()->KeyHistory(key, &history).ok()) << key;
    ExpectVerified(history, key, digest);
  }
  // The last block is what a journal audit re-reads.
  ASSERT_TRUE(db->Audit("").ok());
  FlipJournalByte(journal, 2);
  EXPECT_FALSE(db->Audit("").ok());
  db.reset();
  std::filesystem::remove_all(dir);
}

// A failed read of journal.log is an IOError for every reader, and
// passes once the file reads again.
TEST(KeyHistoryTest, FailedJournalReadIsIOError) {
  const std::string dir = ::testing::TempDir() + "/spitz_key_history_eio";
  FaultInjectionEnv env(Env::Default());
  std::unique_ptr<SpitzDb> db = OpenPagedDb(dir, &env);
  ASSERT_NE(db, nullptr);
  env.SetReadFaults(true);
  History history;
  Status s = db->ledger()->KeyHistory("k4", &history);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_TRUE(history.empty());
  JournalEntryProof proof;
  LedgerEntry entry;
  EXPECT_TRUE(
      db->ledger()->ProveHistoricalEntry(1, 0, &proof, &entry).IsIOError());
  std::string serialized;
  Block block;
  EXPECT_TRUE(db->ledger()->SealedBlock(1, &serialized, &block).IsIOError());
  env.SetReadFaults(false);
  ASSERT_TRUE(db->ledger()->KeyHistory("k4", &history).ok());
  ExpectVerified(history, "k4", db->Digest());
  ASSERT_TRUE(db->ledger()->SealedBlock(1, &serialized, &block).ok());
  EXPECT_EQ(block.height(), 1u);
  db.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace spitz
