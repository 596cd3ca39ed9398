#include "ledger/ledger.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/metrics.h"
#include "common/random.h"

namespace spitz {
namespace {

class LedgerTest : public ::testing::Test {
 protected:
  LedgerTest() : ledger_(&mu_, &registry_) {}

  // Buffers one put per key, committed at `ts`, and seals them.
  void Seal(const std::vector<std::string>& keys, uint64_t ts,
            const Hash256& index_root) {
    WriteBatch batch;
    for (const std::string& key : keys) batch.Put(key, "v" + key);
    std::lock_guard<std::mutex> lock(mu_);
    ledger_.AddLocked(batch, ts);
    ledger_.SealLocked(index_root, /*timestamp=*/ts);
  }

  std::mutex mu_;
  MetricsRegistry registry_;
  Ledger ledger_;
};

TEST_F(LedgerTest, SealedBlocksRecordTheirRootsAndProveTheirEntries) {
  const Hash256 root0 = Hash256::Of("root0");
  const Hash256 root1 = Hash256::Of("root1");
  Seal({"a", "b"}, 1, root0);
  Seal({"a"}, 2, root1);
  EXPECT_EQ(ledger_.entry_count(), 3u);
  Hash256 root;
  ASSERT_TRUE(ledger_.IndexRootAt(0, &root).ok());
  EXPECT_EQ(root, root0);
  ASSERT_TRUE(ledger_.IndexRootAt(1, &root).ok());
  EXPECT_EQ(root, root1);
  EXPECT_TRUE(ledger_.IndexRootAt(2, &root).IsNotFound());

  JournalEntryProof proof;
  LedgerEntry entry;
  JournalDigest digest;
  ASSERT_TRUE(
      ledger_.ProveHistoricalEntry(0, 1, &proof, &entry, &digest).ok());
  EXPECT_EQ(entry.key, "b");
  EXPECT_EQ(entry.value_hash, Hash256::Of("vb"));
  EXPECT_TRUE(VerifyJournalEntry(entry, proof, digest).ok());

  std::vector<Ledger::HistoricalWrite> history;
  ASSERT_TRUE(ledger_.KeyHistory("a", &history).ok());
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[0].block_height, 0u);
  EXPECT_EQ(history[1].block_height, 1u);
  EXPECT_EQ(history[1].entry.commit_ts, 2u);
  EXPECT_TRUE(ledger_.KeyHistory("c", &history).IsNotFound());

  std::string bytes;
  Block block;
  ASSERT_TRUE(ledger_.SealedBlock(1, &bytes, &block).ok());
  EXPECT_EQ(block.index_root(), root1);
  EXPECT_TRUE(ledger_.SealedBlock(2, &bytes, &block).IsNotFound());

  MetricsSnapshot snap = registry_.Snapshot();
  EXPECT_EQ(snap.FindHistogram("core.db.seal_latency_ns")->count, 2u);
  EXPECT_EQ(snap.GaugeValue("core.db.history.writes"), 3u);
}

TEST_F(LedgerTest, ConsistencyProofSpansTheGrowthSinceADigest) {
  Seal({"a"}, 1, Hash256());
  JournalDigest old_digest;
  {
    std::lock_guard<std::mutex> lock(mu_);
    old_digest = ledger_.journal().Digest();
  }
  Seal({"b"}, 2, Hash256());
  Seal({"c"}, 3, Hash256());
  MerkleConsistencyProof proof;
  ASSERT_TRUE(ledger_.ProveConsistency(old_digest, &proof).ok());
  std::lock_guard<std::mutex> lock(mu_);
  EXPECT_TRUE(VerifyJournalConsistency(proof, old_digest,
                                       ledger_.journal().Digest()));
}

TEST_F(LedgerTest, LoadSealsFullBlocksAndLeavesTheTailPending) {
  std::vector<PosEntry> records(10);
  for (size_t i = 0; i < records.size(); i++) {
    records[i].key = "k" + std::to_string(i);
  }
  const Hash256 root = Hash256::Of("loaded");
  {
    Ledger::PreparedLoad load;
    Ledger::PrepareLoad(records, /*first_ts=*/1, 4, /*timestamp=*/7, &load);
    load.IndexHistory();
    std::lock_guard<std::mutex> lock(mu_);
    ledger_.LoadLocked(std::move(load), root);
    EXPECT_EQ(ledger_.journal().block_count(), 2u);
    EXPECT_EQ(ledger_.pending_count(), 2u);
  }
  EXPECT_EQ(ledger_.entry_count(), 10u);
  Hash256 at;
  ASSERT_TRUE(ledger_.IndexRootAt(1, &at).ok());
  EXPECT_EQ(at, root);
  std::vector<Ledger::HistoricalWrite> history;
  ASSERT_TRUE(ledger_.KeyHistory("k5", &history).ok());
  EXPECT_EQ(history[0].block_height, 1u);
  EXPECT_TRUE(ledger_.KeyHistory("k9", &history).IsNotFound()) << "pending";
}

// A bulk load's three steps write what sealing its records one block at
// a time writes: the same blocks, journal.log bytes, digest, pending
// tail and key history. The seeded records hold duplicate keys, keys of
// 128 B and more (a two-byte length prefix) and a partial tail block.
TEST_F(LedgerTest, LoadWritesTheSameJournalAsSealingBlockByBlock) {
  constexpr size_t kBlockSize = 8;
  constexpr uint64_t kFirstTs = 1000;
  constexpr uint64_t kTimestamp = 1760000000000000;
  Random rnd(43);
  std::vector<std::string> keys;
  for (int i = 0; i < 40; i++) {
    keys.push_back("key" + rnd.Bytes(rnd.OneIn(4) ? 128 + rnd.Uniform(200)
                                                  : rnd.Uniform(12)));
  }
  std::vector<PosEntry> records(13 * kBlockSize + 5);
  for (PosEntry& record : records) {
    record.key = keys[rnd.Uniform(keys.size())];
    record.value = rnd.Bytes(rnd.Uniform(300));
  }
  const Hash256 root = Hash256::Of("loaded root");
  const std::string dir = ::testing::TempDir() + "/spitz_ledger_load";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto no_adopt = [](const Block&) {};
  ASSERT_TRUE(ledger_.Open(Env::Default(), dir + "/loaded.log", no_adopt).ok());
  std::mutex sealed_mu;
  Ledger sealed(&sealed_mu, nullptr);
  ASSERT_TRUE(sealed.Open(Env::Default(), dir + "/sealed.log", no_adopt).ok());

  Ledger::PreparedLoad load;
  Ledger::PrepareLoad(records, kFirstTs, kBlockSize, kTimestamp, &load);
  load.IndexHistory();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ledger_.LoadLocked(std::move(load), root);
    ASSERT_TRUE(ledger_.mutable_journal()->Flush().ok());
  }
  {
    std::lock_guard<std::mutex> lock(sealed_mu);
    for (size_t i = 0; i < records.size(); i++) {
      WriteBatch batch;
      batch.Put(records[i].key, records[i].value);
      sealed.AddLocked(batch, kFirstTs + i);
      if ((i + 1) % kBlockSize == 0) sealed.SealLocked(root, kTimestamp);
    }
    ASSERT_TRUE(sealed.mutable_journal()->Flush().ok());
  }

  const uint64_t blocks = records.size() / kBlockSize;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::lock_guard<std::mutex> sealed_lock(sealed_mu);
    ASSERT_EQ(ledger_.journal().block_count(), blocks);
    ASSERT_EQ(sealed.journal().block_count(), blocks);
    EXPECT_EQ(ledger_.pending_count(), records.size() % kBlockSize);
    EXPECT_EQ(sealed.pending_count(), records.size() % kBlockSize);
    const JournalDigest a = ledger_.journal().Digest();
    const JournalDigest b = sealed.journal().Digest();
    EXPECT_EQ(a.block_count, b.block_count);
    EXPECT_EQ(a.entry_count, b.entry_count);
    EXPECT_EQ(a.tip_hash, b.tip_hash);
    EXPECT_EQ(a.merkle_root, b.merkle_root);
  }
  for (uint64_t h = 0; h < blocks; h++) {
    std::string loaded_bytes, sealed_bytes;
    Block loaded_block, sealed_block;
    ASSERT_TRUE(ledger_.SealedBlock(h, &loaded_bytes, &loaded_block).ok());
    ASSERT_TRUE(sealed.SealedBlock(h, &sealed_bytes, &sealed_block).ok());
    EXPECT_EQ(loaded_block.block_hash(), sealed_block.block_hash()) << h;
    EXPECT_EQ(loaded_block.entries_root(), sealed_block.entries_root()) << h;
    EXPECT_EQ(loaded_bytes, sealed_bytes) << h;
  }
  auto file_bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const std::string loaded_file = file_bytes(dir + "/loaded.log");
  EXPECT_FALSE(loaded_file.empty());
  EXPECT_EQ(loaded_file, file_bytes(dir + "/sealed.log"));

  for (const std::string& key : keys) {
    std::vector<Ledger::HistoricalWrite> a, b;
    const Status sa = ledger_.KeyHistory(key, &a);
    const Status sb = sealed.KeyHistory(key, &b);
    ASSERT_EQ(sa.ok(), sb.ok()) << sa.ToString() << " / " << sb.ToString();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); i++) {
      EXPECT_EQ(a[i].block_height, b[i].block_height);
      EXPECT_EQ(a[i].entry, b[i].entry);
      EXPECT_EQ(a[i].proof.entry_index, b[i].proof.entry_index);
    }
  }
  std::filesystem::remove_all(dir);
}

TEST_F(LedgerTest, RestoreTakesAnotherLedgersBlocksInOrderOnly) {
  Seal({"a"}, 1, Hash256());
  Seal({"b"}, 2, Hash256());
  std::mutex backup_mu;
  Ledger backup(&backup_mu, nullptr);
  std::string bytes;
  Block block;
  ASSERT_TRUE(ledger_.SealedBlock(1, &bytes, &block).ok());
  {
    std::lock_guard<std::mutex> lock(backup_mu);
    EXPECT_FALSE(backup.RestoreLocked(block, bytes).ok()) << "out of order";
    ASSERT_TRUE(ledger_.SealedBlock(0, &bytes, &block).ok());
    ASSERT_TRUE(backup.RestoreLocked(block, bytes).ok());
    ASSERT_TRUE(ledger_.SealedBlock(1, &bytes, &block).ok());
    ASSERT_TRUE(backup.RestoreLocked(block, bytes).ok());
    EXPECT_EQ(backup.journal().block_count(), 2u);
  }
  std::vector<Ledger::HistoricalWrite> history;
  ASSERT_TRUE(backup.KeyHistory("b", &history).ok());
  EXPECT_EQ(history[0].block_height, 1u);
}

}  // namespace
}  // namespace spitz
