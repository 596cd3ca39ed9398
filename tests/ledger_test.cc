#include "ledger/ledger.h"

#include <gtest/gtest.h>

#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"

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
    ledger_.SealLocked(index_root);
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
  EXPECT_TRUE(Journal::VerifyEntry(entry, proof, digest).ok());

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
  EXPECT_TRUE(Journal::VerifyConsistency(proof, old_digest,
                                         ledger_.journal().Digest()));
}

TEST_F(LedgerTest, LoadSealsFullBlocksAndLeavesTheTailPending) {
  std::vector<LedgerEntry> entries(10);
  for (size_t i = 0; i < entries.size(); i++) {
    entries[i].key = "k" + std::to_string(i);
    entries[i].commit_ts = i + 1;
  }
  const Hash256 root = Hash256::Of("loaded");
  {
    std::lock_guard<std::mutex> lock(mu_);
    ledger_.LoadLocked(std::move(entries), 4, root);
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
