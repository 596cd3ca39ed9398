#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/spitz_db.h"

namespace spitz {
namespace {

TEST(SpitzDbTest, PutGetRoundTrip) {
  SpitzDb db;
  ASSERT_TRUE(db.Put("k1", "v1").ok());
  std::string value;
  ASSERT_TRUE(db.Get("k1", &value).ok());
  EXPECT_EQ(value, "v1");
  EXPECT_TRUE(db.Get("missing", &value).IsNotFound());
}

TEST(SpitzDbTest, DeleteRemovesKey) {
  SpitzDb db;
  ASSERT_TRUE(db.Put("k", "v").ok());
  ASSERT_TRUE(db.Delete("k").ok());
  std::string value;
  EXPECT_TRUE(db.Get("k", &value).IsNotFound());
}

TEST(SpitzDbTest, AtomicWriteBatch) {
  SpitzDb db;
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Put("b", "2");
  batch.Delete("c");  // absent: no-op
  ASSERT_TRUE(db.Write(batch).ok());
  std::string value;
  ASSERT_TRUE(db.Get("a", &value).ok());
  ASSERT_TRUE(db.Get("b", &value).ok());
  EXPECT_EQ(db.ledger()->entry_count(), 3u);
}

TEST(SpitzDbTest, BlocksSealAtConfiguredSize) {
  SpitzOptions options;
  options.block_size = 10;
  SpitzDb db(options);
  for (int i = 0; i < 25; i++) {
    ASSERT_TRUE(db.Put("k" + std::to_string(i), "v").ok());
  }
  SpitzDigest d = db.Digest();
  EXPECT_EQ(d.journal.block_count, 2u);   // 20 entries sealed
  EXPECT_EQ(d.journal.entry_count, 20u);
  db.FlushBlock();
  d = db.Digest();
  EXPECT_EQ(d.journal.block_count, 3u);
  EXPECT_EQ(d.journal.entry_count, 25u);
}

TEST(SpitzDbTest, VerifiedReadRoundTrip) {
  SpitzDb db;
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(db.Put("key" + std::to_string(i), "val" + std::to_string(i))
                    .ok());
  }
  SpitzDigest digest = db.Digest();
  std::string value;
  ReadProof proof;
  ASSERT_TRUE(db.Read(kCurrentVersion, "key500", &value, &proof).ok());
  EXPECT_EQ(value, "val500");
  EXPECT_TRUE(VerifyRead(digest, "key500", value, proof).ok());
  // Tampered value rejected.
  EXPECT_TRUE(VerifyRead(digest, "key500", std::string("evil"), proof)
                  .IsVerificationFailed());
}

TEST(SpitzDbTest, NonMembershipVerifies) {
  SpitzDb db;
  ASSERT_TRUE(db.Put("exists", "yes").ok());
  SpitzDigest digest = db.Digest();
  std::string value;
  ReadProof proof;
  EXPECT_TRUE(db.Read(kCurrentVersion, "ghost", &value, &proof).IsNotFound());
  EXPECT_TRUE(VerifyRead(digest, "ghost", std::nullopt, proof).ok());
}

TEST(SpitzDbTest, VerifiedScanRoundTrip) {
  SpitzDb db;
  for (int i = 0; i < 2000; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%06d", i);
    ASSERT_TRUE(db.Put(key, "v" + std::to_string(i)).ok());
  }
  SpitzDigest digest = db.Digest();
  std::vector<PosEntry> rows;
  ScanProof proof;
  ASSERT_TRUE(db.ReadRange(kCurrentVersion, "k000100", "k000200", 0, &rows,
                           &proof)
                  .ok());
  ASSERT_EQ(rows.size(), 100u);
  EXPECT_TRUE(
      VerifyScan(digest, "k000100", "k000200", 0, rows, proof).ok());
  // Dropping a row invalidates the proof.
  rows.pop_back();
  EXPECT_FALSE(
      VerifyScan(digest, "k000100", "k000200", 0, rows, proof).ok());
}

TEST(SpitzDbTest, ProofAgainstStaleDigestFails) {
  SpitzDb db;
  ASSERT_TRUE(db.Put("k", "v1").ok());
  SpitzDigest stale = db.Digest();
  ASSERT_TRUE(db.Put("k", "v2").ok());
  std::string value;
  ReadProof proof;
  ASSERT_TRUE(db.Read(kCurrentVersion, "k", &value, &proof).ok());
  EXPECT_TRUE(
      VerifyRead(stale, "k", value, proof).IsVerificationFailed());
}

TEST(SpitzDbTest, ConsistencyAcrossGrowth) {
  SpitzOptions options;
  options.block_size = 4;
  SpitzDb db(options);
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(db.Put("k" + std::to_string(i), "v").ok());
  }
  SpitzDigest old_digest = db.Digest();
  for (int i = 20; i < 100; i++) {
    ASSERT_TRUE(db.Put("k" + std::to_string(i), "v").ok());
  }
  SpitzDigest new_digest = db.Digest();
  MerkleConsistencyProof proof;
  ASSERT_TRUE(db.ledger()->ProveConsistency(old_digest.journal, &proof).ok());
  EXPECT_TRUE(VerifyJournalConsistency(proof, old_digest.journal,
                                       new_digest.journal));
}

TEST(SpitzDbTest, HistoricalEntriesProvable) {
  SpitzOptions options;
  options.block_size = 5;
  SpitzDb db(options);
  for (int i = 0; i < 23; i++) {
    ASSERT_TRUE(
        db.Put("key" + std::to_string(i), "val" + std::to_string(i)).ok());
  }
  db.FlushBlock();
  SpitzDigest digest = db.Digest();
  // Every sealed entry must be provable against the digest.
  for (uint64_t h = 0; h < digest.journal.block_count; h++) {
    JournalEntryProof proof;
    LedgerEntry entry;
    ASSERT_TRUE(db.ledger()->ProveHistoricalEntry(h, 0, &proof, &entry).ok());
    EXPECT_TRUE(VerifyJournalEntry(entry, proof, digest.journal).ok());
  }
}

TEST(SpitzDbTest, TimeTravelOnOldRoots) {
  SpitzOptions options;
  options.block_size = 10;
  SpitzDb db(options);
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(db.Put("k", "version-" + std::to_string(i)).ok());
  }
  // Block 0 sealed with the index root after the 10th write.
  ASSERT_TRUE(db.Put("k", "latest").ok());
  Hash256 old_root;
  ASSERT_TRUE(db.ledger()->IndexRootAt(0, &old_root).ok());
  std::string value;
  ASSERT_TRUE(db.Read(old_root, "k", &value, nullptr).ok());
  EXPECT_EQ(value, "version-9");
  // A scan of the old root sees that version too.
  std::vector<PosEntry> rows;
  ASSERT_TRUE(db.ReadRange(old_root, "", "", 0, &rows, nullptr).ok());
  EXPECT_EQ(rows, (std::vector<PosEntry>{{"k", "version-9"}}));
  ASSERT_TRUE(db.Get("k", &value).ok());
  EXPECT_EQ(value, "latest");
}

TEST(SpitzDbTest, DeferredAuditsPass) {
  SpitzOptions options;
  options.audit_batch_size = 8;
  SpitzDb db(options);
  for (int i = 0; i < 50; i++) {
    std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(db.Put(key, "v" + std::to_string(i)).ok());
    ASSERT_TRUE(db.auditor()->AuditKey(key, "v" + std::to_string(i)).ok());
  }
  EXPECT_TRUE(db.auditor()->Drain().ok());
}

TEST(SpitzDbTest, DeferredAuditDetectsWrongExpectation) {
  SpitzOptions options;
  options.audit_batch_size = 4;
  SpitzDb db(options);
  ASSERT_TRUE(db.Put("k", "actual").ok());
  ASSERT_TRUE(db.auditor()->AuditKey("k", "expected-but-wrong").ok());
  EXPECT_TRUE(db.auditor()->Drain().IsVerificationFailed());
}

TEST(SpitzDbTest, OnlineAuditReturnsFailureImmediately) {
  SpitzOptions options;
  options.audit_batch_size = 0;  // online
  SpitzDb db(options);
  ASSERT_TRUE(db.Put("k", "actual").ok());
  EXPECT_TRUE(db.auditor()->AuditKey("k", "wrong").IsVerificationFailed());
  EXPECT_TRUE(db.auditor()->AuditKey("k", "actual").ok());
}

TEST(SpitzDbTest, KeyCountTracksLiveKeys) {
  SpitzDb db;
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db.Put("k" + std::to_string(i), "v").ok());
  }
  EXPECT_EQ(db.key_count(), 100u);
  for (int i = 0; i < 40; i++) {
    ASSERT_TRUE(db.Delete("k" + std::to_string(i)).ok());
  }
  EXPECT_EQ(db.key_count(), 60u);
}

TEST(SpitzDbTest, ConcurrentReadersDuringWrites) {
  SpitzDb db;
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(db.Put("k" + std::to_string(i), "v0").ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> verified{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; t++) {
    readers.emplace_back([&, t] {
      Random rng(t);
      while (!stop) {
        std::string key = "k" + std::to_string(rng.Uniform(500));
        std::string value;
        ReadProof proof;
        Status s = db.Read(kCurrentVersion, key, &value, &proof);
        if (s.ok()) {
          // Any proof must verify against its own root version.
          ASSERT_TRUE(
              proof.index_proof.Verify(proof.index_root, key, value).ok());
          verified++;
        }
      }
    });
  }
  for (int round = 0; round < 20; round++) {
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(
          db.Put("k" + std::to_string(i), "v" + std::to_string(round)).ok());
    }
  }
  stop = true;
  for (auto& t : readers) t.join();
  EXPECT_GT(verified.load(), 0);
}

TEST(SpitzDbTest, BulkLoadEquivalentToIncrementalPuts) {
  SpitzOptions options;
  options.block_size = 16;
  std::vector<PosEntry> entries;
  for (int i = 0; i < 500; i++) {
    entries.push_back({"key" + std::to_string(i), "val" + std::to_string(i)});
  }
  SpitzDb bulk(options);
  ASSERT_TRUE(bulk.BulkLoad(entries).ok());
  SpitzDb incremental(options);
  for (const PosEntry& e : entries) {
    ASSERT_TRUE(incremental.Put(e.key, e.value).ok());
  }
  // Same index version (structural invariance) and same entry count.
  EXPECT_EQ(bulk.Digest().index_root, incremental.Digest().index_root);
  EXPECT_EQ(bulk.ledger()->entry_count(), incremental.ledger()->entry_count());
  // Proofs from the bulk-loaded database verify normally.
  std::string value;
  ReadProof proof;
  ASSERT_TRUE(bulk.Read(kCurrentVersion, "key250", &value, &proof).ok());
  EXPECT_TRUE(VerifyRead(bulk.Digest(), "key250", value, proof).ok());
}

TEST(SpitzDbTest, BulkLoadRejectsNonEmptyDb) {
  SpitzDb db;
  ASSERT_TRUE(db.Put("k", "v").ok());
  EXPECT_TRUE(db.BulkLoad({{"a", "1"}}).IsInvalidArgument());
}

TEST(SpitzDbTest, OptionsRejectDisabledCacheAndRetention) {
  {
    // A zero budget would re-read and re-hash every node on every
    // traversal, so it is rejected rather than taken as "no cache".
    SpitzOptions options;
    options.buffer_cache_bytes = 0;
    SpitzDb db(options);
    EXPECT_TRUE(db.Put("k", "v").IsInvalidArgument());
  }
  {
    // The live version itself is always retained; zero is meaningless.
    SpitzOptions options;
    options.retain_versions = 0;
    SpitzDb db(options);
    EXPECT_TRUE(db.Put("k", "v").IsInvalidArgument());
    // The 2PC participant refuses too: a prepare would lock keys no
    // write can ever touch.
    WriteBatch batch;
    batch.Put("k", "v");
    EXPECT_TRUE(db.participant()->PrepareTxn(1, batch).IsInvalidArgument());
  }
}

// Open and the in-memory constructor build the database the same way:
// the audit options reach the deferred verifier on both paths.
TEST(SpitzDbTest, DurableOpenHonorsAuditOptions) {
  const std::string dir =
      ::testing::TempDir() + "/spitz_db_durable_audit_options";
  struct Case {
    size_t batch_size;
    size_t workers;
    uint64_t expected_workers;
  };
  // Online audits run inline on no worker; a deferred verifier runs the
  // configured worker count.
  for (const Case& c : {Case{0, 0, 0}, Case{64, 2, 2}}) {
    SCOPED_TRACE("audit_batch_size " + std::to_string(c.batch_size));
    SpitzOptions options;
    options.audit_batch_size = c.batch_size;
    options.audit_workers = c.workers;
    SpitzDb in_memory(options);
    EXPECT_EQ(in_memory.Metrics().GaugeValue("txn.verifier.workers"),
              c.expected_workers);
    std::filesystem::remove_all(dir);
    options.data_dir = dir;
    std::unique_ptr<SpitzDb> durable;
    ASSERT_TRUE(SpitzDb::Open(options, &durable).ok());
    EXPECT_EQ(durable->Metrics().GaugeValue("txn.verifier.workers"),
              c.expected_workers);
  }
  std::filesystem::remove_all(dir);
}

TEST(SpitzDbTest, AuditLastBlockPasses) {
  SpitzOptions options;
  options.block_size = 8;
  options.audit_batch_size = 4;
  SpitzDb db(options);
  for (int i = 0; i < 64; i++) {
    ASSERT_TRUE(db.Put("k" + std::to_string(i), "v").ok());
    if ((i + 1) % 8 == 0) {
      ASSERT_TRUE(db.auditor()->AuditLastBlock().ok());
    }
  }
  EXPECT_TRUE(db.auditor()->Drain().ok());
}

TEST(SpitzDbTest, KeyHistoryProvesEveryWrite) {
  SpitzOptions options;
  options.block_size = 4;
  SpitzDb db(options);
  for (int round = 0; round < 3; round++) {
    ASSERT_TRUE(db.Put("target", "version-" + std::to_string(round)).ok());
    for (int pad = 0; pad < 3; pad++) {
      ASSERT_TRUE(db.Put("pad" + std::to_string(round * 3 + pad), "x").ok());
    }
  }
  db.FlushBlock();
  SpitzDigest digest = db.Digest();
  std::vector<SpitzDb::HistoricalWrite> history;
  ASSERT_TRUE(db.ledger()->KeyHistory("target", &history).ok());
  ASSERT_EQ(history.size(), 3u);
  for (int i = 0; i < 3; i++) {
    EXPECT_EQ(history[i].entry.value_hash,
              Hash256::Of("version-" + std::to_string(i)));
    EXPECT_TRUE(
        VerifyJournalEntry(history[i].entry, history[i].proof,
                           digest.journal)
            .ok());
  }
  // Commit order preserved.
  EXPECT_LT(history[0].entry.commit_ts, history[2].entry.commit_ts);
  EXPECT_TRUE(db.ledger()->KeyHistory("never-written", &history).IsNotFound());
}

TEST(SpitzDbTest, KeyHistoryIncludesDeletes) {
  SpitzOptions options;
  options.block_size = 2;
  SpitzDb db(options);
  ASSERT_TRUE(db.Put("k", "v").ok());
  ASSERT_TRUE(db.Delete("k").ok());
  db.FlushBlock();
  std::vector<SpitzDb::HistoricalWrite> history;
  ASSERT_TRUE(db.ledger()->KeyHistory("k", &history).ok());
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[0].entry.op, LedgerEntry::Op::kPut);
  EXPECT_EQ(history[1].entry.op, LedgerEntry::Op::kDelete);
}

// End-to-end tamper-evidence scenario: a forked server state cannot
// satisfy a client that saved the honest digest.
TEST(SpitzDbTest, ForkedHistoryDetectedByConsistencyCheck) {
  SpitzOptions options;
  options.block_size = 4;

  SpitzDb honest(options);
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(honest.Put("k" + std::to_string(i), "honest").ok());
  }
  SpitzDigest saved = honest.Digest();  // client's trusted state

  // A malicious server rebuilds history with one record altered.
  SpitzDb forked(options);
  for (int i = 0; i < 20; i++) {
    std::string value = (i == 7) ? "tampered" : "honest";
    ASSERT_TRUE(forked.Put("k" + std::to_string(i), value).ok());
  }
  for (int i = 20; i < 40; i++) {
    ASSERT_TRUE(forked.Put("k" + std::to_string(i), "honest").ok());
  }
  SpitzDigest forked_digest = forked.Digest();
  MerkleConsistencyProof proof;
  ASSERT_TRUE(forked.ledger()->ProveConsistency(saved.journal, &proof).ok());
  EXPECT_FALSE(VerifyJournalConsistency(proof, saved.journal,
                                        forked_digest.journal))
      << "a fork that rewrites history must not verify as consistent";
}

}  // namespace
}  // namespace spitz
