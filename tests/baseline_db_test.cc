#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "baseline/baseline_db.h"
#include "common/random.h"
#include "ledger/ledger.h"
#include "txn/write_batch.h"

namespace spitz {
namespace {

TEST(BaselineDbTest, OpenValidatesOptions) {
  BaselineDb::Options bad;
  bad.block_size = 0;
  std::unique_ptr<BaselineDb> db;
  EXPECT_TRUE(BaselineDb::Open(bad, &db).IsInvalidArgument());
  EXPECT_EQ(db, nullptr);

  bad.block_size = 16;
  bad.view_options.max_node_elements = 1;  // splits could not make progress
  EXPECT_TRUE(BaselineDb::Open(bad, &db).IsInvalidArgument());
  EXPECT_EQ(db, nullptr);

  EXPECT_TRUE(BaselineDb::Open(BaselineDb::Options(), &db).ok());
  ASSERT_NE(db, nullptr);
  EXPECT_TRUE(db->Put("k", "v").ok());

  // The plain constructor tolerates bad options but refuses writes.
  BaselineDb rejected(bad);
  EXPECT_TRUE(rejected.Put("k", "v").IsInvalidArgument());
}

TEST(BaselineDbTest, MetricsCoverOperations) {
  BaselineDb::Options options;
  options.block_size = 2;
  BaselineDb db(options);
  ASSERT_TRUE(db.Put("a", "1").ok());
  ASSERT_TRUE(db.Put("b", "2").ok());  // seals a block
  std::string value;
  ASSERT_TRUE(db.Get("a", &value).ok());
  BaselineDb::VerifiedValue vv;
  ASSERT_TRUE(db.GetVerified("a", &vv).ok());

  MetricsSnapshot snap = db.Metrics();
  EXPECT_EQ(snap.FindHistogram("baseline.db.write_latency_ns")->count, 2u);
  EXPECT_EQ(snap.FindHistogram("baseline.db.read_latency_ns")->count, 1u);
  EXPECT_EQ(snap.FindHistogram("baseline.db.verified_read_latency_ns")->count,
            1u);
  EXPECT_GT(snap.CounterValue("chunk.store.puts"), 0u);
}

TEST(BaselineDbTest, PutGetRoundTrip) {
  BaselineDb db;
  ASSERT_TRUE(db.Put("k", "v").ok());
  std::string value;
  ASSERT_TRUE(db.Get("k", &value).ok());
  EXPECT_EQ(value, "v");
  EXPECT_TRUE(db.Get("missing", &value).IsNotFound());
}

TEST(BaselineDbTest, DeleteRemovesFromView) {
  BaselineDb db;
  ASSERT_TRUE(db.Put("k", "v").ok());
  ASSERT_TRUE(db.Delete("k").ok());
  std::string value;
  EXPECT_TRUE(db.Get("k", &value).IsNotFound());
  EXPECT_TRUE(db.Delete("k").IsNotFound());
}

TEST(BaselineDbTest, VerifiedReadRequiresSealedBlock) {
  BaselineDb::Options options;
  options.block_size = 100;
  BaselineDb db(options);
  ASSERT_TRUE(db.Put("k", "v").ok());
  BaselineDb::VerifiedValue vv;
  EXPECT_TRUE(db.GetVerified("k", &vv).IsBusy());  // still buffered
  db.FlushBlock();
  ASSERT_TRUE(db.GetVerified("k", &vv).ok());
  EXPECT_EQ(vv.value, "v");
}

TEST(BaselineDbTest, VerifiedReadRoundTrip) {
  BaselineDb::Options options;
  options.block_size = 32;
  BaselineDb db(options);
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(
        db.Put("key" + std::to_string(i), "val" + std::to_string(i)).ok());
  }
  db.FlushBlock();
  JournalDigest digest = db.Digest();
  BaselineDb::VerifiedValue vv;
  ASSERT_TRUE(db.GetVerified("key250", &vv).ok());
  EXPECT_EQ(vv.value, "val250");
  EXPECT_TRUE(BaselineDb::VerifyValue(digest, "key250", vv).ok());
}

TEST(BaselineDbTest, VerifyRejectsTamperedValue) {
  BaselineDb db;
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db.Put("key" + std::to_string(i), "honest").ok());
  }
  db.FlushBlock();
  JournalDigest digest = db.Digest();
  BaselineDb::VerifiedValue vv;
  ASSERT_TRUE(db.GetVerified("key50", &vv).ok());
  vv.value = "tampered";
  EXPECT_TRUE(
      BaselineDb::VerifyValue(digest, "key50", vv).IsVerificationFailed());
}

TEST(BaselineDbTest, VerifyRejectsWrongKey) {
  BaselineDb db;
  ASSERT_TRUE(db.Put("a", "1").ok());
  ASSERT_TRUE(db.Put("b", "2").ok());
  db.FlushBlock();
  JournalDigest digest = db.Digest();
  BaselineDb::VerifiedValue vv;
  ASSERT_TRUE(db.GetVerified("a", &vv).ok());
  EXPECT_TRUE(BaselineDb::VerifyValue(digest, "b", vv).IsVerificationFailed());
}

TEST(BaselineDbTest, LatestWriteWinsInProof) {
  BaselineDb::Options options;
  options.block_size = 2;
  BaselineDb db(options);
  ASSERT_TRUE(db.Put("k", "v1").ok());
  ASSERT_TRUE(db.Put("x", "pad").ok());  // seals block 0
  ASSERT_TRUE(db.Put("k", "v2").ok());
  ASSERT_TRUE(db.Put("y", "pad").ok());  // seals block 1
  JournalDigest digest = db.Digest();
  BaselineDb::VerifiedValue vv;
  ASSERT_TRUE(db.GetVerified("k", &vv).ok());
  EXPECT_EQ(vv.value, "v2");
  EXPECT_EQ(vv.proof.block_height, 1u);
  EXPECT_TRUE(BaselineDb::VerifyValue(digest, "k", vv).ok());
}

TEST(BaselineDbTest, ScanOrdered) {
  BaselineDb db;
  for (int i = 0; i < 300; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%06d", i);
    ASSERT_TRUE(db.Put(key, "v" + std::to_string(i)).ok());
  }
  std::vector<PosEntry> rows;
  ASSERT_TRUE(db.Scan("k000010", "k000020", 0, &rows).ok());
  ASSERT_EQ(rows.size(), 10u);
  EXPECT_EQ(rows.front().key, "k000010");
}

TEST(BaselineDbTest, ScanVerifiedProvesEveryRow) {
  BaselineDb db;
  for (int i = 0; i < 300; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%06d", i);
    ASSERT_TRUE(db.Put(key, "v" + std::to_string(i)).ok());
  }
  db.FlushBlock();
  JournalDigest digest = db.Digest();
  std::vector<BaselineDb::VerifiedValue> rows;
  ASSERT_TRUE(db.ScanVerified("k000100", "k000120", 0, &rows).ok());
  ASSERT_EQ(rows.size(), 20u);
  for (const auto& vv : rows) {
    EXPECT_TRUE(BaselineDb::VerifyValue(digest, vv.entry.key, vv).ok());
  }
}

TEST(BaselineDbTest, HistoryListsAllWrites) {
  BaselineDb::Options options;
  options.block_size = 2;
  BaselineDb db(options);
  ASSERT_TRUE(db.Put("k", "v1").ok());
  ASSERT_TRUE(db.Put("k", "v2").ok());
  ASSERT_TRUE(db.Put("k", "v3").ok());
  db.FlushBlock();
  std::vector<std::pair<uint64_t, uint64_t>> positions;
  ASSERT_TRUE(db.History("k", &positions).ok());
  EXPECT_EQ(positions.size(), 3u);
  EXPECT_TRUE(db.History("ghost", &positions).IsNotFound());
}

TEST(BaselineDbTest, ConsistencyAcrossGrowth) {
  BaselineDb::Options options;
  options.block_size = 4;
  BaselineDb db(options);
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(db.Put("k" + std::to_string(i), "v").ok());
  }
  JournalDigest old_digest = db.Digest();
  for (int i = 20; i < 60; i++) {
    ASSERT_TRUE(db.Put("k" + std::to_string(i), "v").ok());
  }
  JournalDigest new_digest = db.Digest();
  MerkleConsistencyProof proof;
  ASSERT_TRUE(db.ProveConsistency(old_digest.block_count, &proof).ok());
  EXPECT_TRUE(VerifyJournalConsistency(proof, old_digest, new_digest));
}

TEST(BaselineDbTest, RandomizedVerifiedSweep) {
  Random rng(21);
  BaselineDb::Options options;
  options.block_size = 16;
  BaselineDb db(options);
  std::map<std::string, std::string> oracle;
  for (int i = 0; i < 2000; i++) {
    std::string key = "k" + std::to_string(rng.Uniform(300));
    std::string value = rng.Bytes(12);
    ASSERT_TRUE(db.Put(key, value).ok());
    oracle[key] = value;
  }
  db.FlushBlock();
  JournalDigest digest = db.Digest();
  for (const auto& [key, value] : oracle) {
    BaselineDb::VerifiedValue vv;
    ASSERT_TRUE(db.GetVerified(key, &vv).ok()) << key;
    EXPECT_EQ(vv.value, value);
    EXPECT_TRUE(BaselineDb::VerifyValue(digest, key, vv).ok()) << key;
  }
}

TEST(BaselineDbTest, BulkLoadMatchesIncremental) {
  BaselineDb::Options options;
  options.block_size = 16;
  std::vector<PosEntry> entries;
  for (int i = 0; i < 200; i++) {
    entries.push_back({"key" + std::to_string(i), "val" + std::to_string(i)});
  }
  BaselineDb db(options);
  ASSERT_TRUE(db.BulkLoad(entries).ok());
  std::string value;
  ASSERT_TRUE(db.Get("key123", &value).ok());
  EXPECT_EQ(value, "val123");
  // Sealed entries are provable.
  JournalDigest digest = db.Digest();
  BaselineDb::VerifiedValue vv;
  ASSERT_TRUE(db.GetVerified("key0", &vv).ok());
  EXPECT_TRUE(BaselineDb::VerifyValue(digest, "key0", vv).ok());
  // History view was materialized too.
  std::vector<std::pair<uint64_t, uint64_t>> positions;
  ASSERT_TRUE(db.History("key0", &positions).ok());
  EXPECT_EQ(positions.size(), 1u);
  EXPECT_TRUE(db.BulkLoad(entries).IsInvalidArgument());
}

TEST(BaselineDbTest, OverwriteBeforeSealIsBusyNotAFailingProof) {
  BaselineDb::Options options;
  options.block_size = 100;
  BaselineDb db(options);
  ASSERT_TRUE(db.Put("k", "v1").ok());
  db.FlushBlock();
  ASSERT_TRUE(db.Put("k", "v2").ok());  // in the value view, not the ledger
  BaselineDb::VerifiedValue vv;
  EXPECT_TRUE(db.GetVerified("k", &vv).IsBusy());
  db.FlushBlock();
  ASSERT_TRUE(db.GetVerified("k", &vv).ok());
  EXPECT_EQ(vv.value, "v2");
  EXPECT_TRUE(BaselineDb::VerifyValue(db.Digest(), "k", vv).ok());

  // A sealed delete proves no value, not even the empty one.
  ASSERT_TRUE(db.Delete("k").ok());
  db.FlushBlock();
  ASSERT_TRUE(db.Put("k", "").ok());
  EXPECT_TRUE(db.GetVerified("k", &vv).IsBusy());
}

TEST(BaselineDbTest, VerifyRejectsASealedDelete) {
  // The ledger seals a delete with the empty value's hash, so an honest
  // proof of a delete would otherwise "verify" the empty value.
  std::mutex mu;
  Ledger ledger(&mu, nullptr);
  WriteBatch batch;
  batch.Delete("k");
  {
    std::lock_guard<std::mutex> lock(mu);
    ledger.AddLocked(batch, /*commit_ts=*/1);
    ledger.SealLocked(Hash256(), /*timestamp=*/1);
  }
  BaselineDb::VerifiedValue vv;
  JournalDigest digest;
  ASSERT_TRUE(
      ledger.ProveHistoricalEntry(0, 0, &vv.proof, &vv.entry, &digest).ok());
  ASSERT_TRUE(VerifyJournalEntry(vv.entry, vv.proof, digest).ok());
  EXPECT_EQ(vv.entry.value_hash, Hash256::Of(""));
  EXPECT_TRUE(
      BaselineDb::VerifyValue(digest, "k", vv).IsVerificationFailed());
}

TEST(BaselineDbTest, ScanOverwriteBeforeSealIsBusyNotAFailingProof) {
  BaselineDb::Options options;
  options.block_size = 100;
  BaselineDb db(options);
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(db.Put("k" + std::to_string(i), "v1").ok());
  }
  db.FlushBlock();
  ASSERT_TRUE(db.Put("k5", "v2").ok());
  std::vector<BaselineDb::VerifiedValue> rows;
  EXPECT_TRUE(db.ScanVerified("k0", "k9", 0, &rows).IsBusy());
  db.FlushBlock();
  ASSERT_TRUE(db.ScanVerified("k0", "k9", 0, &rows).ok());
  ASSERT_EQ(rows.size(), 9u);
  const JournalDigest digest = db.Digest();
  for (const auto& vv : rows) {
    EXPECT_TRUE(BaselineDb::VerifyValue(digest, vv.entry.key, vv).ok());
  }
  EXPECT_EQ(rows[5].value, "v2");
}

TEST(BaselineDbTest, RepeatedGetHitsTheNodeCache) {
  BaselineDb db;
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(db.Put("key" + std::to_string(i), "value").ok());
  }
  std::string value;
  ASSERT_TRUE(db.Get("key500", &value).ok());
  const uint64_t hits = db.Metrics().CounterValue("index.cache.hits");
  ASSERT_TRUE(db.Get("key500", &value).ok());
  EXPECT_GT(db.Metrics().CounterValue("index.cache.hits"), hits);
}

// Checks `vv` against `later`, a digest taken after the read. The proof
// names the journal size it was built at; the digest that size implies
// is rebuilt from the proof, `vv` must verify against it, and the
// journal must have grown from it to `later` append-only.
Status VerifyAgainstLaterDigest(const BaselineDb& db, const Slice& key,
                                const BaselineDb::VerifiedValue& vv) {
  const JournalEntryProof& proof = vv.proof;
  Hash256 entries_root;
  JournalDigest at;
  at.block_count = proof.block_path.tree_size;
  if (!MerkleTree::RootFromPath(vv.entry.LeafHash(), proof.entry_path,
                                &entries_root) ||
      !MerkleTree::RootFromPath(
          Hash256::OfLeaf(Block::HeaderHash(proof.block_height,
                                            proof.first_seq, proof.prev_hash,
                                            entries_root, proof.index_root,
                                            proof.block_timestamp)
                              .slice()),
          proof.block_path, &at.merkle_root)) {
    return Status::VerificationFailed("malformed proof");
  }
  Status s = BaselineDb::VerifyValue(at, key, vv);
  if (!s.ok()) return s;
  // A seal between the consistency proof and the digest makes them name
  // different sizes; take both again.
  MerkleConsistencyProof grown;
  JournalDigest later;
  do {
    s = db.ProveConsistency(at.block_count, &grown);
    if (!s.ok()) return s;
    later = db.Digest();
  } while (grown.new_size != later.block_count);
  return VerifyJournalConsistency(grown, at, later)
             ? Status::OK()
             : Status::VerificationFailed("journal forked");
}

TEST(BaselineDbTest, VerifiedReadersRaceASealingWriter) {
  BaselineDb::Options options;
  options.block_size = 4;
  BaselineDb db(options);
  constexpr int kKeys = 64;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(db.Put("k" + std::to_string(i), "v0").ok());
  }
  db.FlushBlock();

  std::atomic<bool> done{false};
  std::thread writer([&] {
    Random rng(5);
    for (int i = 0; i < 4000; i++) {
      std::string key = "k" + std::to_string(rng.Uniform(kKeys));
      if (!db.Put(key, "v" + std::to_string(i)).ok()) abort();
    }
    done = true;
  });
  std::atomic<uint64_t> verified{0}, busy{0}, failed{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; r++) {
    readers.emplace_back([&, r] {
      Random rng(100 + r);
      while (!done) {
        std::string key = "k" + std::to_string(rng.Uniform(kKeys));
        BaselineDb::VerifiedValue vv;
        Status s = db.GetVerified(key, &vv);
        if (s.IsBusy()) {
          busy++;
        } else if (s.ok() && VerifyAgainstLaterDigest(db, key, vv).ok()) {
          verified++;
        } else {
          failed++;
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_GT(verified.load(), 0u);
}

}  // namespace
}  // namespace spitz
