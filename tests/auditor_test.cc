// The deferred auditor (src/core/auditor.h): audits read and verify
// through SpitzDb's public surface, like a client, and a drain names
// the first failure.

#include "core/auditor.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "chunk/buffer_cache.h"
#include "chunk/file_chunk_store.h"
#include "core/spitz_db.h"
#include "core/version_gc.h"
#include "index/siri.h"

namespace spitz {
namespace {

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key%05d", i);
  return buf;
}

// Unique per key, so its bytes occur in exactly one leaf chunk.
std::string ValueMarker(int i) { return "value-" + Key(i) + "-"; }

class AuditorTest : public ::testing::Test {
 protected:
  static constexpr int kKeys = 4000;

  void SetUp() override {
    dir_ = ::testing::TempDir() + "/spitz_auditor_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  // A durable database holding kKeys bulk-loaded records (~400 KB of
  // leaves) behind a 64 KiB cache, every chunk on disk.
  std::unique_ptr<SpitzDb> OpenLoaded(const std::string& dir) {
    SpitzOptions options;
    options.data_dir = dir;
    options.buffer_cache_bytes = 64 << 10;
    options.audit_workers = 2;
    std::unique_ptr<SpitzDb> db;
    EXPECT_TRUE(SpitzDb::Open(options, &db).ok());
    std::vector<PosEntry> entries;
    for (int i = 0; i < kKeys; i++) {
      entries.push_back({Key(i), ValueMarker(i) + std::string(80, 'x')});
    }
    EXPECT_TRUE(db->BulkLoad(std::move(entries)).ok());
    EXPECT_TRUE(db->SyncStorage().ok());
    return db;
  }

  // Flips one byte of `marker` where it sits in a chunk segment file;
  // the marker must occur exactly once across all segments.
  void FlipByteOf(const std::string& marker) {
    int found = 0;
    for (const auto& file :
         std::filesystem::directory_iterator(dir_ + "/chunks")) {
      std::fstream f(file.path(),
                     std::ios::binary | std::ios::in | std::ios::out);
      std::string bytes((std::istreambuf_iterator<char>(f)),
                        std::istreambuf_iterator<char>());
      for (size_t at = bytes.find(marker); at != std::string::npos;
           at = bytes.find(marker, at + 1)) {
        found++;
        f.clear();
        f.seekp(static_cast<std::streamoff>(at + marker.size() - 2));
        f.put(static_cast<char>(bytes[at + marker.size() - 2] ^ 0x01));
      }
    }
    ASSERT_EQ(found, 1) << marker;
  }

  std::string dir_;
};

// One flipped byte in a leaf on disk: the audit of a key under that
// leaf fails and the drain names it; the audit of a key whose path
// avoids the leaf passes. The same audits on an undamaged copy pass.
TEST_F(AuditorTest, DeferredAuditCatchesDamagedIndexBytes) {
  const int damaged = 100;
  const int intact = kKeys - 100;
  for (bool flip : {false, true}) {
    SCOPED_TRACE(flip ? "damaged" : "intact");
    std::filesystem::remove_all(dir_);
    std::unique_ptr<SpitzDb> db = OpenLoaded(dir_);
    if (flip) FlipByteOf(ValueMarker(damaged));
    // Churn the cache with the upper half so the damaged leaf is read
    // back from its segment.
    std::string value;
    for (int i = kKeys / 2; i < kKeys; i++) {
      ASSERT_TRUE(db->Read(kCurrentVersion, Key(i), &value, nullptr).ok());
    }
    ASSERT_TRUE(db->auditor()->AuditKey(Key(damaged)).ok());
    ASSERT_TRUE(db->auditor()->AuditKey(Key(intact)).ok());
    Status s = db->auditor()->Drain();
    MetricsSnapshot snap = db->Metrics();
    EXPECT_EQ(snap.CounterValue("txn.verifier.verified"), 2u);
    if (!flip) {
      EXPECT_TRUE(s.ok()) << s.ToString();
      EXPECT_EQ(snap.CounterValue("txn.verifier.failures"), 0u);
      continue;
    }
    ASSERT_TRUE(s.IsVerificationFailed()) << s.ToString();
    EXPECT_EQ(snap.CounterValue("txn.verifier.failures"), 1u);
    EXPECT_NE(s.message().find("key " + Key(damaged)), std::string::npos)
        << s.ToString();
    EXPECT_NE(s.message().find("Corruption"), std::string::npos)
        << s.ToString();
  }
}

// Audits read through SpitzDb::Read, so each point audit is counted as a
// proof build of the db (DESIGN.md section 8), and every audit's check
// is timed in core.db.proof_verify_latency_ns.
TEST_F(AuditorTest, AuditsAreCountedAsProofReads) {
  SpitzOptions options;
  options.block_size = 4;
  options.audit_workers = 2;
  SpitzDb db(options);
  for (int i = 0; i < 10; i++) ASSERT_TRUE(db.Put(Key(i), "v").ok());
  auto count = [&](const std::string& histogram) {
    MetricsSnapshot snap = db.Metrics();
    const HistogramSnapshot* h = snap.FindHistogram(histogram);
    return h == nullptr ? 0 : h->count;
  };
  const uint64_t builds = count("core.db.proof_build_latency_ns");
  const uint64_t proofs = count("index.siri.proof_bytes.pos-tree");
  const uint64_t verifies = count("core.db.proof_verify_latency_ns");
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(db.auditor()->AuditKey(Key(i), std::string("v")).ok());
  }
  ASSERT_TRUE(db.auditor()->AuditLastBlock().ok());
  ASSERT_TRUE(db.auditor()->Drain().ok());
  EXPECT_EQ(count("core.db.proof_build_latency_ns"), builds + 10);
  EXPECT_EQ(count("index.siri.proof_bytes.pos-tree"), proofs + 10);
  EXPECT_EQ(count("core.db.proof_verify_latency_ns"), verifies + 11);
  EXPECT_EQ(db.Metrics().CounterValue("txn.verifier.verified"), 11u);
}

// A point audit proves absence as well as presence, checks the expected
// value when given one, and the drain names the first failure.
TEST_F(AuditorTest, OnlineAuditChecksValueAndAbsenceAndDrainNamesFailure) {
  SpitzOptions options;
  options.audit_batch_size = 0;
  SpitzDb db(options);
  EXPECT_TRUE(db.auditor()->AuditKey("k").ok());  // the empty index
  EXPECT_TRUE(db.auditor()->AuditLastBlock().ok());
  EXPECT_TRUE(db.auditor()->Drain().ok());
  ASSERT_TRUE(db.Put("k", "v").ok());
  ASSERT_TRUE(db.FlushBlock().ok());
  EXPECT_TRUE(db.auditor()->AuditKey("k").ok());
  EXPECT_TRUE(db.auditor()->AuditKey("k", std::string("v")).ok());
  EXPECT_TRUE(db.auditor()->AuditKey("absent").ok());
  EXPECT_TRUE(db.auditor()->AuditLastBlock().ok());
  EXPECT_TRUE(db.auditor()->Drain().ok());
  EXPECT_TRUE(db.auditor()->AuditKey("absent", std::string("v"))
                  .IsVerificationFailed());
  EXPECT_TRUE(
      db.auditor()->AuditKey("k", std::string("w")).IsVerificationFailed());
  Status s = db.auditor()->Drain();
  ASSERT_TRUE(s.IsVerificationFailed());
  EXPECT_NE(s.message().find("key absent"), std::string::npos)
      << s.ToString();
}

// The last-block audit verifies against the digest its block path was
// taken against, which ProveHistoricalEntry returns with the proof: the
// proof still verifies against it after the journal has grown, and not
// against the grown journal's digest.
TEST_F(AuditorTest, HistoricalProofComesWithTheDigestItWasTakenAgainst) {
  SpitzOptions options;
  options.block_size = 2;
  SpitzDb db(options);
  for (int i = 0; i < 6; i++) ASSERT_TRUE(db.Put(Key(i), "v").ok());
  JournalEntryProof proof;
  LedgerEntry entry;
  JournalDigest digest;
  ASSERT_TRUE(
      db.ledger()->ProveHistoricalEntry(2, 0, &proof, &entry, &digest).ok());
  EXPECT_EQ(digest.block_count, 3u);
  for (int i = 6; i < 10; i++) ASSERT_TRUE(db.Put(Key(i), "v").ok());
  EXPECT_TRUE(Journal::VerifyEntry(entry, proof, digest).ok());
  EXPECT_TRUE(Journal::VerifyEntry(entry, proof, db.Digest().journal)
                  .IsVerificationFailed());
}

// VersionGc::Collected tells a version a GC pass has collected from one it
// kept; the empty index is never collected.
TEST_F(AuditorTest, VersionCollectedTellsCollectedFromRetained) {
  SpitzOptions options;
  options.block_size = 1;
  options.retain_versions = 1;
  SpitzDb db(options);
  ASSERT_TRUE(db.Put("k", "v1").ok());
  const Hash256 old_root = db.Digest().index_root;
  ASSERT_TRUE(db.Put("k", "v2").ok());
  EXPECT_FALSE(db.gc()->Collected(old_root));
  ASSERT_TRUE(db.gc()->Collect().ok());
  EXPECT_TRUE(db.gc()->Collected(old_root));
  EXPECT_FALSE(db.gc()->Collected(db.Digest().index_root));
  EXPECT_FALSE(db.gc()->Collected(Hash256()));
}

// A pass can collect a version yet keep its root: a write during the
// pass whose root chain is at the delta cap rebases onto the chain's
// full record, the old root, and naming it resurrects that node alone.
// The pass erases the rest of the old version, so Collected must tell
// it collected by the chunks it reaches, not by its root.
TEST_F(AuditorTest, VersionWhoseRootSurvivesAsADeltaBaseIsCollected) {
  BufferCache cache(1 << 20);
  FileChunkStore::Options store_options;
  store_options.cache = &cache;
  std::unique_ptr<FileChunkStore> store;
  ASSERT_TRUE(
      FileChunkStore::Open(Env::Default(), dir_, store_options, &store).ok());
  SiriIndexOptions index_options;
  index_options.pos.meta_pattern_bits = 30;  // one meta over all leaves
  std::unique_ptr<SiriIndex> index =
      MakeSiriIndex(SiriBackend::kPosTree, store.get(), index_options);
  std::vector<PosEntry> entries;
  for (int i = 0; i < 400; i++) entries.push_back({Key(i), ValueMarker(i)});
  std::vector<Hash256> roots(1);
  ASSERT_TRUE(index->Build(entries, &roots[0]).ok());
  ASSERT_TRUE(store->Sync().ok());
  // Version 1 replaces the last leaf; versions 2..kCap the first, so the
  // root's chain of deltas reaches the cap and the last leaf of version
  // 0 is in no later version.
  auto overwrite = [&](int key) {
    std::vector<Hash256> replaced;
    Hash256 root;
    EXPECT_TRUE(index
                    ->Put(roots.back(), Key(key),
                          "v" + std::to_string(roots.size()), &root,
                          &replaced)
                    .ok());
    roots.push_back(root);
    return replaced;
  };
  const std::vector<Hash256> first = overwrite(399);
  ASSERT_EQ(first.size(), 2u);  // the root and the last leaf
  const Hash256 old_leaf = first[0] == roots[0] ? first[1] : first[0];
  for (int v = 2; v <= FileChunkStore::kMaxChainDepth; v++) overwrite(0);

  // The pass retains the newest version. Right after the mark, a write
  // at the cap rebases the new root onto version 0's.
  VersionGc gc(
      store.get(), index.get(),
      [&](std::vector<Hash256>* retained) {
        retained->push_back(roots.back());
        const uint64_t mark = store->BeginGc();
        overwrite(0);
        return mark;
      },
      /*interval_blocks=*/0, Status::OK(), /*registry=*/nullptr);
  ASSERT_TRUE(gc.Collect().ok());
  EXPECT_TRUE(store->Contains(roots[0]));
  EXPECT_FALSE(store->Contains(old_leaf));
  EXPECT_TRUE(gc.Collected(roots[0]));
  EXPECT_TRUE(gc.Collected(roots[1]));
  EXPECT_FALSE(gc.Collected(roots[roots.size() - 2]));
  EXPECT_FALSE(gc.Collected(roots.back()));
}

// The other side: a version the last pass kept lost nothing to it, so
// a chunk of it gone missing (here erased by a sweep whose live set
// leaves it out, as a GC bug would) is damage, and the audit failure
// stands.
TEST_F(AuditorTest, KeptVersionMissingAChunkIsNotCollected) {
  BufferCache cache(1 << 20);
  FileChunkStore::Options store_options;
  store_options.cache = &cache;
  std::unique_ptr<FileChunkStore> store;
  ASSERT_TRUE(
      FileChunkStore::Open(Env::Default(), dir_, store_options, &store).ok());
  std::unique_ptr<SiriIndex> index =
      MakeSiriIndex(SiriBackend::kPosTree, store.get(), SiriIndexOptions());
  std::vector<PosEntry> entries;
  for (int i = 0; i < 400; i++) entries.push_back({Key(i), ValueMarker(i)});
  Hash256 old_root;
  ASSERT_TRUE(index->Build(entries, &old_root).ok());
  Hash256 root;
  ASSERT_TRUE(index->Put(old_root, Key(0), "v1", &root).ok());
  VersionGc gc(
      store.get(), index.get(),
      [&](std::vector<Hash256>* retained) {
        retained->push_back(root);
        return store->BeginGc();
      },
      /*interval_blocks=*/0, Status::OK(), /*registry=*/nullptr);
  ASSERT_TRUE(gc.Collect().ok());
  std::vector<PosEntry> rows;
  ASSERT_TRUE(index->Scan(root, "", "", 0, &rows, nullptr).ok());
  EXPECT_FALSE(gc.Collected(root));

  std::unordered_set<Hash256, Hash256Hasher> live;
  ASSERT_TRUE(index->CollectChunks(root, &live).ok());
  ASSERT_GT(live.size(), 1u);
  const Hash256 lost = *live.begin() == root ? *std::next(live.begin())
                                             : *live.begin();
  live.erase(lost);
  ASSERT_TRUE(store->RetainLive(live, store->BeginGc(), nullptr).ok());
  ASSERT_FALSE(store->Contains(lost));
  ASSERT_TRUE(store->Contains(root));
  EXPECT_FALSE(index->Scan(root, "", "", 0, &rows, nullptr).ok());
  EXPECT_FALSE(gc.Collected(root));
  // The version the pass did not keep is still collected.
  EXPECT_TRUE(gc.Collected(old_root));
}

}  // namespace
}  // namespace spitz
