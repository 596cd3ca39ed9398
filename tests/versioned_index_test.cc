#include "index/versioned_index.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chunk/buffer_cache.h"
#include "chunk/chunk_store.h"
#include "common/metrics.h"

namespace spitz {
namespace {

std::string Key(int i) {
  char key[16];
  snprintf(key, sizeof(key), "k%06d", i);
  return key;
}

class VersionedIndexTest : public ::testing::Test {
 protected:
  static constexpr size_t kRetain = 2;

  VersionedIndexTest()
      : cache_(BufferCache::kDefaultCapacityBytes),
        index_(SiriBackend::kPosTree, &chunks_, &cache_, SiriIndexOptions(),
               kRetain, &registry_, "test.db") {
    std::vector<PosEntry> entries;
    for (int i = 0; i < 2000; i++) entries.push_back({Key(i), "v"});
    EXPECT_TRUE(index_.Build(std::move(entries)).ok());
  }

  uint64_t NodeErases() const {
    return cache_.stats().kind[BufferCache::kPosNode].erases;
  }

  MetricsRegistry registry_;
  ChunkStore chunks_;
  BufferCache cache_;
  VersionedIndex index_;
};

TEST_F(VersionedIndexTest, ApplyMakesAVersionAndOldRootsStayReadable) {
  const Hash256 before = index_.root();
  WriteBatch batch;
  batch.Put(Key(7), "new");
  batch.Delete(Key(8));
  ASSERT_TRUE(index_.Apply(batch).ok());
  EXPECT_NE(index_.root(), before);
  std::string value;
  ASSERT_TRUE(index_.Read(index_.root(), Key(7), &value, nullptr).ok());
  EXPECT_EQ(value, "new");
  EXPECT_TRUE(index_.Read(index_.root(), Key(8), &value, nullptr).IsNotFound());
  ASSERT_TRUE(index_.Read(before, Key(7), &value, nullptr).ok());
  EXPECT_EQ(value, "v");
  EXPECT_EQ(index_.Count(before), 2000u);
  EXPECT_EQ(index_.Count(index_.root()), 1999u);
}

TEST_F(VersionedIndexTest, DeletingAnAbsentKeyIsANoOp) {
  const Hash256 before = index_.root();
  WriteBatch batch;
  batch.Delete("absent");
  ASSERT_TRUE(index_.Apply(batch).ok());
  EXPECT_EQ(index_.root(), before);
}

TEST_F(VersionedIndexTest, ApplyToLeavesTheCurrentVersionAlone) {
  const Hash256 before = index_.root();
  WriteBatch batch;
  batch.Put(Key(3), "x");
  Hash256 root = before;
  std::vector<Hash256> replaced;
  ASSERT_TRUE(index_.ApplyTo(batch, &root, &replaced).ok());
  EXPECT_EQ(index_.root(), before);
  EXPECT_FALSE(replaced.empty());
  // The same ops through Apply reach the same root.
  ASSERT_TRUE(index_.Apply(batch).ok());
  EXPECT_EQ(index_.root(), root);
}

TEST_F(VersionedIndexTest, ProofsAtOldAndNewRootsVerifyAndAreCounted) {
  const Hash256 old_root = index_.root();
  WriteBatch batch;
  batch.Put(Key(5), "five");
  ASSERT_TRUE(index_.Apply(batch).ok());
  std::string value;
  ReadProof proof;
  ASSERT_TRUE(index_.Read(old_root, Key(5), &value, &proof).ok());
  EXPECT_EQ(proof.index_root, old_root);
  EXPECT_TRUE(proof.index_proof.Verify(old_root, Key(5), value).ok());
  EXPECT_FALSE(proof.index_proof.Verify(index_.root(), Key(5), value).ok());
  std::vector<PosEntry> rows;
  ScanProof range;
  ASSERT_TRUE(
      index_.ReadRange(index_.root(), Key(4), Key(7), 0, &rows, &range).ok());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[1].value, "five");
  EXPECT_TRUE(
      range.index_proof.Verify(index_.root(), Key(4), Key(7), 0, rows).ok());
  ASSERT_TRUE(index_.Read(index_.root(), Key(5), &value, nullptr).ok());

  MetricsSnapshot snap = registry_.Snapshot();
  EXPECT_EQ(snap.FindHistogram("test.db.proof_build_latency_ns")->count, 2u);
  EXPECT_EQ(snap.FindHistogram("test.db.read_latency_ns")->count, 1u);
  EXPECT_EQ(snap.FindHistogram("index.siri.proof_bytes.pos-tree")->count, 1u);
  EXPECT_EQ(
      snap.FindHistogram("index.siri.range_proof_bytes.pos-tree")->count, 1u);
  EXPECT_GT(snap.CounterValue("index.cache.inserts"), 0u);
}

// A version's replaced nodes leave the cache only once retain_versions
// later versions have been sealed, and only at EraseExpired.
TEST_F(VersionedIndexTest, ReplacedNodesLeaveTheCacheWhenTheirVersionExpires) {
  std::string value;
  ASSERT_TRUE(index_.Read(index_.root(), Key(9), &value, nullptr).ok());
  WriteBatch batch;
  batch.Put(Key(9), "nine");
  ASSERT_TRUE(index_.Apply(batch).ok());
  index_.Seal();
  for (size_t i = 0; i + 1 < kRetain; i++) {
    index_.Seal();
    index_.EraseExpired();
    EXPECT_EQ(NodeErases(), 0u) << "expired inside the window";
  }
  index_.Seal();
  EXPECT_EQ(NodeErases(), 0u) << "erased before EraseExpired";
  index_.EraseExpired();
  EXPECT_GT(NodeErases(), 0u);
}

}  // namespace
}  // namespace spitz
