#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/random.h"
#include "core/spitz_db.h"
#include "index/pos_tree.h"
#include "index/pos_tree_iterator.h"

namespace spitz {
namespace {

class IteratorTest : public ::testing::Test {
 protected:
  Hash256 BuildTree(int n) {
    std::vector<PosEntry> entries;
    for (int i = 0; i < n; i++) {
      char key[16];
      snprintf(key, sizeof(key), "k%06d", i);
      entries.push_back({key, "v" + std::to_string(i)});
    }
    Hash256 root;
    EXPECT_TRUE(tree_.Build(entries, &root).ok());
    return root;
  }

  ChunkStore store_;
  PosTree tree_{&store_};
};

TEST_F(IteratorTest, EmptyTreeIsInvalid) {
  PosTreeIterator it(&store_, PosTree::EmptyRoot());
  it.SeekToFirst();
  EXPECT_FALSE(it.Valid());
  EXPECT_TRUE(it.status().ok());
}

TEST_F(IteratorTest, FullScanInOrder) {
  Hash256 root = BuildTree(1000);
  PosTreeIterator it(&store_, root);
  int count = 0;
  std::string prev;
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    if (count > 0) {
      EXPECT_LT(prev, it.key().ToString());
    }
    prev = it.key().ToString();
    count++;
  }
  EXPECT_TRUE(it.status().ok());
  EXPECT_EQ(count, 1000);
}

TEST_F(IteratorTest, SeekLandsOnLowerBound) {
  Hash256 root = BuildTree(100);
  PosTreeIterator it(&store_, root);
  it.Seek("k000050");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key().ToString(), "k000050");
  EXPECT_EQ(it.value().ToString(), "v50");
  // Seeking between keys lands on the next one.
  it.Seek("k000050x");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key().ToString(), "k000051");
}

TEST_F(IteratorTest, SeekPastEndIsInvalid) {
  Hash256 root = BuildTree(100);
  PosTreeIterator it(&store_, root);
  it.Seek("zzz");
  EXPECT_FALSE(it.Valid());
  EXPECT_TRUE(it.status().ok());
}

TEST_F(IteratorTest, MatchesScanExactly) {
  Random rng(33);
  std::vector<PosEntry> entries;
  std::map<std::string, std::string> oracle;
  for (int i = 0; i < 5000; i++) {
    std::string key = rng.Bytes(rng.Range(4, 10));
    std::string value = rng.Bytes(8);
    oracle[key] = value;
  }
  for (const auto& [k, v] : oracle) entries.push_back({k, v});
  Hash256 root;
  ASSERT_TRUE(tree_.Build(entries, &root).ok());

  PosTreeIterator it(&store_, root);
  auto oit = oracle.begin();
  for (it.SeekToFirst(); it.Valid(); it.Next(), ++oit) {
    ASSERT_NE(oit, oracle.end());
    EXPECT_EQ(it.key().ToString(), oit->first);
    EXPECT_EQ(it.value().ToString(), oit->second);
  }
  EXPECT_EQ(oit, oracle.end());
  EXPECT_TRUE(it.status().ok());
}

TEST_F(IteratorTest, SnapshotStableUnderConcurrentWrites) {
  SpitzDb db;
  for (int i = 0; i < 500; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%06d", i);
    ASSERT_TRUE(db.Put(key, "v1").ok());
  }
  auto it = db.NewIterator();
  it->SeekToFirst();
  // Mutate heavily while the iterator is open.
  for (int i = 0; i < 500; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%06d", i);
    ASSERT_TRUE(db.Put(key, "v2").ok());
  }
  for (int i = 500; i < 600; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%06d", i);
    ASSERT_TRUE(db.Put(key, "new").ok());
  }
  // The open iterator still sees exactly the old snapshot.
  int count = 0;
  for (; it->Valid(); it->Next()) {
    EXPECT_EQ(it->value().ToString(), "v1");
    count++;
  }
  EXPECT_EQ(count, 500);
}

TEST_F(IteratorTest, HistoricalVersionIteration) {
  SpitzOptions options;
  options.block_size = 100;
  SpitzDb db(options);
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db.Put("k" + std::to_string(i), "old").ok());
  }
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db.Put("k" + std::to_string(i), "new").ok());
  }
  Hash256 old_root;
  ASSERT_TRUE(db.IndexRootAt(0, &old_root).ok());
  auto it = db.NewIterator(old_root);
  int old_values = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    if (it->value() == Slice("old")) old_values++;
  }
  EXPECT_EQ(old_values, 100);
}

TEST_F(IteratorTest, SingleLeafTree) {
  Hash256 root = BuildTree(3);
  PosTreeIterator it(&store_, root);
  it.SeekToFirst();
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key().ToString(), "k000000");
  it.Next();
  it.Next();
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key().ToString(), "k000002");
  it.Next();
  EXPECT_FALSE(it.Valid());
}

}  // namespace
}  // namespace spitz
