#include <gtest/gtest.h>

#include <map>
#include <string>

#include "chunk/chunk_store.h"
#include "common/random.h"
#include "index/mbt.h"
#include "index/mpt.h"

namespace spitz {
namespace {

// =========================== Merkle Patricia Trie ===========================

class MptTest : public ::testing::Test {
 protected:
  ChunkStore store_;
  MerklePatriciaTrie trie_{&store_};
};

TEST_F(MptTest, EmptyTrie) {
  std::string value;
  EXPECT_TRUE(
      trie_.Get(MerklePatriciaTrie::EmptyRoot(), "x", &value, nullptr)
          .IsNotFound());
}

TEST_F(MptTest, PutGetSingle) {
  Hash256 root;
  ASSERT_TRUE(trie_.Put(MerklePatriciaTrie::EmptyRoot(), "key", "value",
                        &root)
                  .ok());
  std::string value;
  ASSERT_TRUE(trie_.Get(root, "key", &value, nullptr).ok());
  EXPECT_EQ(value, "value");
  EXPECT_TRUE(trie_.Get(root, "kex", &value, nullptr).IsNotFound());
  EXPECT_TRUE(trie_.Get(root, "ke", &value, nullptr).IsNotFound());
  EXPECT_TRUE(trie_.Get(root, "keyy", &value, nullptr).IsNotFound());
}

TEST_F(MptTest, SharedPrefixesSplitCorrectly) {
  Hash256 root = MerklePatriciaTrie::EmptyRoot();
  ASSERT_TRUE(trie_.Put(root, "abcd", "1", &root).ok());
  ASSERT_TRUE(trie_.Put(root, "abxy", "2", &root).ok());
  ASSERT_TRUE(trie_.Put(root, "ab", "3", &root).ok());
  ASSERT_TRUE(trie_.Put(root, "zz", "4", &root).ok());
  std::string value;
  ASSERT_TRUE(trie_.Get(root, "abcd", &value, nullptr).ok());
  EXPECT_EQ(value, "1");
  ASSERT_TRUE(trie_.Get(root, "abxy", &value, nullptr).ok());
  EXPECT_EQ(value, "2");
  ASSERT_TRUE(trie_.Get(root, "ab", &value, nullptr).ok());
  EXPECT_EQ(value, "3");
  ASSERT_TRUE(trie_.Get(root, "zz", &value, nullptr).ok());
  EXPECT_EQ(value, "4");
  uint64_t count = 0;
  ASSERT_TRUE(trie_.Count(root, &count).ok());
  EXPECT_EQ(count, 4u);
}

TEST_F(MptTest, OverwriteKeepsCount) {
  Hash256 root = MerklePatriciaTrie::EmptyRoot();
  ASSERT_TRUE(trie_.Put(root, "k", "v1", &root).ok());
  ASSERT_TRUE(trie_.Put(root, "k", "v2", &root).ok());
  std::string value;
  ASSERT_TRUE(trie_.Get(root, "k", &value, nullptr).ok());
  EXPECT_EQ(value, "v2");
  uint64_t count = 0;
  ASSERT_TRUE(trie_.Count(root, &count).ok());
  EXPECT_EQ(count, 1u);
}

TEST_F(MptTest, StructuralInvarianceAcrossInsertionOrders) {
  Random rng(9);
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 500; i++) {
    entries.push_back({"key" + std::to_string(i), "v" + std::to_string(i)});
  }
  Hash256 root1 = MerklePatriciaTrie::EmptyRoot();
  for (const auto& [k, v] : entries) {
    ASSERT_TRUE(trie_.Put(root1, k, v, &root1).ok());
  }
  for (size_t i = entries.size(); i > 1; i--) {
    std::swap(entries[i - 1], entries[rng.Uniform(i)]);
  }
  Hash256 root2 = MerklePatriciaTrie::EmptyRoot();
  for (const auto& [k, v] : entries) {
    ASSERT_TRUE(trie_.Put(root2, k, v, &root2).ok());
  }
  EXPECT_EQ(root1, root2);
}

TEST_F(MptTest, DeleteRestoresPreviousRoot) {
  Hash256 base = MerklePatriciaTrie::EmptyRoot();
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(trie_.Put(base, "key" + std::to_string(i), "v", &base).ok());
  }
  Hash256 with;
  ASSERT_TRUE(trie_.Put(base, "extra-key", "tmp", &with).ok());
  Hash256 back;
  ASSERT_TRUE(trie_.Delete(with, "extra-key", &back).ok());
  EXPECT_EQ(base, back) << "delete must canonicalize back to the old root";
}

TEST_F(MptTest, DeleteMissingFails) {
  Hash256 root = MerklePatriciaTrie::EmptyRoot();
  ASSERT_TRUE(trie_.Put(root, "a", "1", &root).ok());
  Hash256 out;
  EXPECT_TRUE(trie_.Delete(root, "b", &out).IsNotFound());
  EXPECT_TRUE(
      trie_.Delete(MerklePatriciaTrie::EmptyRoot(), "a", &out).IsNotFound());
}

TEST_F(MptTest, DeleteToEmpty) {
  Hash256 root = MerklePatriciaTrie::EmptyRoot();
  ASSERT_TRUE(trie_.Put(root, "only", "1", &root).ok());
  ASSERT_TRUE(trie_.Delete(root, "only", &root).ok());
  EXPECT_TRUE(root.IsZero());
}

TEST_F(MptTest, RandomOpsMatchStdMap) {
  Random rng(44);
  std::map<std::string, std::string> oracle;
  Hash256 root = MerklePatriciaTrie::EmptyRoot();
  for (int i = 0; i < 3000; i++) {
    std::string key = "k" + std::to_string(rng.Uniform(400));
    int action = static_cast<int>(rng.Uniform(10));
    if (action < 6) {
      std::string value = rng.Bytes(6);
      ASSERT_TRUE(trie_.Put(root, key, value, &root).ok());
      oracle[key] = value;
    } else if (action < 8) {
      Status s = trie_.Delete(root, key, &root);
      EXPECT_EQ(s.ok(), oracle.erase(key) > 0);
    } else {
      std::string value;
      Status s = trie_.Get(root, key, &value, nullptr);
      auto it = oracle.find(key);
      if (it == oracle.end()) {
        EXPECT_TRUE(s.IsNotFound());
      } else {
        ASSERT_TRUE(s.ok());
        EXPECT_EQ(value, it->second);
      }
    }
  }
  uint64_t count = 0;
  ASSERT_TRUE(trie_.Count(root, &count).ok());
  EXPECT_EQ(count, oracle.size());
  // Structural invariance at the end state.
  Hash256 rebuilt = MerklePatriciaTrie::EmptyRoot();
  for (const auto& [k, v] : oracle) {
    ASSERT_TRUE(trie_.Put(rebuilt, k, v, &rebuilt).ok());
  }
  EXPECT_EQ(root, rebuilt);
}

TEST_F(MptTest, MembershipProofVerifies) {
  Hash256 root = MerklePatriciaTrie::EmptyRoot();
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(
        trie_.Put(root, "key" + std::to_string(i), "val" + std::to_string(i),
                  &root)
            .ok());
  }
  std::string value;
  MptProof proof;
  ASSERT_TRUE(trie_.Get(root, "key250", &value, &proof).ok());
  EXPECT_EQ(value, "val250");
  EXPECT_TRUE(
      VerifyMptProof(root, "key250", value, proof).ok());
  EXPECT_FALSE(VerifyMptProof(root, "key250",
                              std::string("forged"), proof)
                   .ok());
}

TEST_F(MptTest, NonMembershipProofVerifies) {
  Hash256 root = MerklePatriciaTrie::EmptyRoot();
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(trie_.Put(root, "key" + std::to_string(i), "v", &root).ok());
  }
  std::string value;
  MptProof proof;
  EXPECT_TRUE(
      trie_.Get(root, "key-missing", &value, &proof).IsNotFound());
  EXPECT_TRUE(
      VerifyMptProof(root, "key-missing", std::nullopt, proof)
          .ok());
}

TEST_F(MptTest, ProofRejectsWrongRoot) {
  Hash256 root = MerklePatriciaTrie::EmptyRoot();
  ASSERT_TRUE(trie_.Put(root, "a", "1", &root).ok());
  std::string value;
  MptProof proof;
  ASSERT_TRUE(trie_.Get(root, "a", &value, &proof).ok());
  EXPECT_FALSE(
      VerifyMptProof(Hash256::Of("x"), "a", value, proof)
          .ok());
}

TEST_F(MptTest, VersionSharing) {
  Hash256 root = MerklePatriciaTrie::EmptyRoot();
  for (int i = 0; i < 5000; i++) {
    ASSERT_TRUE(trie_.Put(root, "key" + std::to_string(i), "v", &root).ok());
  }
  uint64_t before = store_.stats().chunk_count;
  Hash256 root2;
  ASSERT_TRUE(trie_.Put(root, "key2500", "updated", &root2).ok());
  uint64_t added = store_.stats().chunk_count - before;
  EXPECT_LE(added, 16u);  // path copy only
  std::string value;
  ASSERT_TRUE(trie_.Get(root, "key2500", &value, nullptr).ok());
  EXPECT_EQ(value, "v");  // old version intact
}

// =========================== Merkle Bucket Tree =============================

class MbtTest : public ::testing::Test {
 protected:
  ChunkStore store_;
  MerkleBucketTree tree_{&store_};
};

TEST_F(MbtTest, EmptyTree) {
  std::string value;
  EXPECT_TRUE(
      tree_.Get(MerkleBucketTree::EmptyRoot(), "x", &value, nullptr)
          .IsNotFound());
}

TEST_F(MbtTest, PutGetDelete) {
  Hash256 root;
  ASSERT_TRUE(
      tree_.Put(MerkleBucketTree::EmptyRoot(), "key", "value", &root).ok());
  std::string value;
  ASSERT_TRUE(tree_.Get(root, "key", &value, nullptr).ok());
  EXPECT_EQ(value, "value");
  ASSERT_TRUE(tree_.Delete(root, "key", &root).ok());
  EXPECT_TRUE(root.IsZero());
}

TEST_F(MbtTest, ManyKeysAcrossBuckets) {
  Hash256 root = MerkleBucketTree::EmptyRoot();
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(
        tree_.Put(root, "key" + std::to_string(i), "v" + std::to_string(i),
                  &root)
            .ok());
  }
  uint64_t count = 0;
  ASSERT_TRUE(tree_.Count(root, &count).ok());
  EXPECT_EQ(count, 2000u);
  std::string value;
  ASSERT_TRUE(tree_.Get(root, "key1234", &value, nullptr).ok());
  EXPECT_EQ(value, "v1234");
}

TEST_F(MbtTest, StructuralInvariance) {
  Random rng(12);
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 500; i++) {
    entries.push_back({"k" + std::to_string(i), "v"});
  }
  Hash256 root1 = MerkleBucketTree::EmptyRoot();
  for (const auto& [k, v] : entries) {
    ASSERT_TRUE(tree_.Put(root1, k, v, &root1).ok());
  }
  for (size_t i = entries.size(); i > 1; i--) {
    std::swap(entries[i - 1], entries[rng.Uniform(i)]);
  }
  Hash256 root2 = MerkleBucketTree::EmptyRoot();
  for (const auto& [k, v] : entries) {
    ASSERT_TRUE(tree_.Put(root2, k, v, &root2).ok());
  }
  EXPECT_EQ(root1, root2);
}

TEST_F(MbtTest, ProofVerifies) {
  Hash256 root = MerkleBucketTree::EmptyRoot();
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(
        tree_.Put(root, "key" + std::to_string(i), "val" + std::to_string(i),
                  &root)
            .ok());
  }
  std::string value;
  MbtProof proof;
  ASSERT_TRUE(tree_.Get(root, "key77", &value, &proof).ok());
  EXPECT_TRUE(
      VerifyMbtProof(root, "key77", value, proof).ok());
  EXPECT_FALSE(VerifyMbtProof(root, "key77",
                              std::string("bad"), proof)
                   .ok());
}

TEST_F(MbtTest, NonMembershipProof) {
  Hash256 root = MerkleBucketTree::EmptyRoot();
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(tree_.Put(root, "key" + std::to_string(i), "v", &root).ok());
  }
  std::string value;
  MbtProof proof;
  EXPECT_TRUE(tree_.Get(root, "absent", &value, &proof).IsNotFound());
  EXPECT_TRUE(
      VerifyMbtProof(root, "absent", std::nullopt, proof).ok());
}

TEST_F(MbtTest, ProofRejectsTamperedDirectory) {
  Hash256 root = MerkleBucketTree::EmptyRoot();
  ASSERT_TRUE(tree_.Put(root, "a", "1", &root).ok());
  std::string value;
  MbtProof proof;
  ASSERT_TRUE(tree_.Get(root, "a", &value, &proof).ok());
  std::string directory = proof.directory.payload.ToString();
  directory[0] ^= 1;
  proof.directory = OwnedProofNode(proof.directory.type, directory);
  EXPECT_FALSE(VerifyMbtProof(root, "a", value, proof).ok());
}

TEST_F(MbtTest, DeleteMissingFails) {
  Hash256 root = MerkleBucketTree::EmptyRoot();
  ASSERT_TRUE(tree_.Put(root, "a", "1", &root).ok());
  Hash256 out;
  EXPECT_TRUE(tree_.Delete(root, "zzz", &out).IsNotFound());
}

}  // namespace
}  // namespace spitz
