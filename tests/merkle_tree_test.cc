#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "proof/merkle_tree.h"

namespace spitz {
namespace {

Hash256 Leaf(int i) { return Hash256::OfLeaf("leaf-" + std::to_string(i)); }

TEST(MerkleTreeTest, EmptyTreeRootIsHashOfEmptyString) {
  MerkleTree t;
  EXPECT_EQ(t.Root(), Hash256::Of(Slice("", 0)));
}

TEST(MerkleTreeTest, SingleLeafRootIsLeafHash) {
  MerkleTree t;
  t.AppendLeafHash(Leaf(0));
  EXPECT_EQ(t.Root(), Leaf(0));
}

TEST(MerkleTreeTest, TwoLeafRoot) {
  MerkleTree t;
  t.AppendLeafHash(Leaf(0));
  t.AppendLeafHash(Leaf(1));
  EXPECT_EQ(t.Root(), Hash256::OfPair(Leaf(0), Leaf(1)));
}

TEST(MerkleTreeTest, ThreeLeafRootFollowsRfc6962Split) {
  MerkleTree t;
  for (int i = 0; i < 3; i++) t.AppendLeafHash(Leaf(i));
  Hash256 expected =
      Hash256::OfPair(Hash256::OfPair(Leaf(0), Leaf(1)), Leaf(2));
  EXPECT_EQ(t.Root(), expected);
}

TEST(MerkleTreeTest, RootChangesWithEveryAppend) {
  MerkleTree t;
  Hash256 prev = t.Root();
  for (int i = 0; i < 40; i++) {
    t.AppendLeafHash(Leaf(i));
    Hash256 cur = t.Root();
    EXPECT_NE(cur, prev);
    prev = cur;
  }
}

TEST(MerkleTreeTest, RootAtMatchesIncrementalRoots) {
  MerkleTree t;
  std::vector<Hash256> roots;
  for (int i = 0; i < 60; i++) {
    t.AppendLeafHash(Leaf(i));
    roots.push_back(t.Root());
  }
  for (int i = 0; i < 60; i++) {
    Hash256 r;
    ASSERT_TRUE(t.RootAt(i + 1, &r).ok());
    EXPECT_EQ(r, roots[i]) << "prefix " << i + 1;
  }
}

TEST(MerkleTreeTest, FrontierRootIsTheTreeRootAtEverySize) {
  MerkleTree tree;
  MerkleFrontier frontier;
  EXPECT_EQ(frontier.Root(), tree.Root());
  for (int i = 0; i < 300; i++) {
    tree.AppendLeafHash(Leaf(i));
    frontier.AppendLeafHash(Leaf(i));
    ASSERT_EQ(frontier.Root(), tree.Root()) << "size " << i + 1;
  }
}

TEST(MerkleTreeTest, RootAtBeyondSizeFails) {
  MerkleTree t;
  t.AppendLeafHash(Leaf(0));
  Hash256 r;
  EXPECT_TRUE(t.RootAt(2, &r).IsInvalidArgument());
}

// Property: every leaf of trees of many sizes verifies against the root.
TEST(MerkleTreeTest, InclusionProofPropertyAllSizes) {
  MerkleTree t;
  for (int n = 1; n <= 130; n++) {
    t.AppendLeafHash(Leaf(n - 1));
    Hash256 root = t.Root();
    // Check a few leaves per size (all for small sizes).
    for (int i = 0; i < n; i += (n > 20 ? n / 7 : 1)) {
      MerkleInclusionProof proof;
      ASSERT_TRUE(t.InclusionProof(i, &proof).ok());
      EXPECT_TRUE(MerkleTree::VerifyInclusion(Leaf(i), proof, root))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(MerkleTreeTest, InclusionProofWrongLeafFails) {
  MerkleTree t;
  for (int i = 0; i < 10; i++) t.AppendLeafHash(Leaf(i));
  MerkleInclusionProof proof;
  ASSERT_TRUE(t.InclusionProof(3, &proof).ok());
  EXPECT_FALSE(MerkleTree::VerifyInclusion(Leaf(4), proof, t.Root()));
}

TEST(MerkleTreeTest, InclusionProofWrongRootFails) {
  MerkleTree t;
  for (int i = 0; i < 10; i++) t.AppendLeafHash(Leaf(i));
  MerkleInclusionProof proof;
  ASSERT_TRUE(t.InclusionProof(3, &proof).ok());
  EXPECT_FALSE(
      MerkleTree::VerifyInclusion(Leaf(3), proof, Hash256::Of("bogus")));
}

TEST(MerkleTreeTest, TamperedProofPathFails) {
  MerkleTree t;
  for (int i = 0; i < 33; i++) t.AppendLeafHash(Leaf(i));
  MerkleInclusionProof proof;
  ASSERT_TRUE(t.InclusionProof(17, &proof).ok());
  ASSERT_FALSE(proof.path.empty());
  proof.path[0] = Hash256::Of("tampered");
  EXPECT_FALSE(MerkleTree::VerifyInclusion(Leaf(17), proof, t.Root()));
}

TEST(MerkleTreeTest, ProofForIndexBeyondTreeFails) {
  MerkleTree t;
  t.AppendLeafHash(Leaf(0));
  MerkleInclusionProof proof;
  EXPECT_TRUE(t.InclusionProof(1, &proof).IsInvalidArgument());
}

// Property: consistency proofs hold between every pair of sizes.
TEST(MerkleTreeTest, ConsistencyProofPropertySweep) {
  MerkleTree t;
  std::vector<Hash256> roots = {Hash256::Of(Slice("", 0))};
  for (int i = 0; i < 70; i++) {
    t.AppendLeafHash(Leaf(i));
    roots.push_back(t.Root());
  }
  for (uint64_t old_size = 0; old_size <= 70; old_size += 3) {
    MerkleConsistencyProof proof;
    ASSERT_TRUE(t.ConsistencyProof(old_size, &proof).ok());
    EXPECT_TRUE(
        MerkleTree::VerifyConsistency(proof, roots[old_size], roots[70]))
        << "old_size=" << old_size;
  }
}

TEST(MerkleTreeTest, ConsistencyBetweenIntermediateSizes) {
  // Build two trees that share a prefix and check consistency via a
  // fresh tree truncated at the old size.
  MerkleTree t;
  for (int i = 0; i < 13; i++) t.AppendLeafHash(Leaf(i));
  Hash256 old_root = t.Root();
  for (int i = 13; i < 47; i++) t.AppendLeafHash(Leaf(i));
  MerkleConsistencyProof proof;
  ASSERT_TRUE(t.ConsistencyProof(13, &proof).ok());
  EXPECT_TRUE(MerkleTree::VerifyConsistency(proof, old_root, t.Root()));
}

TEST(MerkleTreeTest, ConsistencyWithForkedHistoryFails) {
  MerkleTree honest;
  for (int i = 0; i < 20; i++) honest.AppendLeafHash(Leaf(i));
  Hash256 old_root = honest.Root();
  for (int i = 20; i < 35; i++) honest.AppendLeafHash(Leaf(i));

  // A forked tree rewrites leaf 5 then extends to the same size.
  MerkleTree forked;
  for (int i = 0; i < 35; i++) {
    forked.AppendLeafHash(i == 5 ? Hash256::Of("evil") : Leaf(i));
  }
  MerkleConsistencyProof proof;
  ASSERT_TRUE(forked.ConsistencyProof(20, &proof).ok());
  EXPECT_FALSE(MerkleTree::VerifyConsistency(proof, old_root, forked.Root()));
}

TEST(MerkleTreeTest, ConsistencySameSizeRequiresSameRoot) {
  MerkleTree t;
  for (int i = 0; i < 8; i++) t.AppendLeafHash(Leaf(i));
  MerkleConsistencyProof proof;
  ASSERT_TRUE(t.ConsistencyProof(8, &proof).ok());
  EXPECT_TRUE(MerkleTree::VerifyConsistency(proof, t.Root(), t.Root()));
  EXPECT_FALSE(
      MerkleTree::VerifyConsistency(proof, Hash256::Of("x"), t.Root()));
}

TEST(MerkleTreeTest, LargestPowerOfTwoBelow) {
  EXPECT_EQ(LargestPowerOfTwoBelow(2), 1u);
  EXPECT_EQ(LargestPowerOfTwoBelow(3), 2u);
  EXPECT_EQ(LargestPowerOfTwoBelow(4), 2u);
  EXPECT_EQ(LargestPowerOfTwoBelow(5), 4u);
  EXPECT_EQ(LargestPowerOfTwoBelow(1024), 512u);
  EXPECT_EQ(LargestPowerOfTwoBelow(1025), 1024u);
}

// Randomized: proofs from random positions in random-size trees.
TEST(MerkleTreeTest, RandomizedInclusionSweep) {
  Random rng(77);
  for (int trial = 0; trial < 10; trial++) {
    MerkleTree t;
    int n = static_cast<int>(rng.Range(1, 500));
    for (int i = 0; i < n; i++) t.AppendLeafHash(Leaf(i));
    Hash256 root = t.Root();
    for (int k = 0; k < 20; k++) {
      uint64_t idx = rng.Uniform(n);
      MerkleInclusionProof proof;
      ASSERT_TRUE(t.InclusionProof(idx, &proof).ok());
      EXPECT_TRUE(MerkleTree::VerifyInclusion(Leaf(idx), proof, root));
    }
  }
}

}  // namespace
}  // namespace spitz
