// Parameterized property sweeps across configuration space: the
// invariants of DESIGN.md section 5 must hold for every tuning of the
// structures, not just the defaults.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "chunk/chunk_store.h"
#include "chunk/chunker.h"
#include "common/random.h"
#include "core/spitz_db.h"
#include "index/pos_tree.h"
#include "ledger/merkle_tree.h"

namespace spitz {
namespace {

// --- POS-tree invariants across split-pattern widths ------------------------

class PosTreeOptionsSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PosTreeOptionsSweep, StructuralInvarianceHolds) {
  PosTreeOptions options;
  options.leaf_pattern_bits = GetParam();
  options.meta_pattern_bits = GetParam();
  ChunkStore store;
  PosTree tree(&store, options);
  Random rng(GetParam());

  std::map<std::string, std::string> oracle;
  Hash256 root = PosTree::EmptyRoot();
  for (int i = 0; i < 1200; i++) {
    std::string key = "k" + std::to_string(rng.Uniform(250));
    if (rng.OneIn(4) && oracle.count(key)) {
      ASSERT_TRUE(tree.Delete(root, key, &root).ok());
      oracle.erase(key);
    } else {
      std::string value = rng.Bytes(10);
      ASSERT_TRUE(tree.Put(root, key, value, &root).ok());
      oracle[key] = value;
    }
  }
  std::vector<PosEntry> entries;
  for (const auto& [k, v] : oracle) entries.push_back({k, v});
  Hash256 rebuilt;
  ASSERT_TRUE(tree.Build(entries, &rebuilt).ok());
  EXPECT_EQ(root, rebuilt)
      << "invariance violated at pattern bits " << GetParam();

  // Every key still proves against the root under these options.
  int checked = 0;
  for (const auto& [k, v] : oracle) {
    if (checked++ > 40) break;
    std::string value;
    PosProof proof;
    ASSERT_TRUE(tree.Get(root, k, &value, &proof).ok());
    EXPECT_TRUE(PosTree::VerifyProof(root, k, value, proof).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(PatternBits, PosTreeOptionsSweep,
                         ::testing::Values(2u, 3u, 4u, 5u, 6u, 7u, 8u));

// With rare pattern boundaries and a tiny node cap, nearly every cut is
// a cap cut — the hardest path for the incremental re-chunking logic.
TEST(PosTreeCapDominatedTest, InvarianceUnderCapCuts) {
  PosTreeOptions options;
  options.leaf_pattern_bits = 10;  // boundaries ~1/1024: rare
  options.meta_pattern_bits = 10;
  options.max_node_elements = 4;   // caps dominate
  ChunkStore store;
  PosTree tree(&store, options);
  Random rng(7);
  std::map<std::string, std::string> oracle;
  Hash256 root = PosTree::EmptyRoot();
  for (int i = 0; i < 2000; i++) {
    std::string key = "k" + std::to_string(rng.Uniform(300));
    if (rng.OneIn(4) && oracle.count(key)) {
      ASSERT_TRUE(tree.Delete(root, key, &root).ok());
      oracle.erase(key);
    } else {
      std::string value = rng.Bytes(8);
      ASSERT_TRUE(tree.Put(root, key, value, &root).ok());
      oracle[key] = value;
    }
  }
  std::vector<PosEntry> entries;
  for (const auto& [k, v] : oracle) entries.push_back({k, v});
  Hash256 rebuilt;
  ASSERT_TRUE(tree.Build(entries, &rebuilt).ok());
  EXPECT_EQ(root, rebuilt);
  // Scans and proofs still correct under the pathological shape.
  std::vector<PosEntry> scan;
  ASSERT_TRUE(tree.Scan(root, "", "", 0, &scan, nullptr).ok());
  EXPECT_EQ(scan.size(), oracle.size());
}

// --- POS-tree with adversarial keys ------------------------------------------

class PosTreeHostileKeys
    : public ::testing::TestWithParam<std::pair<std::string, int>> {};

TEST_P(PosTreeHostileKeys, RoundTripsAndProves) {
  auto [mode, n] = GetParam();
  ChunkStore store;
  PosTree tree(&store);
  Random rng(99);
  std::map<std::string, std::string> oracle;
  Hash256 root = PosTree::EmptyRoot();
  for (int i = 0; i < n; i++) {
    std::string key;
    if (mode == "nul-bytes") {
      key = std::string(1, '\0') + std::to_string(i) + std::string(1, '\0');
    } else if (mode == "high-bytes") {
      key = std::string(2, '\xff') + std::to_string(i);
    } else if (mode == "long-keys") {
      key = std::string(500, 'a' + (i % 26)) + std::to_string(i);
    } else if (mode == "shared-prefix") {
      key = std::string(64, 'p') + std::to_string(i);
    } else {  // empty-ish
      key = i == 0 ? std::string() : std::string(i % 4, ' ') +
                                         std::to_string(i);
    }
    std::string value = rng.Bytes(20);
    ASSERT_TRUE(tree.Put(root, key, value, &root).ok());
    oracle[key] = value;
  }
  // Everything readable, provable, and scan-ordered.
  for (const auto& [k, v] : oracle) {
    std::string value;
    PosProof proof;
    ASSERT_TRUE(tree.Get(root, k, &value, &proof).ok());
    EXPECT_EQ(value, v);
    EXPECT_TRUE(PosTree::VerifyProof(root, k, value, proof).ok());
  }
  std::vector<PosEntry> scan;
  ASSERT_TRUE(tree.Scan(root, "", "", 0, &scan, nullptr).ok());
  ASSERT_EQ(scan.size(), oracle.size());
  auto oit = oracle.begin();
  for (const PosEntry& e : scan) {
    EXPECT_EQ(e.key, oit->first);
    ++oit;
  }
}

INSTANTIATE_TEST_SUITE_P(
    KeyShapes, PosTreeHostileKeys,
    ::testing::Values(std::pair<std::string, int>{"nul-bytes", 100},
                      std::pair<std::string, int>{"high-bytes", 100},
                      std::pair<std::string, int>{"long-keys", 60},
                      std::pair<std::string, int>{"shared-prefix", 150},
                      std::pair<std::string, int>{"empty-ish", 40}));

// --- Chunker bounds across options --------------------------------------------

struct ChunkerParams {
  size_t min_size;
  size_t max_size;
  uint32_t mask;
};

// The printed parameter becomes the ctest name ("…/min64_max1024_mask3f").
// Without this gtest prints the struct's raw bytes, padding included,
// so the name would change from build to build.
void PrintTo(const ChunkerParams& p, std::ostream* os) {
  *os << "min" << p.min_size << "_max" << p.max_size << "_mask" << std::hex
      << p.mask << std::dec;
}

class ChunkerOptionsSweep : public ::testing::TestWithParam<ChunkerParams> {};

TEST_P(ChunkerOptionsSweep, CoverageAndBounds) {
  ChunkerOptions options;
  options.min_size = GetParam().min_size;
  options.max_size = GetParam().max_size;
  options.mask = GetParam().mask;
  Random rng(GetParam().mask);
  for (size_t input_size : {size_t(0), size_t(1), options.min_size,
                            options.max_size, size_t(100000)}) {
    std::string data = rng.Bytes(input_size);
    auto extents = ChunkData(data, options);
    size_t pos = 0;
    for (size_t i = 0; i < extents.size(); i++) {
      EXPECT_EQ(extents[i].offset, pos);
      if (i + 1 < extents.size()) {
        EXPECT_GE(extents[i].length, options.min_size);
        EXPECT_LE(extents[i].length, options.max_size);
      }
      pos += extents[i].length;
    }
    EXPECT_EQ(pos, data.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Options, ChunkerOptionsSweep,
    ::testing::Values(ChunkerParams{64, 1024, 0x3f},
                      ChunkerParams{512, 8192, 0x3ff},
                      ChunkerParams{1024, 4096, 0xff},
                      ChunkerParams{16, 64, 0x0f}));

// --- Merkle tree proofs across sizes -------------------------------------------

class MerkleSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(MerkleSizeSweep, AllLeavesProveAndConsistencyHolds) {
  const int n = GetParam();
  MerkleTree tree;
  std::vector<Hash256> roots;
  for (int i = 0; i < n; i++) {
    tree.AppendLeafHash(Hash256::OfLeaf("leaf" + std::to_string(i)));
    roots.push_back(tree.Root());
  }
  Hash256 final_root = tree.Root();
  for (int i = 0; i < n; i += (n > 64 ? 13 : 1)) {
    MerkleInclusionProof proof;
    ASSERT_TRUE(tree.InclusionProof(i, &proof).ok());
    EXPECT_TRUE(MerkleTree::VerifyInclusion(
        Hash256::OfLeaf("leaf" + std::to_string(i)), proof, final_root));
  }
  for (int old_size = 1; old_size < n; old_size += (n > 64 ? 17 : 1)) {
    MerkleConsistencyProof proof;
    ASSERT_TRUE(tree.ConsistencyProof(old_size, &proof).ok());
    EXPECT_TRUE(MerkleTree::VerifyConsistency(proof, roots[old_size - 1],
                                              final_root));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleSizeSweep,
                         ::testing::Values(1, 2, 3, 7, 8, 9, 63, 64, 65,
                                           255, 257));

// --- SpitzDb block-size sweep: proofs hold regardless of sealing cadence -------

class SpitzBlockSizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(SpitzBlockSizeSweep, DigestsProofsAndConsistency) {
  SpitzOptions options;
  options.block_size = GetParam();
  SpitzDb db(options);
  SpitzDigest first;
  for (int i = 0; i < 150; i++) {
    ASSERT_TRUE(
        db.Put("k" + std::to_string(i), "v" + std::to_string(i)).ok());
    if (i == 60) first = db.Digest();
  }
  db.FlushBlock();
  SpitzDigest last = db.Digest();
  EXPECT_EQ(last.journal.entry_count, 150u);

  std::string value;
  ReadProof proof;
  ASSERT_TRUE(db.Read(kCurrentVersion, "k99", &value, &proof).ok());
  EXPECT_TRUE(SpitzDb::VerifyRead(last, "k99", value, proof).ok());

  MerkleConsistencyProof consistency;
  ASSERT_TRUE(db.ledger()->ProveConsistency(first.journal, &consistency).ok());
  EXPECT_TRUE(Journal::VerifyConsistency(consistency, first.journal,
                                         last.journal));
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, SpitzBlockSizeSweep,
                         ::testing::Values(1u, 2u, 7u, 64u, 1000u));

}  // namespace
}  // namespace spitz
