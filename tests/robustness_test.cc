// Failure-injection and adversarial-input tests: every deserializer in
// the system is fed random garbage and bit-flipped valid encodings. The
// requirement is graceful failure (error Status / verification failure),
// never a crash or an accepted forgery. These inputs model exactly what
// a malicious server or corrupted storage could hand a verifier.

#include <gtest/gtest.h>

#include <string>

#include "common/codec.h"
#include "common/random.h"
#include "core/json.h"
#include "core/spitz_db.h"
#include "core/table.h"
#include "index/pos_tree.h"
#include "proof/block.h"
#include "proof/merkle_tree.h"
#include "txn/write_batch.h"

namespace spitz {
namespace {

constexpr int kTrials = 300;

// Random byte strings, including empty and long ones.
std::string RandomGarbage(Random* rng) {
  size_t len = rng->OneIn(10) ? 0 : rng->Uniform(200);
  std::string out = rng->Bytes(len);
  // Bias toward "interesting" leading bytes (type tags, big varints).
  if (!out.empty() && rng->OneIn(2)) {
    out[0] = static_cast<char>(rng->Uniform(256));
  }
  return out;
}

TEST(RobustnessTest, CodecPrimitivesNeverCrash) {
  Random rng(101);
  for (int i = 0; i < kTrials; i++) {
    std::string garbage = RandomGarbage(&rng);
    Slice in1(garbage);
    uint32_t v32;
    (void)GetVarint32(&in1, &v32);
    Slice in2(garbage);
    uint64_t v64;
    (void)GetVarint64(&in2, &v64);
    Slice in3(garbage);
    Slice out;
    (void)GetLengthPrefixedSlice(&in3, &out);
    Slice in4(garbage);
    (void)GetFixed32(&in4, &v32);
    Slice in5(garbage);
    (void)GetFixed64(&in5, &v64);
  }
}

TEST(RobustnessTest, LedgerEntryDecoderNeverCrashes) {
  Random rng(102);
  LedgerEntry prev;
  prev.key = "user000042";
  prev.commit_ts = 1000;
  for (int i = 0; i < kTrials; i++) {
    std::string garbage = RandomGarbage(&rng);
    Slice in(garbage);
    LedgerEntry entry;
    (void)LedgerEntry::DecodeFrom(&in, prev, &entry);
  }
}

TEST(RobustnessTest, BlockDecoderNeverCrashes) {
  Random rng(103);
  for (int i = 0; i < kTrials; i++) {
    Block block;
    (void)Block::Decode(RandomGarbage(&rng), &block);
  }
}

TEST(RobustnessTest, BlockDecoderRejectsBitFlips) {
  Random rng(104);
  LedgerEntry e;
  e.key = "key";
  e.value_hash = Hash256::Of("v");
  Block block(3, 7, Hash256::Of("prev"), {e, e}, Hash256::Of("idx"), 42);
  std::string valid = block.Encode();
  int decoded_differently = 0;
  for (int i = 0; i < kTrials; i++) {
    std::string mutated = valid;
    mutated[rng.Uniform(mutated.size())] ^=
        static_cast<char>(1 << rng.Uniform(8));
    Block out;
    Status s = Block::Decode(mutated, &out);
    // Either the decode fails, or it succeeds with a DIFFERENT block
    // hash — a flipped bit must never yield the original identity.
    if (s.ok() && out.block_hash() == block.block_hash()) {
      decoded_differently++;
    }
  }
  EXPECT_EQ(decoded_differently, 0);
}

// The catalog decoder reads c/<name> values back from the ledger: random
// bytes and every truncation of a valid entry are rejected.
TEST(RobustnessTest, CatalogDecoderRejectsGarbageAndTruncations) {
  Random rng(106);
  uint32_t id = 0;
  TableSchema schema;
  for (int i = 0; i < kTrials; i++) {
    EXPECT_FALSE(DecodeCatalogEntry(RandomGarbage(&rng), &id, &schema).ok());
  }
  TableSchema valid;
  valid.name = "orders";
  valid.primary_key_column = "order_id";
  valid.columns = {{"order_id", ColumnSpec::Type::kString, false},
                   {"amount", ColumnSpec::Type::kNumeric, true}};
  const std::string entry = EncodeCatalogEntry(7, valid);
  ASSERT_TRUE(DecodeCatalogEntry(entry, &id, &schema).ok());
  EXPECT_EQ(id, 7u);
  EXPECT_EQ(schema.primary_key_column, "order_id");
  ASSERT_EQ(schema.columns.size(), 2u);
  EXPECT_EQ(schema.columns[1].type, ColumnSpec::Type::kNumeric);
  EXPECT_TRUE(schema.columns[1].inverted_indexed);
  for (size_t len = 0; len < entry.size(); len++) {
    EXPECT_TRUE(DecodeCatalogEntry(Slice(entry.data(), len), &id, &schema)
                    .IsCorruption())
        << len;
  }
}

TEST(RobustnessTest, WriteBatchDecoderNeverCrashes) {
  Random rng(107);
  for (int i = 0; i < kTrials; i++) {
    WriteBatch batch;
    (void)WriteBatch::Decode(RandomGarbage(&rng), &batch);
  }
}

TEST(RobustnessTest, JsonParserNeverCrashes) {
  Random rng(108);
  for (int i = 0; i < kTrials; i++) {
    JsonValue v;
    (void)JsonValue::Parse(RandomGarbage(&rng), &v);
  }
  // Structured-ish garbage too.
  const char* nasty[] = {
      "{{{{", "[[[[", "{\"a\":", "\"\\u12", "1e99999999", "-",
      "{\"a\"\"b\"}", "[1,,2]", "nul", "{\"k\": }", "\"\\", "[}",
  };
  for (const char* s : nasty) {
    JsonValue v;
    EXPECT_FALSE(JsonValue::Parse(s, &v).ok()) << s;
  }
}

TEST(RobustnessTest, PosProofVerifierRejectsGarbagePayloads) {
  Random rng(109);
  ChunkStore store;
  PosTree tree(&store);
  std::vector<PosEntry> entries;
  for (int i = 0; i < 500; i++) {
    entries.push_back({"key" + std::to_string(i), "v"});
  }
  Hash256 root;
  ASSERT_TRUE(tree.Build(entries, &root).ok());
  std::string value;
  PosProof valid;
  ASSERT_TRUE(tree.Get(root, "key250", &value, &valid).ok());

  for (int i = 0; i < kTrials; i++) {
    PosProof mutated = valid;
    int what = static_cast<int>(rng.Uniform(4));
    ProofNode& node = mutated.nodes[rng.Uniform(mutated.nodes.size())];
    if (what == 0) {
      // Bit-flip a payload byte.
      std::string payload = node.payload.ToString();
      if (!payload.empty()) {
        payload[rng.Uniform(payload.size())] ^=
            static_cast<char>(1 << rng.Uniform(8));
      }
      node = OwnedProofNode(node.type, payload);
    } else if (what == 1) {
      // Replace a payload wholesale with garbage.
      node = OwnedProofNode(node.type, RandomGarbage(&rng));
    } else if (what == 2 && mutated.nodes.size() > 1) {
      // Drop a level.
      mutated.nodes.erase(mutated.nodes.begin() +
                          rng.Uniform(mutated.nodes.size()));
    } else {
      // Scramble a node type.
      node.type = static_cast<uint8_t>(rng.Uniform(256));
    }
    Status s = VerifyPosProof(root, "key250", value, mutated);
    EXPECT_FALSE(s.ok()) << "mutated proof accepted at trial " << i;
  }
}

TEST(RobustnessTest, ScanProofVerifierRejectsMutations) {
  Random rng(110);
  ChunkStore store;
  PosTree tree(&store);
  std::vector<PosEntry> entries;
  for (int i = 0; i < 1000; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%06d", i);
    entries.push_back({key, "v" + std::to_string(i)});
  }
  Hash256 root;
  ASSERT_TRUE(tree.Build(entries, &root).ok());
  std::vector<PosEntry> rows;
  PosRangeProof valid;
  ASSERT_TRUE(
      tree.Scan(root, "k000100", "k000150", 0, &rows, &valid).ok());

  for (int i = 0; i < 100; i++) {
    PosRangeProof mutated = valid;
    // Corrupt one random node payload in the proof.
    ProofNode& node =
        mutated.nodes[rng.Uniform(mutated.nodes.size())].second;
    std::string payload = node.payload.ToString();
    if (payload.empty()) continue;
    payload[rng.Uniform(payload.size())] ^=
        static_cast<char>(1 << rng.Uniform(8));
    node = OwnedProofNode(node.type, payload);
    EXPECT_FALSE(VerifyPosRangeProof(root, "k000100", "k000150", 0,
                                     rows, mutated)
                     .ok());
  }
}

TEST(RobustnessTest, EmptyProofStructuresRejected) {
  PosProof empty;
  EXPECT_FALSE(VerifyPosProof(Hash256::Of("x"), "k", std::nullopt,
                              empty)
                   .ok());
  // The zero root is the provably-empty tree: it vouches for absence
  // with no proof nodes at all (a never-written cluster shard answers
  // verified reads this way) but can never vouch for a value.
  SpitzDigest digest;
  ReadProof rp;
  EXPECT_TRUE(VerifyRead(digest, "k", std::nullopt, rp).ok());
  EXPECT_FALSE(
      VerifyRead(digest, "k", std::string("forged"), rp).ok());
  // Any non-empty root still rejects an empty proof outright.
  digest.index_root = Hash256::Of("x");
  rp.index_root = digest.index_root;
  EXPECT_FALSE(VerifyRead(digest, "k", std::nullopt, rp).ok());
}

}  // namespace
}  // namespace spitz
