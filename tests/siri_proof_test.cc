// Wire-format tests for the SiriProof / SiriRangeProof envelopes: every
// backend's proof must survive an encode -> decode round trip and fail
// verification under any single-byte tampering or truncation of the
// encoded bytes.

#include <gtest/gtest.h>

#include <cstdio>

#include "chunk/chunk_store.h"
#include "common/codec.h"
#include "core/spitz_db.h"
#include "index/siri.h"

namespace spitz {
namespace {

constexpr SiriBackend kAllBackends[] = {SiriBackend::kPosTree,
                                        SiriBackend::kMerklePatriciaTrie,
                                        SiriBackend::kMerkleBucketTree};

// A populated index of the requested backend plus one proof per probe.
struct Fixture {
  ChunkStore store;
  std::unique_ptr<SiriIndex> index;
  Hash256 root;
  std::vector<PosEntry> entries;

  explicit Fixture(SiriBackend kind, size_t n = 200) {
    SiriIndexOptions options;
    options.mbt_bucket_count = 16;  // small so buckets hold several keys
    index = MakeSiriIndex(kind, &store, options);
    root = index->EmptyRoot();
    for (size_t i = 0; i < n; i++) {
      char key[32], value[32];
      snprintf(key, sizeof(key), "key%05zu", i);
      snprintf(value, sizeof(value), "value%05zu", i);
      entries.push_back(PosEntry{key, value});
      EXPECT_TRUE(index->Apply(root, {{PosEntry{key, value}}, {}}, &root).ok());
    }
  }
};

class SiriProofTest : public ::testing::TestWithParam<SiriBackend> {};

TEST_P(SiriProofTest, MembershipProofRoundTrips) {
  Fixture f(GetParam());
  for (const char* key : {"key00000", "key00099", "key00199"}) {
    std::string value;
    SiriProof proof;
    ASSERT_TRUE(f.index->Get(f.root, key, &value, &proof).ok());
    EXPECT_EQ(proof.kind, GetParam());
    EXPECT_TRUE(proof.Verify(f.root, key, value).ok());

    std::string wire = proof.Encode();
    EXPECT_GT(wire.size(), 1u);
    SiriProof decoded;
    Slice input(wire);
    ASSERT_TRUE(SiriProof::DecodeFrom(&input, &decoded).ok());
    EXPECT_TRUE(input.empty()) << "decoder left trailing bytes";
    EXPECT_EQ(decoded.kind, proof.kind);
    EXPECT_TRUE(decoded.Verify(f.root, key, value).ok());
    // The decoded envelope re-encodes to the identical bytes.
    EXPECT_EQ(decoded.Encode(), wire);
  }
}

TEST_P(SiriProofTest, NonMembershipProofRoundTrips) {
  Fixture f(GetParam());
  std::string value;
  SiriProof proof;
  Status s = f.index->Get(f.root, "missing-key", &value, &proof);
  ASSERT_TRUE(s.IsNotFound()) << s.ToString();
  ASSERT_TRUE(proof.Verify(f.root, "missing-key", std::nullopt).ok());

  std::string wire = proof.Encode();
  SiriProof decoded;
  Slice input(wire);
  ASSERT_TRUE(SiriProof::DecodeFrom(&input, &decoded).ok());
  EXPECT_TRUE(decoded.Verify(f.root, "missing-key", std::nullopt).ok());
  // The same proof cannot show membership.
  EXPECT_FALSE(decoded.Verify(f.root, "missing-key", std::string("v")).ok());
}

// Byte-level tamper fuzzing: for every position in the encoded proof,
// each of several bit flips must make decode or verification fail —
// never let a modified envelope verify for the original statement.
TEST_P(SiriProofTest, EverySingleByteTamperIsRejected) {
  Fixture f(GetParam());
  const std::string key = "key00042";
  std::string value;
  SiriProof proof;
  ASSERT_TRUE(f.index->Get(f.root, key, &value, &proof).ok());
  const std::string wire = proof.Encode();

  for (size_t pos = 0; pos < wire.size(); pos++) {
    for (uint8_t flip : {0x01, 0x80, 0xff}) {
      std::string tampered = wire;
      tampered[pos] = static_cast<char>(
          static_cast<uint8_t>(tampered[pos]) ^ flip);
      SiriProof decoded;
      Slice input(tampered);
      Status s = SiriProof::DecodeFrom(&input, &decoded);
      if (!s.ok()) continue;  // rejected at the codec layer: fine
      // A decodable tampered envelope must fail verification. (A flip
      // that leaves trailing garbage but decodes a valid prefix is
      // caught here too, because the proof content then differs.)
      if (input.empty()) {
        EXPECT_FALSE(decoded.Verify(f.root, key, value).ok())
            << "flip 0x" << std::hex << int(flip) << " at byte " << std::dec
            << pos << " verified";
      }
    }
  }
}

TEST_P(SiriProofTest, EveryTruncationIsRejected) {
  Fixture f(GetParam());
  const std::string key = "key00007";
  std::string value;
  SiriProof proof;
  ASSERT_TRUE(f.index->Get(f.root, key, &value, &proof).ok());
  const std::string wire = proof.Encode();

  for (size_t len = 0; len < wire.size(); len++) {
    std::string truncated = wire.substr(0, len);
    SiriProof decoded;
    Slice input(truncated);
    Status s = SiriProof::DecodeFrom(&input, &decoded);
    if (!s.ok()) continue;
    // A truncated prefix that still decodes (e.g. fewer proof nodes
    // than the original) must not verify.
    EXPECT_FALSE(decoded.Verify(f.root, key, value).ok())
        << "truncation to " << len << " bytes verified";
  }
}

// Re-tagging an envelope as a different backend must never verify: the
// chunk ids commit to the chunk type byte, so a proof body presented
// under the wrong kind fails the hash checks of that kind's verifier.
TEST_P(SiriProofTest, KindSwapIsRejected) {
  Fixture f(GetParam());
  const std::string key = "key00011";
  std::string value;
  SiriProof proof;
  ASSERT_TRUE(f.index->Get(f.root, key, &value, &proof).ok());
  std::string wire = proof.Encode();

  for (SiriBackend other : kAllBackends) {
    if (other == GetParam()) continue;
    std::string retagged = wire;
    retagged[0] = static_cast<char>(other);
    SiriProof decoded;
    Slice input(retagged);
    Status s = SiriProof::DecodeFrom(&input, &decoded);
    if (!s.ok() || !input.empty()) continue;
    EXPECT_FALSE(decoded.Verify(f.root, key, value).ok())
        << SiriBackendName(GetParam()) << " proof verified as "
        << SiriBackendName(other);
  }
}

TEST_P(SiriProofTest, EmptyAndUnknownTagEnvelopesRejected) {
  SiriProof decoded;
  Slice empty("");
  EXPECT_FALSE(SiriProof::DecodeFrom(&empty, &decoded).ok());

  std::string bad_tag = "\x07";
  Slice input(bad_tag);
  EXPECT_FALSE(SiriProof::DecodeFrom(&input, &decoded).ok());

  // A default-constructed proof never verifies against a real root.
  Fixture f(GetParam());
  SiriProof blank;
  blank.kind = GetParam();
  EXPECT_FALSE(blank.Verify(f.root, "key00000", std::nullopt).ok());
}

// EncodedSize sizes a reply buffer exactly, so it must equal what
// EncodeTo appends, for present and absent keys on every backend.
TEST_P(SiriProofTest, EncodedSizeIsExact) {
  Fixture f(GetParam());
  for (const char* key : {"key00000", "key00123", "absent"}) {
    std::string value;
    SiriProof proof;
    Status s = f.index->Get(f.root, key, &value, &proof);
    ASSERT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
    EXPECT_EQ(proof.EncodedSize(), proof.Encode().size()) << key;
  }
  if (GetParam() == SiriBackend::kPosTree) {
    std::vector<PosEntry> rows;
    SiriRangeProof range;
    ASSERT_TRUE(
        f.index->Scan(f.root, "key00010", "key00150", 0, &rows, &range).ok());
    EXPECT_EQ(range.EncodedSize(), range.Encode().size());
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SiriProofTest,
                         ::testing::ValuesIn(kAllBackends),
                         [](const auto& info) {
                           std::string name = SiriBackendName(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// --- Range proofs (POS-tree only) -------------------------------------------

TEST(SiriRangeProofTest, RoundTripsAndVerifies) {
  Fixture f(SiriBackend::kPosTree);
  std::vector<PosEntry> rows;
  SiriRangeProof proof;
  ASSERT_TRUE(f.index
                  ->Scan(f.root, "key00010", "key00020", 0, &rows,
                         &proof)
                  .ok());
  EXPECT_EQ(rows.size(), 10u);
  ASSERT_TRUE(proof.Verify(f.root, "key00010", "key00020", 0, rows).ok());

  std::string wire = proof.Encode();
  SiriRangeProof decoded;
  Slice input(wire);
  ASSERT_TRUE(SiriRangeProof::DecodeFrom(&input, &decoded).ok());
  EXPECT_TRUE(input.empty());
  EXPECT_TRUE(decoded.Verify(f.root, "key00010", "key00020", 0, rows).ok());

  // A dropped row must be detected by the decoded proof.
  std::vector<PosEntry> short_rows(rows.begin(), rows.end() - 1);
  EXPECT_FALSE(
      decoded.Verify(f.root, "key00010", "key00020", 0, short_rows).ok());
}

TEST(SiriRangeProofTest, TamperedBytesRejected) {
  Fixture f(SiriBackend::kPosTree);
  std::vector<PosEntry> rows;
  SiriRangeProof proof;
  ASSERT_TRUE(f.index
                  ->Scan(f.root, "key00100", "key00110", 0, &rows,
                         &proof)
                  .ok());
  const std::string wire = proof.Encode();
  for (size_t pos = 0; pos < wire.size(); pos++) {
    std::string tampered = wire;
    tampered[pos] = static_cast<char>(
        static_cast<uint8_t>(tampered[pos]) ^ 0x01);
    SiriRangeProof decoded;
    Slice input(tampered);
    Status s = SiriRangeProof::DecodeFrom(&input, &decoded);
    if (!s.ok() || !input.empty()) continue;
    EXPECT_FALSE(decoded.Verify(f.root, "key00100", "key00110", 0, rows).ok())
        << "flip at byte " << pos << " verified";
  }
}

// A range proof has one byte form: its nodes in strictly ascending id
// order, as the encoder writes them. A list that repeats a node or puts
// two out of order is rejected before anything is verified.
TEST(SiriRangeProofTest, NodesOutOfIdOrderOrRepeatedAreCorruption) {
  Fixture f(SiriBackend::kPosTree, 2000);
  std::vector<PosEntry> rows;
  SiriRangeProof proof;
  ASSERT_TRUE(f.index
                  ->Scan(f.root, "key00100", "key01500", 0, &rows, &proof)
                  .ok());
  const auto& nodes = proof.pos.nodes;
  ASSERT_GE(nodes.size(), 3u);
  const auto encode = [](const std::vector<size_t>& order,
                         const SiriRangeProof& from) {
    std::string wire(1, static_cast<char>(SiriBackend::kPosTree));
    PutVarint64(&wire, order.size());
    for (size_t i : order) {
      const auto& [id, node] = from.pos.nodes[i];
      wire.append(id.ToBytes());
      wire.push_back(static_cast<char>(node.type));
      PutLengthPrefixedSlice(&wire, node.payload);
    }
    return wire;
  };
  std::vector<size_t> in_order(nodes.size());
  for (size_t i = 0; i < nodes.size(); i++) in_order[i] = i;
  ASSERT_EQ(encode(in_order, proof), proof.Encode());

  std::vector<size_t> swapped = in_order;
  std::swap(swapped[0], swapped[1]);
  std::vector<size_t> repeated = in_order;
  repeated.insert(repeated.begin() + 1, 0);
  for (const auto& order : {swapped, repeated}) {
    const std::string wire = encode(order, proof);
    Slice input(wire);
    SiriRangeProof decoded;
    EXPECT_TRUE(SiriRangeProof::DecodeFrom(&input, &decoded).IsCorruption());
  }
}

TEST(SiriRangeProofTest, NonPosTagRejectedAtDecode) {
  std::string wire;
  wire.push_back(static_cast<char>(SiriBackend::kMerkleBucketTree));
  wire.push_back('\0');
  SiriRangeProof decoded;
  Slice input(wire);
  EXPECT_FALSE(SiriRangeProof::DecodeFrom(&input, &decoded).ok());
}

// --- Entry counts from untrusted bytes ---------------------------------------

// A node whose entry count no payload of its size could hold, correctly
// hashed and linked, so only the decoder stands between the count and
// an allocation. `path` runs from the root to the node the key reaches.
struct CraftedPath {
  const char* name;
  std::vector<std::pair<ChunkType, std::string>> path;
};

std::vector<CraftedPath> HugeCountPaths() {
  std::string huge_leaf;
  PutVarint64(&huge_leaf, uint64_t{1} << 40);
  std::string huge_meta;
  PutVarint64(&huge_meta, ~uint64_t{0});
  // A well-formed meta whose one child is the crafted leaf.
  std::string parent;
  PutVarint64(&parent, 1);
  PutLengthPrefixedSlice(&parent, "zzz");
  parent.append(Chunk(ChunkType::kIndexLeaf, huge_leaf).id().ToBytes());
  PutVarint64(&parent, 1);
  return {
      {"leaf", {{ChunkType::kIndexMeta, parent},
                {ChunkType::kIndexLeaf, huge_leaf}}},
      {"meta", {{ChunkType::kIndexMeta, huge_meta}}},
  };
}

TEST(SiriProofDecodeTest, HugeEntryCountIsRejectedWithoutThrowing) {
  for (const CraftedPath& crafted : HugeCountPaths()) {
    SCOPED_TRACE(crafted.name);
    const Hash256 root =
        Chunk(crafted.path[0].first, crafted.path[0].second).id();
    SiriProof proof;
    SiriRangeProof range;
    ChunkStore store;
    for (const auto& [type, payload] : crafted.path) {
      const ProofNode node{static_cast<uint8_t>(type), payload, nullptr};
      proof.pos.nodes.push_back(node);
      range.pos.Add(store.Put(Chunk(type, payload)), node);
    }

    EXPECT_TRUE(VerifyPosProof(root, "key", std::nullopt, proof.pos)
                    .IsVerificationFailed());
    EXPECT_TRUE(VerifyPosProof(root, "key", std::string("v"), proof.pos)
                    .IsVerificationFailed());
    EXPECT_TRUE(VerifyPosRangeProof(root, "", "", 0, {}, range.pos)
                    .IsVerificationFailed());

    // The same bytes through the wire envelopes a client decodes.
    const std::string wire = proof.Encode();
    Slice input(wire);
    SiriProof decoded;
    ASSERT_TRUE(SiriProof::DecodeFrom(&input, &decoded).ok());
    EXPECT_TRUE(decoded.Verify(root, "key", std::nullopt).IsVerificationFailed());
    const std::string range_wire = range.Encode();
    Slice range_input(range_wire);
    SiriRangeProof range_decoded;
    ASSERT_TRUE(SiriRangeProof::DecodeFrom(&range_input, &range_decoded).ok());
    EXPECT_TRUE(range_decoded.Verify(root, "", "", 0, {}).IsVerificationFailed());

    // A server holding such a chunk reports it as damaged.
    PosTree tree(&store);
    std::string value;
    EXPECT_TRUE(tree.Get(root, "key", &value, nullptr).IsCorruption());
    std::vector<PosEntry> rows;
    EXPECT_TRUE(tree.Scan(root, "", "", 0, &rows, nullptr).IsCorruption());
  }
}

// Format pin: the encoded proofs a database serves for a fixed bulk load,
// hashed. A point proof for a present and an absent key on every backend,
// and POS-tree range proofs for a mid-range scan and for one that starts
// past the last key. Any change to a read traversal that alters the
// proof bytes clients receive fails here.
TEST(SiriProofGoldenTest, ServedProofBytesMatchGolden) {
  struct Golden {
    SiriBackend kind;
    const char* present;
    const char* absent;
  };
  const Golden kGolden[] = {
      {SiriBackend::kPosTree,
       "da8c881c60745abf252fec0997e3237644ad2f4a130025bc49d9d7bfbf5e6c7c",
       "6e6c51303addbe72e92fccaf1981383448252c4d74a89e76771e8fcabe4396e9"},
      {SiriBackend::kMerklePatriciaTrie,
       "a61810e7ad2c4233ec398fbdeeb51a01323cd16175f2769698f8ccdc372eae75",
       "d7054af36568f2351a4d6692fcd5f6c8bac9f7c71048046e9849a8a90b8630ec"},
      {SiriBackend::kMerkleBucketTree,
       "9060c328fd21b7eae0c6e5ded43215b87d4149fdaa7ae32bc0ec62cbf8f4bb54",
       "c09019674ca995b82f94122411f993253d990f34844031996c00405be707c84d"},
  };
  const char kGoldenMidScan[] =
      "6053af0d85d47a6cf5ea7a1437f052f7b1cd709f6709dbeb5b833d1d133e728d";
  const char kGoldenPastEndScan[] =
      "d3f4e7cdd749cea628e546d11ca7f5552dac738787a2999f9698129db27e91bc";

  std::vector<PosEntry> entries;
  for (int i = 0; i < 2000; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "user%06d", i);
    entries.push_back({key, std::string(1 + i % 97, static_cast<char>(
                                                        'a' + i % 26))});
  }
  for (const Golden& golden : kGolden) {
    SpitzOptions options;
    options.index_backend = golden.kind;
    options.mbt_bucket_count = 16;
    SpitzDb db(options);
    ASSERT_TRUE(db.BulkLoad(entries).ok());

    VerifiedKv::Evidence present;
    ASSERT_TRUE(db.GetProof("user000123", &present).ok());
    EXPECT_EQ(Hash256::Of(present.proof).ToHex(), golden.present)
        << SiriBackendName(golden.kind);
    VerifiedKv::Evidence absent;
    ASSERT_TRUE(db.GetProof("absent-key", &absent).IsNotFound());
    EXPECT_EQ(Hash256::Of(absent.proof).ToHex(), golden.absent)
        << SiriBackendName(golden.kind);
    if (golden.kind != SiriBackend::kPosTree) continue;

    VerifiedKv::ScanEvidence mid;
    ASSERT_TRUE(db.ScanProof("user000900", "user001400", 100, &mid).ok());
    EXPECT_EQ(mid.rows.size(), 100u);
    EXPECT_EQ(Hash256::Of(mid.proof).ToHex(), kGoldenMidScan);
    VerifiedKv::ScanEvidence past_end;
    ASSERT_TRUE(db.ScanProof("zzz", "", 0, &past_end).ok());
    EXPECT_TRUE(past_end.rows.empty());
    EXPECT_EQ(Hash256::Of(past_end.proof).ToHex(), kGoldenPastEndScan);
  }
}

// The adapters must expose the advertised capability surface.
TEST(SiriIndexTest, CapabilityFlagsMatchBackends) {
  ChunkStore store;
  for (SiriBackend kind : kAllBackends) {
    auto index = MakeSiriIndex(kind, &store);
    EXPECT_EQ(index->kind(), kind);
    bool is_pos = kind == SiriBackend::kPosTree;
    EXPECT_EQ(index->SupportsScan(), is_pos);
    if (!index->SupportsScan()) {
      Fixture f(kind, 10);
      std::vector<PosEntry> rows;
      EXPECT_TRUE(
          f.index->Scan(f.root, "a", "z", 0, &rows, nullptr).IsNotSupported());
      SiriRangeProof proof;
      EXPECT_TRUE(f.index->Scan(f.root, "a", "z", 0, &rows, &proof)
                      .IsNotSupported());
    }
  }
}

// Build (native for POS, Put-loop default for the others) must agree
// with incremental insertion on the final root.
TEST(SiriIndexTest, BuildAgreesWithIncrementalPuts) {
  for (SiriBackend kind : kAllBackends) {
    Fixture f(kind, 64);
    ChunkStore store2;
    SiriIndexOptions options;
    options.mbt_bucket_count = 16;
    auto index2 = MakeSiriIndex(kind, &store2, options);
    Hash256 built;
    ASSERT_TRUE(index2->Build(f.entries, &built).ok());
    EXPECT_EQ(built, f.root) << SiriBackendName(kind);
  }
}

}  // namespace
}  // namespace spitz
