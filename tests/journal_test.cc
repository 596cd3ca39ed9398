#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/env.h"
#include "common/random.h"
#include "common/record_frame.h"
#include "ledger/block.h"
#include "ledger/journal.h"

namespace spitz {
namespace {

LedgerEntry MakeEntry(const std::string& key, const std::string& value,
                      uint64_t txn = 1, uint64_t ts = 100) {
  LedgerEntry e;
  e.op = LedgerEntry::Op::kPut;
  e.key = key;
  e.value_hash = Hash256::Of(value);
  e.txn_id = txn;
  e.commit_ts = ts;
  return e;
}

// --- LedgerEntry -------------------------------------------------------------

TEST(LedgerEntryTest, EncodeDecodeRoundTrip) {
  LedgerEntry e = MakeEntry("key1", "value1", 42, 777);
  std::string buf;
  e.EncodeTo(&buf);
  Slice in(buf);
  LedgerEntry out;
  ASSERT_TRUE(LedgerEntry::DecodeFrom(&in, &out).ok());
  EXPECT_EQ(out, e);
  EXPECT_TRUE(in.empty());
}

TEST(LedgerEntryTest, DeleteOpRoundTrip) {
  LedgerEntry e = MakeEntry("k", "v");
  e.op = LedgerEntry::Op::kDelete;
  std::string buf;
  e.EncodeTo(&buf);
  Slice in(buf);
  LedgerEntry out;
  ASSERT_TRUE(LedgerEntry::DecodeFrom(&in, &out).ok());
  EXPECT_EQ(out.op, LedgerEntry::Op::kDelete);
}

TEST(LedgerEntryTest, LeafHashDiffersByField) {
  LedgerEntry a = MakeEntry("k", "v");
  LedgerEntry b = MakeEntry("k", "w");
  LedgerEntry c = MakeEntry("l", "v");
  EXPECT_NE(a.LeafHash(), b.LeafHash());
  EXPECT_NE(a.LeafHash(), c.LeafHash());
}

TEST(LedgerEntryTest, DecodeTruncatedFails) {
  LedgerEntry e = MakeEntry("key1", "value1");
  std::string buf;
  e.EncodeTo(&buf);
  buf.resize(buf.size() / 2);
  Slice in(buf);
  LedgerEntry out;
  EXPECT_FALSE(LedgerEntry::DecodeFrom(&in, &out).ok());
}

// --- Block --------------------------------------------------------------------

TEST(BlockTest, EncodeDecodePreservesHash) {
  std::vector<LedgerEntry> entries = {MakeEntry("a", "1"),
                                      MakeEntry("b", "2")};
  Block block(3, 10, Hash256::Of("prev"), entries, Hash256::Of("idx"), 999);
  std::string encoded = block.Encode();
  Block decoded;
  ASSERT_TRUE(Block::Decode(encoded, &decoded).ok());
  EXPECT_EQ(decoded.height(), 3u);
  EXPECT_EQ(decoded.first_seq(), 10u);
  EXPECT_EQ(decoded.block_hash(), block.block_hash());
  EXPECT_EQ(decoded.entries().size(), 2u);
  EXPECT_EQ(decoded.entries_root(), block.entries_root());
}

TEST(BlockTest, HashCoversEveryHeaderField) {
  std::vector<LedgerEntry> entries = {MakeEntry("a", "1")};
  Block base(1, 0, Hash256::Of("p"), entries, Hash256::Of("i"), 5);
  EXPECT_NE(base.block_hash(),
            Block(2, 0, Hash256::Of("p"), entries, Hash256::Of("i"), 5)
                .block_hash());
  EXPECT_NE(base.block_hash(),
            Block(1, 1, Hash256::Of("p"), entries, Hash256::Of("i"), 5)
                .block_hash());
  EXPECT_NE(base.block_hash(),
            Block(1, 0, Hash256::Of("q"), entries, Hash256::Of("i"), 5)
                .block_hash());
  EXPECT_NE(base.block_hash(),
            Block(1, 0, Hash256::Of("p"), entries, Hash256::Of("j"), 5)
                .block_hash());
  EXPECT_NE(base.block_hash(),
            Block(1, 0, Hash256::Of("p"), entries, Hash256::Of("i"), 6)
                .block_hash());
}

TEST(BlockTest, HashCoversEntries) {
  Block a(1, 0, Hash256(), {MakeEntry("a", "1")}, Hash256(), 5);
  Block b(1, 0, Hash256(), {MakeEntry("a", "2")}, Hash256(), 5);
  EXPECT_NE(a.block_hash(), b.block_hash());
}

TEST(BlockTest, EmptyBlockIsValid) {
  Block b(0, 0, Hash256(), {}, Hash256(), 1);
  Block decoded;
  ASSERT_TRUE(Block::Decode(b.Encode(), &decoded).ok());
  EXPECT_TRUE(decoded.entries().empty());
  EXPECT_EQ(decoded.block_hash(), b.block_hash());
}

TEST(BlockTest, DecodeRejectsAnEntryCountItsBytesCannotHold) {
  // A header whose entry count (2^40) no remaining bytes could hold: a
  // corrupt or hostile block must fail to decode, not size a reserve.
  std::string encoded;
  PutVarint64(&encoded, 0);  // height
  PutVarint64(&encoded, 0);  // first_seq
  encoded.append(Hash256().ToBytes());
  encoded.append(Hash256().ToBytes());
  PutVarint64(&encoded, 1);  // timestamp
  PutVarint64(&encoded, uint64_t{1} << 40);
  MakeEntry("a", "1").EncodeTo(&encoded);
  Block decoded;
  EXPECT_TRUE(Block::Decode(encoded, &decoded).IsCorruption());
}

// --- Journal -------------------------------------------------------------------

TEST(JournalTest, AppendAdvancesDigest) {
  Journal j;
  JournalDigest d0 = j.Digest();
  EXPECT_EQ(d0.block_count, 0u);
  j.Append({MakeEntry("a", "1")}, Hash256(), 1);
  JournalDigest d1 = j.Digest();
  EXPECT_EQ(d1.block_count, 1u);
  EXPECT_EQ(d1.entry_count, 1u);
  EXPECT_NE(d1.tip_hash, d0.tip_hash);
  j.Append({MakeEntry("b", "2"), MakeEntry("c", "3")}, Hash256(), 2);
  JournalDigest d2 = j.Digest();
  EXPECT_EQ(d2.block_count, 2u);
  EXPECT_EQ(d2.entry_count, 3u);
}

TEST(JournalTest, BlocksAreHashChained) {
  Journal j;
  j.Append({MakeEntry("a", "1")}, Hash256(), 1);
  j.Append({MakeEntry("b", "2")}, Hash256(), 2);
  Block b0, b1;
  ASSERT_TRUE(j.GetBlock(0, &b0).ok());
  ASSERT_TRUE(j.GetBlock(1, &b1).ok());
  EXPECT_EQ(b1.prev_hash(), b0.block_hash());
  EXPECT_TRUE(b0.prev_hash().IsZero());
}

// Restore's checks are the ones recovery and replication rely on: a
// block decoded from bytes always matches its own derived hashes, so
// what can be wrong is where it claims to sit in the chain.
class JournalRestoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Block genesis(0, 0, Hash256(), {MakeEntry("a", "1"), MakeEntry("b", "2")},
                  Hash256::Of("idx0"), 1);
    ASSERT_TRUE(Restore(genesis).ok());
    tip_ = genesis.block_hash();
  }

  // Restores `block` the way recovery does: from its decoded bytes.
  Status Restore(const Block& block) {
    std::string serialized = block.Encode();
    Block decoded;
    Status s = Block::Decode(serialized, &decoded);
    if (!s.ok()) return s;
    return journal_.Restore(decoded, serialized);
  }

  Block Next(uint64_t height, uint64_t first_seq, const Hash256& prev) {
    return Block(height, first_seq, prev, {MakeEntry("c", "3")},
                 Hash256::Of("idx1"), 2);
  }

  // A rejected block must leave the journal exactly as it was.
  void ExpectRejected(const Block& block, const std::string& reason) {
    JournalDigest before = journal_.Digest();
    Status s = Restore(block);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_NE(s.ToString().find(reason), std::string::npos) << s.ToString();
    JournalDigest after = journal_.Digest();
    EXPECT_EQ(after.block_count, before.block_count);
    EXPECT_EQ(after.entry_count, before.entry_count);
    EXPECT_EQ(after.tip_hash, before.tip_hash);
    EXPECT_EQ(after.merkle_root, before.merkle_root);
  }

  Journal journal_;
  Hash256 tip_;
};

TEST_F(JournalRestoreTest, AcceptsTheNextBlockInTheChain) {
  Block next = Next(1, 2, tip_);
  ASSERT_TRUE(Restore(next).ok());
  JournalDigest d = journal_.Digest();
  EXPECT_EQ(d.block_count, 2u);
  EXPECT_EQ(d.entry_count, 3u);
  EXPECT_EQ(d.tip_hash, next.block_hash());
  std::string serialized;
  ASSERT_TRUE(journal_.ReadBlock(1, &serialized).ok());
  EXPECT_EQ(serialized, next.Encode());
}

TEST_F(JournalRestoreTest, IndexRootKeptWithoutDecodingOnAppendAndRestore) {
  ASSERT_TRUE(Restore(Next(1, 2, tip_)).ok());
  journal_.Append({MakeEntry("d", "4")}, Hash256::Of("idx2"), 3);
  ASSERT_EQ(journal_.block_count(), 3u);
  for (uint64_t height = 0; height < journal_.block_count(); height++) {
    Block block;
    ASSERT_TRUE(journal_.GetBlock(height, &block).ok());
    EXPECT_EQ(journal_.IndexRoot(height), block.index_root()) << height;
  }
  EXPECT_EQ(journal_.IndexRoot(2), Hash256::Of("idx2"));
}

TEST_F(JournalRestoreTest, RejectsWrongHeight) {
  ExpectRejected(Next(2, 2, tip_), "wrong height");
  ExpectRejected(Next(0, 2, tip_), "wrong height");
}

TEST_F(JournalRestoreTest, RejectsBrokenPrevHashChain) {
  ExpectRejected(Next(1, 2, Hash256()), "hash chain");
  ExpectRejected(Next(1, 2, Hash256::Of("forged")), "hash chain");
}

TEST_F(JournalRestoreTest, RejectsWrongFirstSeq) {
  ExpectRejected(Next(1, 1, tip_), "wrong sequence");
  ExpectRejected(Next(1, 3, tip_), "wrong sequence");
}

TEST(JournalTest, GetBlockBeyondEndFails) {
  Journal j;
  Block b;
  EXPECT_TRUE(j.GetBlock(0, &b).IsNotFound());
}

TEST(JournalTest, EntryProofVerifies) {
  Journal j;
  std::vector<LedgerEntry> entries;
  for (int i = 0; i < 50; i++) {
    entries.push_back(MakeEntry("key" + std::to_string(i),
                                "value" + std::to_string(i), i, i * 10));
  }
  j.Append(std::vector<LedgerEntry>(entries.begin(), entries.begin() + 20),
           Hash256::Of("idx0"), 1);
  j.Append(std::vector<LedgerEntry>(entries.begin() + 20, entries.end()),
           Hash256::Of("idx1"), 2);
  JournalDigest digest = j.Digest();

  for (auto [height, idx, global] : {std::tuple<uint64_t, uint64_t, int>{0, 5, 5},
                                     {0, 19, 19},
                                     {1, 0, 20},
                                     {1, 29, 49}}) {
    JournalEntryProof proof;
    LedgerEntry entry;
    ASSERT_TRUE(j.ProveEntry(height, idx, &proof, &entry).ok());
    EXPECT_EQ(entry, entries[global]);
    EXPECT_TRUE(Journal::VerifyEntry(entry, proof, digest).ok())
        << "height=" << height << " idx=" << idx;
  }
}

TEST(JournalTest, EntryProofRejectsTamperedEntry) {
  Journal j;
  j.Append({MakeEntry("a", "1"), MakeEntry("b", "2")}, Hash256(), 1);
  JournalDigest digest = j.Digest();
  JournalEntryProof proof;
  LedgerEntry entry;
  ASSERT_TRUE(j.ProveEntry(0, 0, &proof, &entry).ok());
  entry.value_hash = Hash256::Of("tampered");
  EXPECT_TRUE(
      Journal::VerifyEntry(entry, proof, digest).IsVerificationFailed());
}

// Every field of an entry proof feeds the recomputed block hash or one
// of the two Merkle folds, so changing any one of them must fail.
TEST(JournalTest, EntryProofRejectsEveryTamperedProofField) {
  Journal j;
  for (int b = 0; b < 5; b++) {
    std::vector<LedgerEntry> entries;
    for (int i = 0; i < 6; i++) {
      entries.push_back(MakeEntry("k" + std::to_string(b * 6 + i), "v"));
    }
    j.Append(std::move(entries), Hash256::Of("idx" + std::to_string(b)),
             b + 1);
  }
  JournalDigest digest = j.Digest();
  JournalEntryProof honest;
  LedgerEntry entry;
  ASSERT_TRUE(j.ProveEntry(2, 3, &honest, &entry).ok());
  ASSERT_TRUE(Journal::VerifyEntry(entry, honest, digest).ok());
  ASSERT_FALSE(honest.entry_path.path.empty());
  ASSERT_FALSE(honest.block_path.path.empty());

  auto expect_rejected = [&](const std::string& field,
                             const std::function<void(JournalEntryProof*)>&
                                 tamper) {
    JournalEntryProof proof = honest;
    tamper(&proof);
    EXPECT_TRUE(Journal::VerifyEntry(entry, proof, digest)
                    .IsVerificationFailed())
        << field;
  };
  expect_rejected("block_height", [](JournalEntryProof* p) {
    p->block_height ^= 1;
  });
  expect_rejected("first_seq", [](JournalEntryProof* p) { p->first_seq ^= 1; });
  expect_rejected("prev_hash",
                  [](JournalEntryProof* p) { p->prev_hash.data()[0] ^= 1; });
  expect_rejected("index_root",
                  [](JournalEntryProof* p) { p->index_root.data()[0] ^= 1; });
  expect_rejected("block_timestamp", [](JournalEntryProof* p) {
    p->block_timestamp ^= 1;
  });
  for (size_t i = 0; i < honest.entry_path.path.size(); i++) {
    expect_rejected("entry_path[" + std::to_string(i) + "]",
                    [i](JournalEntryProof* p) {
                      p->entry_path.path[i].data()[31] ^= 1;
                    });
  }
  for (size_t i = 0; i < honest.block_path.path.size(); i++) {
    expect_rejected("block_path[" + std::to_string(i) + "]",
                    [i](JournalEntryProof* p) {
                      p->block_path.path[i].data()[31] ^= 1;
                    });
  }
}

TEST(JournalTest, EntryProofRejectsWrongDigest) {
  Journal j;
  j.Append({MakeEntry("a", "1")}, Hash256(), 1);
  JournalEntryProof proof;
  LedgerEntry entry;
  ASSERT_TRUE(j.ProveEntry(0, 0, &proof, &entry).ok());

  Journal other;
  other.Append({MakeEntry("x", "9")}, Hash256(), 1);
  EXPECT_FALSE(Journal::VerifyEntry(entry, proof, other.Digest()).ok());
}

TEST(JournalTest, ProveEntryBadIndicesFail) {
  Journal j;
  j.Append({MakeEntry("a", "1")}, Hash256(), 1);
  JournalEntryProof proof;
  LedgerEntry entry;
  EXPECT_TRUE(j.ProveEntry(5, 0, &proof, &entry).IsNotFound());
  EXPECT_TRUE(j.ProveEntry(0, 5, &proof, &entry).IsInvalidArgument());
}

TEST(JournalTest, ConsistencyAcrossGrowth) {
  Journal j;
  for (int i = 0; i < 7; i++) {
    j.Append({MakeEntry("k" + std::to_string(i), "v")}, Hash256(), i);
  }
  JournalDigest old_digest = j.Digest();
  for (int i = 7; i < 23; i++) {
    j.Append({MakeEntry("k" + std::to_string(i), "v")}, Hash256(), i);
  }
  JournalDigest new_digest = j.Digest();
  MerkleConsistencyProof proof;
  ASSERT_TRUE(j.ConsistencyProof(old_digest.block_count, &proof).ok());
  EXPECT_TRUE(Journal::VerifyConsistency(proof, old_digest, new_digest));
}

TEST(JournalTest, ConsistencyRejectsMismatchedDigests) {
  Journal j;
  for (int i = 0; i < 10; i++) {
    j.Append({MakeEntry("k" + std::to_string(i), "v")}, Hash256(), i);
  }
  MerkleConsistencyProof proof;
  ASSERT_TRUE(j.ConsistencyProof(4, &proof).ok());
  JournalDigest fake;
  fake.block_count = 4;
  fake.merkle_root = Hash256::Of("fake");
  EXPECT_FALSE(Journal::VerifyConsistency(proof, fake, j.Digest()));
}

TEST(JournalTest, StoredBytesGrowWithAppends) {
  Journal j;
  EXPECT_EQ(j.stored_bytes(), 0u);
  j.Append({MakeEntry("a", "1")}, Hash256(), 1);
  uint64_t after_one = j.stored_bytes();
  EXPECT_GT(after_one, 0u);
  j.Append({MakeEntry("b", "2")}, Hash256(), 2);
  EXPECT_GT(j.stored_bytes(), after_one);
}

TEST(JournalTest, IndexRootRecordedPerBlock) {
  Journal j;
  j.Append({MakeEntry("a", "1")}, Hash256::Of("root-v1"), 1);
  j.Append({MakeEntry("b", "2")}, Hash256::Of("root-v2"), 2);
  Block b0, b1;
  ASSERT_TRUE(j.GetBlock(0, &b0).ok());
  ASSERT_TRUE(j.GetBlock(1, &b1).ok());
  EXPECT_EQ(b0.index_root(), Hash256::Of("root-v1"));
  EXPECT_EQ(b1.index_root(), Hash256::Of("root-v2"));
}

// Randomized end-to-end: every entry in a multi-block journal proves.
TEST(JournalTest, RandomizedFullSweep) {
  Random rng(11);
  Journal j;
  std::vector<std::vector<LedgerEntry>> blocks;
  for (int b = 0; b < 12; b++) {
    std::vector<LedgerEntry> entries;
    int n = static_cast<int>(rng.Range(1, 40));
    for (int i = 0; i < n; i++) {
      entries.push_back(
          MakeEntry(rng.Bytes(8), rng.Bytes(20), rng.Next(), rng.Next()));
    }
    j.Append(entries, Hash256(), b);
    blocks.push_back(std::move(entries));
  }
  JournalDigest digest = j.Digest();
  for (size_t b = 0; b < blocks.size(); b++) {
    for (size_t i = 0; i < blocks[b].size(); i++) {
      JournalEntryProof proof;
      LedgerEntry entry;
      ASSERT_TRUE(j.ProveEntry(b, i, &proof, &entry).ok());
      EXPECT_EQ(entry, blocks[b][i]);
      EXPECT_TRUE(Journal::VerifyEntry(entry, proof, digest).ok());
    }
  }
}

// --- Blocks paged out to the file --------------------------------------------

// A journal opened on a file frames each block into it; a flush releases
// the blocks, which then read back from the file, byte for byte, and
// still prove. A journal without a file never releases anything.
TEST(JournalTest, ReleasedBlocksReadBackFromTheFile) {
  const std::string path = ::testing::TempDir() + "/spitz_journal_paging.log";
  std::filesystem::remove(path);
  Journal memory;
  Journal j;
  uint64_t truncated = 0;
  ASSERT_TRUE(j.Open(Env::Default(), path, [](const Block&) {}, &truncated)
                  .ok());
  EXPECT_EQ(truncated, 0u);
  std::vector<std::string> serialized;
  std::string frames;
  for (int b = 0; b < 5; b++) {
    auto append = [&](Journal* journal, Slice* bytes) {
      journal->Append({MakeEntry("k" + std::to_string(b), "v"),
                       MakeEntry("x" + std::to_string(b), "w")},
                      Hash256::Of("root" + std::to_string(b)), b, bytes);
    };
    Slice bytes;
    append(&memory, nullptr);
    append(&j, &bytes);
    serialized.push_back(bytes.ToString());
    AppendRecordFrame(bytes, &frames);
    if (b == 2) {
      ASSERT_TRUE(j.Flush().ok());  // blocks 0-2 go to the file
    }
  }
  EXPECT_EQ(j.stored_bytes(), frames.size());
  EXPECT_EQ(memory.stored_bytes(), frames.size());
  uint64_t all_bytes = 0;
  for (const std::string& block : serialized) all_bytes += block.size();
  EXPECT_EQ(memory.resident_bytes(), all_bytes);
  ASSERT_TRUE(memory.Flush().ok());  // no file: nothing is released
  EXPECT_EQ(memory.resident_bytes(), all_bytes);
  EXPECT_EQ(j.resident_bytes(), serialized[3].size() + serialized[4].size());

  const JournalDigest digest = j.Digest();
  for (uint64_t h = 0; h < 5; h++) {
    Journal::BlockRef ref;
    ASSERT_TRUE(j.Locate(h, &ref).ok());
    EXPECT_EQ(ref.resident, h >= 3) << h;
    std::string bytes;
    ASSERT_TRUE(j.ReadBlock(h, &bytes).ok()) << h;
    EXPECT_EQ(bytes, serialized[h]) << h;
    JournalEntryProof proof;
    LedgerEntry entry;
    ASSERT_TRUE(j.ProveEntry(h, 1, &proof, &entry).ok()) << h;
    EXPECT_EQ(entry.key, "x" + std::to_string(h));
    EXPECT_TRUE(Journal::VerifyEntry(entry, proof, digest).ok()) << h;
  }
  ASSERT_TRUE(j.Flush().ok());
  EXPECT_EQ(j.resident_bytes(), 0u);
  Block last;
  ASSERT_TRUE(j.GetBlock(4, &last).ok());
  EXPECT_EQ(last.index_root(), Hash256::Of("root4"));
  // The file holds exactly the frames, back to back from offset 0.
  std::string contents;
  ASSERT_TRUE(Env::Default()->ReadFileToString(path, &contents).ok());
  EXPECT_EQ(contents, frames);
  std::filesystem::remove(path);
}

// A released block is read back only if its frame CRC holds and it
// hashes to the block hash the chain recorded; otherwise Corruption
// naming the file and offset. A short file is Corruption too.
TEST(JournalTest, ReadBackChecksFrameAndBlockHash) {
  const std::string path =
      ::testing::TempDir() + "/spitz_journal_paging_checks.log";
  std::filesystem::remove(path);
  Journal j;
  uint64_t truncated = 0;
  ASSERT_TRUE(j.Open(Env::Default(), path, [](const Block&) {}, &truncated)
                  .ok());
  std::vector<std::string> serialized;
  for (int b = 0; b < 3; b++) {
    Slice bytes;
    j.Append({MakeEntry("k" + std::to_string(b), "v")}, Hash256(), b, &bytes);
    serialized.push_back(bytes.ToString());
  }
  ASSERT_TRUE(j.Flush().ok());  // every block now reads from the file
  // Block 1 forged with a valid frame: same length, another value hash.
  Block genuine;
  ASSERT_TRUE(Block::Decode(serialized[1], &genuine).ok());
  Block forged(genuine.height(), genuine.first_seq(), genuine.prev_hash(),
               {MakeEntry("k1", "forged")}, genuine.index_root(),
               genuine.timestamp());
  ASSERT_EQ(forged.Encode().size(), serialized[1].size());
  auto write_file = [&](const std::string& block1) {
    std::string frames;
    AppendRecordFrame(serialized[0], &frames);
    AppendRecordFrame(block1, &frames);
    AppendRecordFrame(serialized[2], &frames);
    // Rewritten in place: the journal's handle stays on the same file.
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(frames.data(), static_cast<std::streamsize>(frames.size()));
  };
  write_file(forged.Encode());

  std::string bytes;
  Status s = j.ReadBlock(1, &bytes);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("block hash mismatch"), std::string::npos);
  EXPECT_NE(s.ToString().find(path), std::string::npos);
  Journal::BlockRef ref;
  ASSERT_TRUE(j.Locate(1, &ref).ok());
  EXPECT_NE(s.ToString().find("offset " + std::to_string(ref.offset)),
            std::string::npos)
      << s.ToString();
  ASSERT_TRUE(j.ReadBlock(0, &bytes).ok());
  EXPECT_EQ(bytes, serialized[0]);

  // One flipped byte of the genuine frame fails its CRC.
  write_file(serialized[1]);
  ASSERT_TRUE(j.ReadBlock(1, &bytes).ok());
  {
    std::fstream io(path, std::ios::binary | std::ios::in | std::ios::out);
    const uint64_t at = ref.offset + ref.frame_bytes / 2;
    io.seekg(static_cast<std::streamoff>(at));
    char c = static_cast<char>(io.get());
    io.seekp(static_cast<std::streamoff>(at));
    io.put(static_cast<char>(c ^ 0x01));
  }
  s = j.ReadBlock(1, &bytes);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("bad frame"), std::string::npos);
  JournalEntryProof proof;
  LedgerEntry entry;
  EXPECT_TRUE(j.ProveEntry(1, 0, &proof, &entry).IsCorruption());

  // A file cut short of the last frame.
  std::filesystem::resize_file(path, j.stored_bytes() - 1);
  EXPECT_TRUE(j.ReadBlock(2, &bytes).IsCorruption());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace spitz
