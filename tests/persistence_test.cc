#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_set>

#include "chunk/buffer_cache.h"
#include "chunk/file_chunk_store.h"
#include "common/codec.h"
#include "common/random.h"
#include "common/record_frame.h"
#include "core/spitz_db.h"
#include "index/siri.h"
#include "net/frame.h"

namespace spitz {
namespace {

std::string RandomPayload(Random* rnd, size_t n) {
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>('a' + rnd->Uniform(26));
  return s;
}

std::string BinaryPayload(Random* rnd, size_t n) {
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>(rnd->Next());
  return s;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/spitz_persist_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  SpitzOptions DurableOptions(size_t block_size = 8) {
    SpitzOptions options;
    options.block_size = block_size;
    options.data_dir = dir_;
    return options;
  }

  std::string dir_;
};

// --- FileChunkStore ---------------------------------------------------------

TEST_F(PersistenceTest, FileChunkStoreRoundTrip) {
  std::string store_dir = dir_ + "/chunks";
  Hash256 id;
  {
    std::unique_ptr<FileChunkStore> store;
    ASSERT_TRUE(FileChunkStore::Open(store_dir, &store).ok());
    id = store->Put(Chunk(ChunkType::kBlob, "persistent payload"));
    ASSERT_TRUE(store->Sync().ok());
  }
  {
    std::unique_ptr<FileChunkStore> store;
    ASSERT_TRUE(FileChunkStore::Open(store_dir, &store).ok());
    EXPECT_EQ(store->recovered_chunks(), 1u);
    std::shared_ptr<const Chunk> chunk;
    ASSERT_TRUE(store->Get(id, &chunk).ok());
    EXPECT_EQ(chunk->payload(), "persistent payload");
    EXPECT_EQ(chunk->type(), ChunkType::kBlob);
  }
}

TEST_F(PersistenceTest, FileChunkStoreDeduplicatesAcrossSessions) {
  std::string store_dir = dir_ + "/chunks";
  std::string segment =
      store_dir + "/" + FileChunkStore::SegmentFileName(1);
  {
    std::unique_ptr<FileChunkStore> store;
    ASSERT_TRUE(FileChunkStore::Open(store_dir, &store).ok());
    store->Put(Chunk(ChunkType::kBlob, "same"));
    ASSERT_TRUE(store->Sync().ok());
  }
  auto size_before = std::filesystem::file_size(segment);
  {
    std::unique_ptr<FileChunkStore> store;
    ASSERT_TRUE(FileChunkStore::Open(store_dir, &store).ok());
    store->Put(Chunk(ChunkType::kBlob, "same"));  // already on disk
    ASSERT_TRUE(store->Sync().ok());
  }
  EXPECT_EQ(std::filesystem::file_size(segment), size_before);
}

TEST_F(PersistenceTest, FileChunkStoreSurvivesTornTail) {
  std::string store_dir = dir_ + "/chunks";
  {
    std::unique_ptr<FileChunkStore> store;
    ASSERT_TRUE(FileChunkStore::Open(store_dir, &store).ok());
    store->Put(Chunk(ChunkType::kBlob, "complete record"));
    ASSERT_TRUE(store->Sync().ok());
  }
  // Simulate a crash mid-append: garbage half-record at the tail of the
  // active segment.
  {
    std::ofstream out(store_dir + "/" + FileChunkStore::SegmentFileName(1),
                      std::ios::binary | std::ios::app);
    out.put(static_cast<char>(ChunkType::kBlob));
    out.put(static_cast<char>(200));  // claims 200 bytes, provides 3
    out << "xyz";
  }
  std::unique_ptr<FileChunkStore> store;
  ASSERT_TRUE(FileChunkStore::Open(store_dir, &store).ok());
  EXPECT_EQ(store->recovered_chunks(), 1u);
  EXPECT_GT(store->truncated_bytes(), 0u);
  EXPECT_TRUE(store->Contains(Chunk(ChunkType::kBlob, "complete record").id()));
}

TEST_F(PersistenceTest, FileChunkStoreRollsSegmentsAndRecoversAll) {
  std::string store_dir = dir_ + "/chunks";
  FileChunkStore::Options small;
  small.segment_bytes = 4 << 10;  // tiny segments force several rolls
  std::vector<Hash256> ids;
  {
    std::unique_ptr<FileChunkStore> store;
    ASSERT_TRUE(
        FileChunkStore::Open(Env::Default(), store_dir, small, &store).ok());
    Random rnd(77);
    for (int i = 0; i < 64; i++) {
      std::string payload = RandomPayload(&rnd, 512) + std::to_string(i);
      ids.push_back(store->Put(Chunk(ChunkType::kBlob, std::move(payload))));
      store->OnBlockSealed();  // roll opportunity at each "block" seal
    }
    ASSERT_TRUE(store->Sync().ok());
    EXPECT_GT(store->segment_count(), 2u) << "expected multiple segments";
  }
  std::unique_ptr<FileChunkStore> store;
  ASSERT_TRUE(
      FileChunkStore::Open(Env::Default(), store_dir, small, &store).ok());
  EXPECT_EQ(store->recovered_chunks(), ids.size());
  for (const Hash256& id : ids) {
    std::shared_ptr<const Chunk> chunk;
    ASSERT_TRUE(store->Get(id, &chunk).ok());
    EXPECT_EQ(chunk->id(), id);
  }
}

TEST_F(PersistenceTest, FileChunkStoreGcReclaimsDiskAcrossReopen) {
  std::string store_dir = dir_ + "/chunks";
  FileChunkStore::Options small;
  small.segment_bytes = 4 << 10;
  std::unordered_set<Hash256, Hash256Hasher> live;
  std::vector<Hash256> dead;
  {
    std::unique_ptr<FileChunkStore> store;
    ASSERT_TRUE(
        FileChunkStore::Open(Env::Default(), store_dir, small, &store).ok());
    Random rnd(88);
    for (int i = 0; i < 64; i++) {
      Hash256 id = store->Put(
          Chunk(ChunkType::kBlob, RandomPayload(&rnd, 512) + std::to_string(i)));
      if (i % 4 == 0) {
        live.insert(id);
      } else {
        dead.push_back(id);
      }
      store->OnBlockSealed();
    }
    ASSERT_TRUE(store->Sync().ok());
    uint64_t segments_before = store->segment_count();
    uint64_t mark_seq = store->BeginGc();
    ChunkGcStats stats;
    ASSERT_TRUE(store->RetainLive(live, mark_seq, &stats).ok());
    EXPECT_EQ(stats.dead_chunks, dead.size());
    EXPECT_GT(stats.reclaimed_bytes, 0u);
    EXPECT_GT(stats.segments_deleted, 0u);
    EXPECT_LT(store->segment_count(), segments_before);
    for (const Hash256& id : live) EXPECT_TRUE(store->Contains(id));
    for (const Hash256& id : dead) EXPECT_FALSE(store->Contains(id));
  }
  // The survivor set recovers cleanly from the compacted segments.
  std::unique_ptr<FileChunkStore> store;
  ASSERT_TRUE(
      FileChunkStore::Open(Env::Default(), store_dir, small, &store).ok());
  EXPECT_EQ(store->recovered_chunks(), live.size());
  for (const Hash256& id : live) {
    std::shared_ptr<const Chunk> chunk;
    ASSERT_TRUE(store->Get(id, &chunk).ok());
  }
  for (const Hash256& id : dead) EXPECT_FALSE(store->Contains(id));
}

// --- SpitzDb durability ------------------------------------------------------

TEST_F(PersistenceTest, OpenRequiresDataDir) {
  SpitzOptions options;
  std::unique_ptr<SpitzDb> db;
  EXPECT_TRUE(SpitzDb::Open(options, &db).IsInvalidArgument());
}

TEST_F(PersistenceTest, ReopenRecoversSealedState) {
  SpitzDigest saved;
  {
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(DurableOptions(), &db).ok());
    for (int i = 0; i < 40; i++) {
      ASSERT_TRUE(
          db->Put("key" + std::to_string(i), "val" + std::to_string(i)).ok());
    }
    db->FlushBlock();
    ASSERT_TRUE(db->SyncStorage().ok());
    saved = db->Digest();
  }
  {
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(DurableOptions(), &db).ok());
    SpitzDigest recovered = db->Digest();
    EXPECT_EQ(recovered.index_root, saved.index_root);
    EXPECT_EQ(recovered.journal.block_count, saved.journal.block_count);
    EXPECT_EQ(recovered.journal.tip_hash, saved.journal.tip_hash);
    EXPECT_EQ(recovered.journal.merkle_root, saved.journal.merkle_root);
    std::string value;
    ASSERT_TRUE(db->Get("key7", &value).ok());
    EXPECT_EQ(value, "val7");
    EXPECT_EQ(db->key_count(), 40u);
  }
}

TEST_F(PersistenceTest, ProofsVerifyAfterRecovery) {
  {
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(DurableOptions(), &db).ok());
    for (int i = 0; i < 64; i++) {
      ASSERT_TRUE(db->Put("k" + std::to_string(i), "v").ok());
    }
    db->FlushBlock();
  }
  std::unique_ptr<SpitzDb> db;
  ASSERT_TRUE(SpitzDb::Open(DurableOptions(), &db).ok());
  SpitzDigest digest = db->Digest();
  std::string value;
  ReadProof proof;
  ASSERT_TRUE(db->Read(kCurrentVersion, "k33", &value, &proof).ok());
  EXPECT_TRUE(VerifyRead(digest, "k33", value, proof).ok());
  // Historical entries recovered from disk remain provable.
  JournalEntryProof jproof;
  LedgerEntry entry;
  ASSERT_TRUE(db->ledger()->ProveHistoricalEntry(0, 0, &jproof, &entry).ok());
  EXPECT_TRUE(VerifyJournalEntry(entry, jproof, digest.journal).ok());
}

TEST_F(PersistenceTest, WritesContinueAfterRecovery) {
  {
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(DurableOptions(), &db).ok());
    for (int i = 0; i < 16; i++) {
      ASSERT_TRUE(db->Put("k" + std::to_string(i), "v1").ok());
    }
    db->FlushBlock();
  }
  SpitzDigest first_digest;
  {
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(DurableOptions(), &db).ok());
    first_digest = db->Digest();
    for (int i = 16; i < 32; i++) {
      ASSERT_TRUE(db->Put("k" + std::to_string(i), "v2").ok());
    }
    db->FlushBlock();
    // The extended ledger is consistent with the recovered digest.
    MerkleConsistencyProof proof;
    ASSERT_TRUE(
        db->ledger()->ProveConsistency(first_digest.journal, &proof).ok());
    EXPECT_TRUE(
        VerifyJournalConsistency(proof, first_digest.journal,
                                 db->Digest().journal));
  }
  {
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(DurableOptions(), &db).ok());
    EXPECT_EQ(db->key_count(), 32u);
  }
}

TEST_F(PersistenceTest, UnsealedWritesAreLostAtBlockBoundarySemantics) {
  {
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(DurableOptions(16), &db).ok());
    for (int i = 0; i < 16; i++) {  // exactly one sealed block
      ASSERT_TRUE(db->Put("sealed" + std::to_string(i), "v").ok());
    }
    ASSERT_TRUE(db->Put("unsealed", "v").ok());  // stays pending
    // No FlushBlock: the pending entry is not durable.
  }
  std::unique_ptr<SpitzDb> db;
  ASSERT_TRUE(SpitzDb::Open(DurableOptions(16), &db).ok());
  std::string value;
  EXPECT_TRUE(db->Get("sealed3", &value).ok());
  EXPECT_TRUE(db->Get("unsealed", &value).IsNotFound());
}

TEST_F(PersistenceTest, TornJournalTailIsDiscarded) {
  {
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(DurableOptions(), &db).ok());
    for (int i = 0; i < 24; i++) {
      ASSERT_TRUE(db->Put("k" + std::to_string(i), "v").ok());
    }
    db->FlushBlock();
  }
  {
    std::ofstream out(dir_ + "/journal.log",
                      std::ios::binary | std::ios::app);
    out.put(static_cast<char>(120));  // length prefix without the body
    out << "torn";
  }
  std::unique_ptr<SpitzDb> db;
  ASSERT_TRUE(SpitzDb::Open(DurableOptions(), &db).ok());
  EXPECT_EQ(db->key_count(), 24u);
}

TEST_F(PersistenceTest, TamperedJournalBlockDetectedOnRecovery) {
  {
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(DurableOptions(), &db).ok());
    for (int i = 0; i < 16; i++) {
      ASSERT_TRUE(db->Put("k" + std::to_string(i), "honest").ok());
    }
    db->FlushBlock();
  }
  // Flip a byte in the middle of the journal (inside a block body).
  {
    std::fstream f(dir_ + "/journal.log",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(60);
    char c;
    f.seekg(60);
    f.get(c);
    f.seekp(60);
    f.put(static_cast<char>(c ^ 0x40));
  }
  std::unique_ptr<SpitzDb> db;
  Status s = SpitzDb::Open(DurableOptions(), &db);
  EXPECT_FALSE(s.ok()) << "tampered block must fail recovery validation";
}

// A journal.log written before the header frame (format v1: no header,
// each entry stored in its full canonical form) is refused with
// NotSupported, and left as it was, rather than read as Corruption or
// cut as a torn tail.
TEST_F(PersistenceTest, OldFormatJournalFailsOpenWithNotSupported) {
  {
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(DurableOptions(4), &db).ok());
    for (int i = 0; i < 12; i++) {
      ASSERT_TRUE(db->Put("k" + std::to_string(i), "v").ok());
    }
    ASSERT_TRUE(db->SyncStorage().ok());
  }
  const std::string path = dir_ + "/journal.log";
  const std::string current = ReadWholeFile(path);
  std::vector<Slice> records;
  uint64_t consumed = 0;
  ASSERT_TRUE(ReadRecordFrames(current, path, &records, &consumed).ok());
  ASSERT_EQ(records.size(), 4u);  // the header and three blocks
  std::string v1;
  for (size_t i = 1; i < records.size(); i++) {
    Block block;
    ASSERT_TRUE(Block::Decode(records[i], &block).ok());
    std::string payload;
    PutVarint64(&payload, block.height());
    PutVarint64(&payload, block.first_seq());
    payload.append(block.prev_hash().ToBytes());
    payload.append(block.index_root().ToBytes());
    PutVarint64(&payload, block.timestamp());
    PutVarint64(&payload, block.entries().size());
    for (const LedgerEntry& e : block.entries()) payload += e.Canonical();
    AppendRecordFrame(payload, &v1);
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << v1;
  }
  std::unique_ptr<SpitzDb> db;
  Status s = SpitzDb::Open(DurableOptions(4), &db);
  EXPECT_TRUE(s.IsNotSupported()) << s.ToString();
  EXPECT_EQ(ReadWholeFile(path), v1);
}

// A forger who rewrites a middle block and recomputes its frame CRC
// gets past the CRC; the next block's prev-hash link must still catch
// the change. Recovery decodes the 600 blocks in windows, several
// blocks at once; the forged one is in the second window.
TEST_F(PersistenceTest, ForgedMiddleBlockWithValidCrcFailsRecovery) {
  constexpr size_t kBlocks = 600;
  constexpr size_t kForged = 300;
  {
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(DurableOptions(), &db).ok());
    for (size_t i = 0; i < 8 * kBlocks; i++) {  // sealed blocks of 8
      ASSERT_TRUE(db->Put("k" + std::to_string(i), "honest").ok());
    }
    ASSERT_TRUE(db->FlushBlock().ok());
    ASSERT_TRUE(db->SyncStorage().ok());
  }
  const std::string path = dir_ + "/journal.log";
  const std::string original = ReadWholeFile(path);
  std::vector<Slice> records;
  uint64_t consumed = 0;
  ASSERT_TRUE(ReadRecordFrames(original, path, &records, &consumed).ok());
  ASSERT_EQ(records.size(), 1 + kBlocks);  // the header, then the blocks
  std::string forged_journal;
  for (size_t i = 0; i < records.size(); i++) {
    std::string payload = records[i].ToString();
    if (i == 1 + kForged) {
      // The last byte is the last entry's txn_id minus its commit
      // timestamp (zigzagged); flipping its low bit keeps the block
      // decodable but changes what it records.
      payload.back() ^= 0x01;
      Block forged;
      ASSERT_TRUE(Block::Decode(payload, &forged).ok());
    }
    AppendRecordFrame(payload, &forged_journal);
  }
  ASSERT_EQ(forged_journal.size(), original.size());
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << forged_journal;
  }
  std::unique_ptr<SpitzDb> db;
  Status s = SpitzDb::Open(DurableOptions(), &db);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("hash chain"), std::string::npos)
      << s.ToString();
}

TEST_F(PersistenceTest, BulkLoadIsDurable) {
  std::vector<PosEntry> entries;
  for (int i = 0; i < 200; i++) {
    entries.push_back({"key" + std::to_string(i), "val" + std::to_string(i)});
  }
  {
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(DurableOptions(64), &db).ok());
    ASSERT_TRUE(db->BulkLoad(entries).ok());
    db->FlushBlock();
    ASSERT_TRUE(db->SyncStorage().ok());
  }
  std::unique_ptr<SpitzDb> db;
  ASSERT_TRUE(SpitzDb::Open(DurableOptions(64), &db).ok());
  EXPECT_EQ(db->key_count(), 200u);
  std::string value;
  ASSERT_TRUE(db->Get("key123", &value).ok());
  EXPECT_EQ(value, "val123");
}

TEST_F(PersistenceTest, KeyHistorySurvivesRecovery) {
  {
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(DurableOptions(4), &db).ok());
    for (int i = 0; i < 3; i++) {
      ASSERT_TRUE(db->Put("doc", "rev-" + std::to_string(i)).ok());
      ASSERT_TRUE(db->Put("pad" + std::to_string(i), "x").ok());
    }
    db->FlushBlock();
  }
  std::unique_ptr<SpitzDb> db;
  ASSERT_TRUE(SpitzDb::Open(DurableOptions(4), &db).ok());
  std::vector<SpitzDb::HistoricalWrite> history;
  ASSERT_TRUE(db->ledger()->KeyHistory("doc", &history).ok());
  ASSERT_EQ(history.size(), 3u);
  SpitzDigest digest = db->Digest();
  for (const auto& write : history) {
    EXPECT_TRUE(
        VerifyJournalEntry(write.entry, write.proof, digest.journal).ok());
  }
}

// --- Larger than the buffer cache -------------------------------------------

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
// From the sanitizer runtime (sanitizer/allocator_interface.h).
extern "C" size_t __sanitizer_get_current_allocated_bytes();
#endif

// Memory the process holds. AddressSanitizer keeps freed blocks
// resident in its quarantine, and ThreadSanitizer adds shadow memory
// for every byte the program touches, so under either VmRSS would
// measure the sanitizer; its allocator's count of live bytes measures
// the program.
uint64_t ResidentBytes() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return __sanitizer_get_current_allocated_bytes();
#else
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
  return 0;
#endif
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

std::string PagedKey(int i) {
  char buf[24];
  snprintf(buf, sizeof(buf), "user%08d", i);
  return buf;
}

std::string PagedValue(int i, int round, size_t value_bytes) {
  std::string v = "r" + std::to_string(round) + "-" + std::to_string(i) + "-";
  v.resize(value_bytes, 'x');
  return v;
}

// The value each key holds once every fourth key has been overwritten.
std::string PagedLatest(int i, size_t value_bytes) {
  return PagedValue(i, i % 4 == 0 ? 1 : 0, value_bytes);
}

// The paged store's promises on a dataset many times its cache: every
// read verifies however small the cache, the cache stays within its
// budget, resident memory grows by the cache and the location map only
// (the store reads through the cache instead of keeping chunks
// resident), GC reclaims the overwritten versions, and the collected
// store reopens and still verifies.
TEST_F(PersistenceTest, StoreManyTimesTheCacheVerifiesCollectsAndReopens) {
  constexpr int kRecords = 20000;
  constexpr size_t kValueBytes = 512;
  constexpr size_t kCacheBytes = 512 << 10;
  // A location-map entry: a 32 B id and its ~72 B location in a hash-map
  // node, with the allocator's and the bucket array's overhead.
  constexpr uint64_t kMapEntryBytes = 192;
  constexpr uint64_t kSlackBytes = 4 << 20;
  ASSERT_GE(uint64_t{kRecords} * kValueBytes, 4 * kCacheBytes);
  SpitzOptions options = DurableOptions(256);
  options.buffer_cache_bytes = kCacheBytes;
  options.chunk_segment_bytes = 1 << 20;
  options.retain_versions = 2;

  malloc_trim(0);
  const uint64_t resident_before = ResidentBytes();
  uint64_t resident_peak = resident_before;
  uint64_t disk_bytes = 0;
  uint64_t chunk_count = 0;
  {
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(options, &db).ok());
    // Load, then overwrite a quarter of the keys so older versions age
    // out of the retention window and GC has something to collect.
    for (int i = 0; i < kRecords; i++) {
      ASSERT_TRUE(db->Put(PagedKey(i), PagedValue(i, 0, kValueBytes)).ok());
    }
    for (int i = 0; i < kRecords; i += 4) {
      ASSERT_TRUE(db->Put(PagedKey(i), PagedValue(i, 1, kValueBytes)).ok());
    }
    ASSERT_TRUE(db->FlushBlock().ok());
    ASSERT_TRUE(db->SyncStorage().ok());
    malloc_trim(0);
    resident_peak = std::max(resident_peak, ResidentBytes());

    // A fixed stride walks the keyspace out of insertion order, so the
    // small cache cannot ride a sequential sweep.
    const SpitzDigest digest = db->Digest();
    int verify_failures = 0;
    for (int i = 0; i < kRecords; i++) {
      const int k = static_cast<int>((static_cast<uint64_t>(i) * 7919) %
                                     kRecords);
      std::string value;
      ReadProof proof;
      if (!db->Read(kCurrentVersion, PagedKey(k), &value, &proof).ok() ||
          !VerifyRead(digest, PagedKey(k), value, proof).ok() ||
          value != PagedLatest(k, kValueBytes)) {
        verify_failures++;
      }
    }
    EXPECT_EQ(verify_failures, 0);
    malloc_trim(0);
    resident_peak = std::max(resident_peak, ResidentBytes());

    MetricsSnapshot m = db->Metrics();
    EXPECT_EQ(m.CounterValue("chunk.file.read_errors"), 0u);
    EXPECT_LE(m.GaugeValue("cache.bytes"),
              m.GaugeValue("cache.capacity_bytes"));
    disk_bytes = DirBytes(dir_);
    chunk_count = m.GaugeValue("chunk.store.chunk_count");

    ChunkGcStats stats;
    ASSERT_TRUE(db->gc()->Collect(&stats).ok());
    EXPECT_GT(stats.dead_chunks, 0u);
    EXPECT_GT(stats.reclaimed_bytes, 0u);
    ASSERT_TRUE(db->SyncStorage().ok());
    malloc_trim(0);
    resident_peak = std::max(resident_peak, ResidentBytes());
  }
  EXPECT_LT(DirBytes(dir_), disk_bytes) << "GC did not shrink the directory";
  // A store that kept every chunk in memory would grow by the chunks'
  // bytes, every version of a path-copied node whole (~0.58 GB of
  // chunk.store.logical_bytes here).
  EXPECT_LT(resident_peak - resident_before,
            kCacheBytes + kMapEntryBytes * chunk_count + kSlackBytes)
      << chunk_count << " chunks, " << disk_bytes << " B on disk";

  // Recovery replays the rewritten segments, and the data still
  // verifies.
  std::unique_ptr<SpitzDb> db;
  ASSERT_TRUE(SpitzDb::Open(options, &db).ok());
  EXPECT_EQ(db->key_count(), static_cast<uint64_t>(kRecords));
  const SpitzDigest digest = db->Digest();
  int reopen_failures = 0;
  for (int i = 0; i < kRecords; i += kRecords / 1000) {
    std::string value;
    ReadProof proof;
    if (!db->Read(kCurrentVersion, PagedKey(i), &value, &proof).ok() ||
        !VerifyRead(digest, PagedKey(i), value, proof).ok() ||
        value != PagedLatest(i, kValueBytes)) {
      reopen_failures++;
    }
  }
  EXPECT_EQ(reopen_failures, 0);
}

// What a bulk-loaded node keeps resident: its cache and a few bytes of
// key history per write. The sealed blocks live in journal.log once the
// flush has written them: neither the journal, nor the history index,
// nor the journal's write buffer may keep the bulk load's bytes after
// it.
TEST_F(PersistenceTest, BulkLoadResidentMemoryIsCachePlusLedger) {
  constexpr int kRecords = 100000;
  constexpr size_t kValueBytes = 100;
  constexpr size_t kCacheBytes = 1 << 20;
  constexpr uint64_t kSlackBytes = 8 << 20;
  SpitzOptions options = DurableOptions(64);
  options.buffer_cache_bytes = kCacheBytes;
  malloc_trim(0);
  const uint64_t resident_before = ResidentBytes();
  std::unique_ptr<SpitzDb> db;
  ASSERT_TRUE(SpitzDb::Open(options, &db).ok());
  {
    std::vector<PosEntry> entries;
    entries.reserve(kRecords);
    for (int i = 0; i < kRecords; i++) {
      entries.push_back({PagedKey(i), PagedValue(i, 0, kValueBytes)});
    }
    ASSERT_TRUE(db->BulkLoad(std::move(entries)).ok());
  }
  ASSERT_TRUE(db->FlushBlock().ok());
  ASSERT_TRUE(db->SyncStorage().ok());
  malloc_trim(0);
  const uint64_t growth = ResidentBytes() - resident_before;
  const uint64_t journal_bytes =
      std::filesystem::file_size(dir_ + "/journal.log");
  EXPECT_LE(growth, kCacheBytes + 32ull * kRecords + kSlackBytes)
      << "journal.log " << journal_bytes << " B";
  MetricsSnapshot m = db->Metrics();
  EXPECT_EQ(m.GaugeValue("core.db.history.writes"),
            static_cast<uint64_t>(kRecords));
  EXPECT_LE(m.GaugeValue("core.db.history.bytes"), 32ull * kRecords);
  EXPECT_EQ(m.GaugeValue("core.db.journal.resident_bytes"), 0u);
}

// A verified read of every key leaves each chunk resident once: a
// decoded node views the bytes the raw cache entry holds, so the sweep
// adds offset tables, not a second and third copy of every key and
// value. The cache holds every chunk with room to spare, so nothing is
// evicted during the sweep.
TEST_F(PersistenceTest, VerifiedSweepKeepsEachCachedNodeOnce) {
  constexpr int kRecords = 50000;
  constexpr size_t kValueBytes = 100;
  SpitzOptions options = DurableOptions(64);
  options.buffer_cache_bytes = 64 << 20;
  std::unique_ptr<SpitzDb> db;
  ASSERT_TRUE(SpitzDb::Open(options, &db).ok());
  {
    std::vector<PosEntry> entries;
    entries.reserve(kRecords);
    for (int i = 0; i < kRecords; i++) {
      entries.push_back({PagedKey(i), PagedValue(i, 0, kValueBytes)});
    }
    ASSERT_TRUE(db->BulkLoad(std::move(entries)).ok());
  }
  ASSERT_TRUE(db->FlushBlock().ok());
  ASSERT_TRUE(db->SyncStorage().ok());
  // The chunk store holds only index nodes, and the sweep decodes all.
  const uint64_t chunk_bytes =
      db->Metrics().CounterValue("chunk.store.physical_bytes");
  ASSERT_GT(options.buffer_cache_bytes, 3 * chunk_bytes);
  const auto raw_cache_bytes = [&db] {
    MetricsSnapshot m = db->Metrics();
    return m.GaugeValue("cache.bytes") - m.GaugeValue("index.cache.bytes");
  };

  malloc_trim(0);
  const uint64_t raw_before = raw_cache_bytes();
  const uint64_t resident_before = ResidentBytes();
  const SpitzDigest digest = db->Digest();
  int verify_failures = 0;
  for (int i = 0; i < kRecords; i++) {
    std::string value;
    ReadProof proof;
    if (!db->Read(kCurrentVersion, PagedKey(i), &value, &proof).ok() ||
        !VerifyRead(digest, PagedKey(i), value, proof).ok() ||
        value != PagedValue(i, 0, kValueBytes)) {
      verify_failures++;
    }
  }
  EXPECT_EQ(verify_failures, 0);
  malloc_trim(0);
  const uint64_t resident_after = ResidentBytes();
  const uint64_t growth =
      resident_after > resident_before ? resident_after - resident_before : 0;
  // Chunks the sweep had to read back are one copy, held by the raw
  // entries. A decoded node adds its object and 4 bytes per element,
  // and each cache entry one map node: about a tenth of the chunk
  // bytes. Under ThreadSanitizer ResidentBytes reads the allocator's
  // allocated bytes, which round each ~4 KB chunk up to a size class:
  // about a sixth of the chunk bytes more.
#if defined(__SANITIZE_THREAD__)
  const uint64_t node_overhead = chunk_bytes / 3;
#else
  const uint64_t node_overhead = chunk_bytes / 5;
#endif
  const uint64_t raw_added = raw_cache_bytes() - raw_before;
  EXPECT_LE(growth, raw_added + node_overhead)
      << "chunk bytes " << chunk_bytes << ", raw entries added " << raw_added;

  MetricsSnapshot m = db->Metrics();
  EXPECT_EQ(m.CounterValue("cache.evictions"), 0u);
  EXPECT_LE(m.GaugeValue("index.cache.bytes"), chunk_bytes + 16ull * kRecords);
}

// A decoded node and a scan's rows outlive everything that could free
// the bytes under them: eviction of the node and raw cache entries, and
// a GC pass that erases the raw entry and unlinks the chunk's segment.
// Under AddressSanitizer a view that outlived its chunk fails here.
TEST_F(PersistenceTest, HeldNodeAndScanRowsOutliveEvictionAndGc) {
  constexpr int kKeys = 1000;
  constexpr size_t kValueBytes = 64;
  BufferCache cache(/*capacity_bytes=*/48 << 10, /*shard_count=*/1);
  FileChunkStore::Options store_options;
  store_options.segment_bytes = 1 << 10;
  store_options.cache = &cache;
  std::unique_ptr<FileChunkStore> store;
  ASSERT_TRUE(FileChunkStore::Open(Env::Default(), dir_ + "/chunks",
                                   store_options, &store)
                  .ok());
  PosTree tree(store.get());
  tree.SetNodeCache(&cache);
  const auto build = [&](int round, Hash256* root) {
    std::vector<PosEntry> entries;
    for (int i = 0; i < kKeys; i++) {
      entries.push_back({PagedKey(i), PagedValue(i, round, kValueBytes)});
    }
    ASSERT_TRUE(tree.Build(std::move(entries), root).ok());
    store->OnBlockSealed();  // seal the segment so a GC can condemn it
    ASSERT_TRUE(store->Sync().ok());
  };
  Hash256 old_root;
  build(0, &old_root);

  // The reader takes the leaf a point read decoded from the node cache,
  // as every traversal does, and keeps views of one entry.
  const std::string key = PagedKey(7);
  std::string value;
  PosProof proof;
  ASSERT_TRUE(tree.Get(old_root, key, &value, &proof).ok());
  const Hash256 leaf_id =
      Chunk::IdOf(static_cast<ChunkType>(proof.nodes.back().type),
                  proof.nodes.back().payload);
  auto node = std::static_pointer_cast<const PosNode>(
      cache.Lookup(BufferCache::kPosNode, leaf_id));
  ASSERT_NE(node, nullptr);
  const size_t slot = node->LowerBound(key);
  ASSERT_LT(slot, node->entry_count());
  const Slice held_key = node->key(slot);
  const Slice held_value = node->value(slot);
  // The served proof cites the nodes the read visited; it must keep
  // them, byte for byte, through the eviction and the GC below.
  SiriProof served;
  served.pos = proof;
  const std::string served_bytes = served.Encode();
  std::vector<PosEntry> rows;
  ASSERT_TRUE(
      tree.Scan(old_root, PagedKey(0), PagedKey(50), 0, &rows, nullptr).ok());

  // A new value for every key leaves no old chunk live; reading the new
  // version through the tiny cache evicts the old entries.
  Hash256 new_root;
  build(1, &new_root);
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(tree.Get(new_root, PagedKey(i), &value, nullptr).ok());
  }
  EXPECT_EQ(cache.Lookup(BufferCache::kPosNode, leaf_id), nullptr);
  EXPECT_EQ(cache.Lookup(BufferCache::kRawChunk, leaf_id), nullptr);
  EXPECT_EQ(served.Encode(), served_bytes);
  // Read the dead leaf back so the GC has a raw entry to erase.
  std::shared_ptr<const Chunk> raw;
  ASSERT_TRUE(store->Get(leaf_id, &raw).ok());
  raw.reset();
  ASSERT_NE(cache.Lookup(BufferCache::kRawChunk, leaf_id), nullptr);

  std::unordered_set<Hash256, Hash256Hasher> live;
  const uint64_t mark = store->BeginGc();
  ASSERT_TRUE(tree.CollectChunks(new_root, &live).ok());
  ChunkGcStats stats;
  ASSERT_TRUE(store->RetainLive(live, mark, &stats).ok());
  EXPECT_GT(stats.segments_deleted, 0u);
  EXPECT_EQ(cache.Lookup(BufferCache::kRawChunk, leaf_id), nullptr);
  EXPECT_TRUE(store->Get(leaf_id, &raw).IsNotFound());

  EXPECT_EQ(served.Encode(), served_bytes);
  EXPECT_TRUE(
      served.Verify(old_root, key, PagedValue(7, 0, kValueBytes)).ok());

  EXPECT_EQ(held_key.ToString(), key);
  EXPECT_EQ(held_value.ToString(), PagedValue(7, 0, kValueBytes));
  ASSERT_EQ(rows.size(), 50u);
  for (int i = 0; i < 50; i++) {
    EXPECT_EQ(rows[i], (PosEntry{PagedKey(i), PagedValue(i, 0, kValueBytes)}));
  }
}

// A GC pass drops every cache entry of a chunk it collects, the decoded
// node as well as the raw bytes, so dead nodes stop occupying budget.
TEST_F(PersistenceTest, CollectingPassErasesDecodedNodesOfCollectedChunks) {
  constexpr int kKeys = 1000;
  constexpr size_t kValueBytes = 64;
  BufferCache cache(/*capacity_bytes=*/16 << 20, /*shard_count=*/1);
  FileChunkStore::Options store_options;
  store_options.segment_bytes = 1 << 10;
  store_options.cache = &cache;
  std::unique_ptr<FileChunkStore> store;
  ASSERT_TRUE(FileChunkStore::Open(Env::Default(), dir_ + "/chunks",
                                   store_options, &store)
                  .ok());
  PosTree tree(store.get());
  tree.SetNodeCache(&cache);
  const auto build = [&](int round, Hash256* root) {
    std::vector<PosEntry> entries;
    for (int i = 0; i < kKeys; i++) {
      entries.push_back({PagedKey(i), PagedValue(i, round, kValueBytes)});
    }
    ASSERT_TRUE(tree.Build(std::move(entries), root).ok());
    store->OnBlockSealed();
    ASSERT_TRUE(store->Sync().ok());
  };
  Hash256 old_root;
  build(0, &old_root);
  // Read every key of the old version, decoding all of its nodes.
  std::string value;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(tree.Get(old_root, PagedKey(i), &value, nullptr).ok());
  }
  std::unordered_set<Hash256, Hash256Hasher> old_ids;
  ASSERT_TRUE(tree.CollectChunks(old_root, &old_ids).ok());

  Hash256 new_root;
  build(1, &new_root);
  std::unordered_set<Hash256, Hash256Hasher> live;
  const uint64_t mark = store->BeginGc();
  ASSERT_TRUE(tree.CollectChunks(new_root, &live).ok());
  ChunkGcStats stats;
  ASSERT_TRUE(store->RetainLive(live, mark, &stats).ok());
  ASSERT_GT(stats.dead_chunks, 0u);

  size_t collected = 0;
  for (const Hash256& id : old_ids) {
    if (live.count(id) != 0) continue;
    collected++;
    EXPECT_EQ(cache.Lookup(BufferCache::kPosNode, id), nullptr);
    EXPECT_EQ(cache.Lookup(BufferCache::kRawChunk, id), nullptr);
  }
  EXPECT_EQ(collected, stats.dead_chunks);
}

// A GC pass reads the records it moves without caching them: the
// readers' resident raw chunks that it does not collect stay cached,
// even when the pass moves many times the cache's capacity.
TEST_F(PersistenceTest, CollectingPassLeavesUncollectedResidentChunksCached) {
  BufferCache cache(/*capacity_bytes=*/64 << 10, /*shard_count=*/1);
  FileChunkStore::Options options;
  options.segment_bytes = 4 << 10;
  options.cache = &cache;
  std::unique_ptr<FileChunkStore> store;
  ASSERT_TRUE(
      FileChunkStore::Open(Env::Default(), dir_ + "/chunks", options, &store)
          .ok());
  Random rnd(41);
  std::vector<Hash256> ids;
  std::unordered_set<Hash256, Hash256Hasher> live;
  for (int i = 0; i < 512; i++) {
    ids.push_back(store->Put(Chunk(ChunkType::kBlob, RandomPayload(&rnd, 1024))));
    if (i % 2 == 0) live.insert(ids.back());
    store->OnBlockSealed();
  }
  ASSERT_TRUE(store->Sync().ok());
  // Every sealed segment holds a dead chunk, so the pass moves every
  // live one: 256 KiB through a 64 KiB cache.
  cache.Clear();
  std::vector<Hash256> resident;
  for (int i = 0; i < 40; i += 2) {
    std::shared_ptr<const Chunk> chunk;
    ASSERT_TRUE(store->Get(ids[i], &chunk).ok());
    resident.push_back(ids[i]);
  }
  const uint64_t mark = store->BeginGc();
  ChunkGcStats stats;
  ASSERT_TRUE(store->RetainLive(live, mark, &stats).ok());
  EXPECT_GT(stats.rewritten_bytes, 4 * cache.capacity_bytes());
  for (const Hash256& id : resident) {
    EXPECT_NE(cache.Lookup(BufferCache::kRawChunk, id), nullptr);
  }
  for (const Hash256& id : live) {
    std::shared_ptr<const Chunk> chunk;
    EXPECT_TRUE(store->Get(id, &chunk).ok());
  }
}

// A GC pass reads the records it moves in segment order through one
// window: a victim segment smaller than the window costs one read, however
// many live records it holds, and nothing the pass reads is cached.
TEST_F(PersistenceTest, CollectingPassReadsEachVictimSegmentOnce) {
  BufferCache cache(/*capacity_bytes=*/1 << 20, /*shard_count=*/1);
  FileChunkStore::Options options;
  options.segment_bytes = 4 << 10;
  options.cache = &cache;
  std::unique_ptr<FileChunkStore> store;
  ASSERT_TRUE(
      FileChunkStore::Open(Env::Default(), dir_ + "/chunks", options, &store)
          .ok());
  MetricsRegistry registry;
  store->ExportMetrics(&registry);
  Random rnd(43);
  std::unordered_set<Hash256, Hash256Hasher> live;
  for (int i = 0; i < 512; i++) {
    const Hash256 id =
        store->Put(Chunk(ChunkType::kBlob, RandomPayload(&rnd, 1024)));
    if (i % 2 == 0) live.insert(id);
    store->OnBlockSealed();
  }
  ASSERT_TRUE(store->Sync().ok());
  cache.Clear();
  const uint64_t reads_before =
      registry.Snapshot().CounterValue("chunk.file.reads");
  const uint64_t mark = store->BeginGc();
  ChunkGcStats stats;
  ASSERT_TRUE(store->RetainLive(live, mark, &stats).ok());
  const uint64_t reads =
      registry.Snapshot().CounterValue("chunk.file.reads") - reads_before;
  EXPECT_EQ(stats.dead_chunks, 256u);
  EXPECT_GT(stats.segments_deleted, 0u);
  EXPECT_LE(reads, stats.segments_deleted);
  EXPECT_EQ(cache.stats().entries(), 0u);
  for (const Hash256& id : live) {
    std::shared_ptr<const Chunk> chunk;
    EXPECT_TRUE(store->Get(id, &chunk).ok());
  }
}

// A bulk load writes around the buffer cache: nothing it writes is
// inserted there, yet every key reads back verified before the load's
// records are synced, after the sync, and after a reopen. The POS-tree
// is the backend with a bulk builder; MPT and MBT build by repeated
// Puts.
TEST_F(PersistenceTest, BulkLoadWritesAroundTheCacheAndReadsBackVerified) {
  constexpr int kKeys = 3000;
  std::vector<PosEntry> entries;
  for (int i = 0; i < kKeys; i++) {
    entries.push_back({PagedKey(i), PagedValue(i, 0, 100)});
  }
  const auto verify_all = [&](SpitzDb* db) {
    const SpitzDigest digest = db->Digest();
    int failures = 0;
    for (int i = 0; i < kKeys; i++) {
      std::string value;
      ReadProof proof;
      if (!db->Read(kCurrentVersion, PagedKey(i), &value, &proof).ok() ||
          !VerifyRead(digest, PagedKey(i), value, proof).ok() ||
          value != entries[i].value) {
        failures++;
      }
    }
    EXPECT_EQ(failures, 0);
  };
  {
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(DurableOptions(64), &db).ok());
    ASSERT_TRUE(db->BulkLoad(entries).ok());
    const MetricsSnapshot loaded = db->Metrics();
    EXPECT_EQ(loaded.CounterValue("cache.inserts"), 0u);
    EXPECT_EQ(loaded.GaugeValue("cache.bytes"), 0u);
    verify_all(db.get());
    ASSERT_TRUE(db->FlushBlock().ok());
    ASSERT_TRUE(db->SyncStorage().ok());
    verify_all(db.get());
  }
  std::unique_ptr<SpitzDb> db;
  ASSERT_TRUE(SpitzDb::Open(DurableOptions(64), &db).ok());
  verify_all(db.get());
}

// A read of a record the log has not flushed is served by the store
// itself and never flushes the log: after a bulk build, and before any
// Sync, every chunk of the tree reads back its bytes while the active
// segment's size on disk stays where the build left it, short of what
// the build appended.
TEST_F(PersistenceTest, ReadsOfUnflushedRecordsNeverFlushTheLog) {
  std::vector<PosEntry> entries;
  for (int i = 0; i < 16000; i++) {
    entries.push_back({PagedKey(i), PagedValue(i, 0, 100)});
  }
  ChunkStore reference;
  Hash256 expected_root;
  ASSERT_TRUE(PosTree(&reference).Build(entries, &expected_root).ok());
  std::unordered_set<Hash256, Hash256Hasher> ids;
  ASSERT_TRUE(PosTree(&reference).CollectChunks(expected_root, &ids).ok());

  std::unique_ptr<FileChunkStore> store;
  ASSERT_TRUE(FileChunkStore::Open(dir_ + "/chunks", &store).ok());
  MetricsRegistry registry;
  store->ExportMetrics(&registry);
  Hash256 root;
  ASSERT_TRUE(PosTree(store.get()).Build(entries, &root).ok());
  ASSERT_EQ(root, expected_root);
  const std::string segment =
      dir_ + "/chunks/" + FileChunkStore::SegmentFileName(1);
  const uintmax_t built_size = std::filesystem::file_size(segment);
  ASSERT_LT(built_size,
            registry.Snapshot().CounterValue("chunk.file.appended_bytes"));
  int mismatches = 0;
  for (const Hash256& id : ids) {
    std::shared_ptr<const Chunk> got;
    std::shared_ptr<const Chunk> want;
    if (!store->Get(id, &got).ok() || !reference.Get(id, &want).ok() ||
        got->payload() != want->payload()) {
      mismatches++;
    }
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(std::filesystem::file_size(segment), built_size);
  EXPECT_TRUE(store->status().ok());
}

// The GC mark reads meta nodes only. From a cleared cache, one pass's
// live set is the one a walk loading every node finds, the mark reads
// at most one record per meta node plus the tree height, the
// pass collects exactly the chunks outside that set, and the leaves a
// reader had cached stay cached (the mark's twin of the test above).
TEST_F(PersistenceTest, GcMarkReadsOnlyMetaNodesAndLeavesReaderLeavesCached) {
  constexpr int kKeys = 20000;
  BufferCache cache(/*capacity_bytes=*/1 << 20, /*shard_count=*/1);
  FileChunkStore::Options options;
  options.segment_bytes = 64 << 10;
  options.cache = &cache;
  std::unique_ptr<FileChunkStore> store;
  ASSERT_TRUE(
      FileChunkStore::Open(Env::Default(), dir_ + "/chunks", options, &store)
          .ok());
  MetricsRegistry registry;
  store->ExportMetrics(&registry);
  PosTree tree(store.get());
  tree.SetNodeCache(&cache);
  std::vector<PosEntry> entries;
  for (int i = 0; i < kKeys; i++) {
    entries.push_back({PagedKey(i), PagedValue(i, 0, 100)});
  }
  Hash256 root;
  ASSERT_TRUE(tree.Build(std::move(entries), &root).ok());
  store->OnBlockSealed();
  // Overwrites make versions; the newest three are retained.
  std::vector<Hash256> retained;
  for (int i = 0; i < 64; i++) {
    const int k = (i * 7919) % kKeys;
    ASSERT_TRUE(tree.Put(root, PagedKey(k), PagedValue(k, 1, 100), &root).ok());
    retained.push_back(root);
    store->OnBlockSealed();
  }
  retained.erase(retained.begin(), retained.end() - 3);
  ASSERT_TRUE(store->Sync().ok());

  // The reference mark: load every node, counting the meta nodes.
  std::unordered_set<Hash256, Hash256Hasher> reference;
  size_t metas = 0;
  std::vector<Hash256> pending(retained.begin(), retained.end());
  while (!pending.empty()) {
    const Hash256 id = pending.back();
    pending.pop_back();
    if (!reference.insert(id).second) continue;
    std::shared_ptr<const Chunk> chunk;
    ASSERT_TRUE(store->Get(id, &chunk).ok());
    std::shared_ptr<const PosNode> node;
    ASSERT_TRUE(PosNode::Decode(chunk, &node).ok());
    if (node->is_leaf()) continue;
    metas++;
    for (const PosChildRef& c : node->children()) pending.push_back(c.id);
  }
  uint32_t height = 0;
  ASSERT_TRUE(tree.Height(retained.back(), &height).ok());
  ASSERT_GE(height, 3u);
  const uint64_t stored = store->stats().chunk_count;

  // A reader caches 20 leaves of the newest version.
  cache.Clear();
  std::vector<Hash256> reader_leaves;
  for (int i = 0; i < kKeys; i += kKeys / 20) {
    std::string value;
    PosProof proof;
    ASSERT_TRUE(tree.Get(retained.back(), PagedKey(i), &value, &proof).ok());
    const ProofNode& leaf = proof.nodes.back();
    reader_leaves.push_back(
        Chunk::IdOf(static_cast<ChunkType>(leaf.type), leaf.payload));
  }

  // A chunk read costs one positional read of its record, plus one per
  // base when the record is a delta (chunk.file.chain_reads); only the
  // former count nodes.
  const auto node_reads = [&] {
    const MetricsSnapshot m = registry.Snapshot();
    return m.CounterValue("chunk.file.reads") -
           m.CounterValue("chunk.file.chain_reads");
  };
  const uint64_t reads_before = node_reads();
  const uint64_t mark = store->BeginGc();
  std::unordered_set<Hash256, Hash256Hasher> live;
  for (const Hash256& r : retained) {
    ASSERT_TRUE(tree.CollectChunks(r, &live).ok());
  }
  EXPECT_LE(node_reads() - reads_before, metas + height);
  EXPECT_TRUE(live == reference);

  ChunkGcStats stats;
  ASSERT_TRUE(store->RetainLive(live, mark, &stats).ok());
  EXPECT_EQ(stats.dead_chunks, stored - reference.size());
  EXPECT_EQ(stats.live_chunks, reference.size());
  for (const Hash256& id : reader_leaves) {
    EXPECT_NE(cache.Lookup(BufferCache::kRawChunk, id), nullptr);
    EXPECT_NE(cache.Lookup(BufferCache::kPosNode, id), nullptr);
  }
  for (int i = 0; i < kKeys; i += 97) {
    std::string value;
    PosProof proof;
    ASSERT_TRUE(tree.Get(retained.front(), PagedKey(i), &value, &proof).ok());
    EXPECT_TRUE(
        VerifyPosProof(retained.front(), PagedKey(i), value, proof).ok());
  }
}

// --- Retired index nodes ----------------------------------------------------

// The bytes of every node of the current version, as a range proof
// over the whole key space cites them.
size_t LiveNodeBytes(const SpitzDb& db) {
  std::vector<PosEntry> rows;
  ScanProof proof;
  EXPECT_TRUE(db.ReadRange(kCurrentVersion, "", "", 0, &rows, &proof).ok());
  return proof.index_proof.ByteSize();
}

// A write's replaced index nodes leave the buffer cache once its block
// leaves the retain_versions window, so a cache far larger than the
// data holds the retained versions, not the write history: 20k
// overwrites of a 64-key hot set, a block each, leave cache.bytes
// within a small multiple of the live tree (each node is charged raw
// and decoded, for the live version and the retained ones), where
// keeping every superseded node would fill the whole budget.
TEST_F(PersistenceTest, OverwritesLeaveTheCacheHoldingTheRetainedVersions) {
  SpitzOptions options = DurableOptions(/*block_size=*/1);
  options.buffer_cache_bytes = 8 << 20;
  std::unique_ptr<SpitzDb> db;
  ASSERT_TRUE(SpitzDb::Open(options, &db).ok());
  constexpr int kHot = 64;
  for (int i = 0; i < 20000; i++) {
    const int k = static_cast<int>((i * 37u) % kHot);
    ASSERT_TRUE(db->Put(PagedKey(k), PagedValue(k, i, 100)).ok());
  }
  const size_t live = LiveNodeBytes(*db);
  const MetricsSnapshot m = db->Metrics();
  EXPECT_LT(m.GaugeValue("cache.bytes"),
            4 * (options.retain_versions + 2) * live);
  EXPECT_EQ(m.CounterValue("cache.evictions"), 0u);
  EXPECT_GT(m.CounterValue("index.cache.erases"), 0u);
}

// A read pinned to a version inside the retain_versions window is
// served from the cache; one pinned to a version that has left it
// reads the store (its replaced nodes are no longer cached) and still
// verifies against that version.
TEST_F(PersistenceTest, PinnedReadsHitTheCacheInsideTheWindowAndTheStoreOutside) {
  SpitzOptions options = DurableOptions(/*block_size=*/1);
  options.buffer_cache_bytes = 8 << 20;
  std::unique_ptr<SpitzDb> db;
  ASSERT_TRUE(SpitzDb::Open(options, &db).ok());
  constexpr int kKeys = 64;
  for (int k = 0; k < kKeys; k++) {
    ASSERT_TRUE(db->Put(PagedKey(k), PagedValue(k, 0, 100)).ok());
  }
  const SpitzDigest pinned = db->Digest();
  const auto file_reads = [&] {
    return db->Metrics().CounterValue("chunk.file.reads");
  };
  // Reads every key at the pinned version and verifies each against
  // it; returns the segment reads they cost.
  const auto read_pinned = [&] {
    const uint64_t before = file_reads();
    int failures = 0;
    for (int k = 0; k < kKeys; k++) {
      std::string value;
      ReadProof proof;
      if (!db->Read(pinned.index_root, PagedKey(k), &value, &proof).ok() ||
          value != PagedValue(k, 0, 100) ||
          !VerifyRead(pinned, PagedKey(k), value, proof).ok()) {
        failures++;
      }
    }
    EXPECT_EQ(failures, 0);
    return file_reads() - before;
  };
  const auto overwrite_blocks = [&](size_t blocks, int round) {
    for (size_t b = 0; b < blocks; b++) {
      const int k = static_cast<int>(b % kKeys);
      ASSERT_TRUE(db->Put(PagedKey(k), PagedValue(k, round, 100)).ok());
    }
    ASSERT_TRUE(db->SyncStorage().ok());  // no record left unflushed
  };
  read_pinned();  // every node of the pinned version cached

  overwrite_blocks(options.retain_versions / 2, 1);
  EXPECT_EQ(read_pinned(), 0u);

  overwrite_blocks(options.retain_versions + 2, 2);
  EXPECT_GT(read_pinned(), 0u);
}

// --- Format pin -------------------------------------------------------------

// Every byte Spitz puts on disk or on the wire is named by a SHA-256 or
// guarded by a CRC32C. These constants were captured from the portable
// kernels; any change to either hash, to the block encoding, to the
// journal.log framing or to the seal path that moved a single output
// byte fails here. Block timestamps are wall-clock, so the journal is
// re-chained from its decoded blocks with timestamp = height, into a
// journal.log of its own, before its hashes and its bytes are pinned.
// The hashes hash canonical entries, not their stored form, which
// kGoldenJournal alone pins.
// On a multi-core host, 2000 entries in 32 blocks span several workers
// of every parallel step of BulkLoad and of recovery.
TEST_F(PersistenceTest, FormatPinBulkLoadJournalAndFrameMatchGolden) {
  const char kGoldenPosRoot[] =
      "e27fbe46a315f79f2226f0673406d098f632fab9cf701ec4d98aee0e2d4012db";
  const char kGoldenSegments[] =
      "ecad8fa4d6b96a4ec589fb39cfb4706b79941ae91a1a6aa603a66ae189e725b7";
  const char kGoldenTipHash[] =
      "c09f00719066316771c39fef4617dd59b575a6fdf8cee8c3e7f9e80adca035a3";
  const char kGoldenMerkleRoot[] =
      "8d95186c1cc2f370c55dab7c6687df1a22f1665e4c9ec4ecca5a33d148b66ef7";
  const char kGoldenFrame[] =
      "37456a166ded5f85902b4006baf237e2a5ed7ba1d9d94697aeb50aa2cc1b761b";
  const uint32_t kGoldenFrameCrc = 0xedab5670u;
  const char kGoldenJournal[] =
      "808a9cc78f8f7f82fdb8af49701931ca018ffa377400b6192e5ac35ff3631be2";
  Random rnd(20200901);
  std::vector<PosEntry> entries;
  for (int i = 0; i < 2000; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "user%06d", i);
    entries.push_back({key, BinaryPayload(&rnd, 1 + rnd.Uniform(600))});
  }
  {
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(DurableOptions(64), &db).ok());
    ASSERT_TRUE(db->BulkLoad(entries).ok());
    ASSERT_TRUE(db->FlushBlock().ok());
    ASSERT_TRUE(db->SyncStorage().ok());
    EXPECT_EQ(db->Digest().index_root.ToHex(), kGoldenPosRoot);
  }

  // Chunk segments: every chunk record, id and CRC, byte for byte.
  std::vector<std::string> segments;
  for (const auto& file :
       std::filesystem::directory_iterator(dir_ + "/chunks")) {
    std::string name = file.path().filename().string();
    if (name.rfind("chunk-", 0) == 0) segments.push_back(name);
  }
  std::sort(segments.begin(), segments.end());
  ASSERT_FALSE(segments.empty());
  std::string segment_bytes;
  for (const std::string& name : segments) {
    segment_bytes += ReadWholeFile(dir_ + "/chunks/" + name);
  }
  EXPECT_EQ(Hash256::Of(segment_bytes).ToHex(), kGoldenSegments);

  const std::string journal_path = dir_ + "/journal.log";
  const std::string journal_bytes = ReadWholeFile(journal_path);
  std::vector<Slice> records;
  uint64_t consumed = 0;
  ASSERT_TRUE(
      ReadRecordFrames(journal_bytes, journal_path, &records, &consumed).ok());
  ASSERT_EQ(consumed, journal_bytes.size());
  ASSERT_EQ(journal_bytes.substr(0, Journal::HeaderFrame().size()),
            Journal::HeaderFrame());
  const std::string rechained_path = dir_ + "/rechained.log";
  Journal rechained;
  uint64_t truncated = 0;
  ASSERT_TRUE(rechained
                  .Open(Env::Default(), rechained_path,
                        [](const Block&) {}, &truncated)
                  .ok());
  for (size_t i = 1; i < records.size(); i++) {
    Block block;
    ASSERT_TRUE(Block::Decode(records[i], &block).ok());
    EXPECT_EQ(block.Encode(), records[i].ToString());
    rechained.Append(block.entries(), block.index_root(), block.height());
  }
  ASSERT_TRUE(rechained.Flush().ok());
  EXPECT_EQ(Hash256::Of(ReadWholeFile(rechained_path)).ToHex(),
            kGoldenJournal);
  std::filesystem::remove(rechained_path);
  JournalDigest journal = rechained.Digest();
  EXPECT_EQ(journal.block_count, 32u);
  EXPECT_EQ(journal.entry_count, 2000u);
  EXPECT_EQ(journal.tip_hash.ToHex(), kGoldenTipHash);
  EXPECT_EQ(journal.merkle_root.ToHex(), kGoldenMerkleRoot);

  // Recovery replays that journal onto the same index root.
  {
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(DurableOptions(64), &db).ok());
    EXPECT_EQ(db->Digest().index_root.ToHex(), kGoldenPosRoot);
    EXPECT_EQ(db->Digest().journal.block_count, 32u);
  }

  // Wire: one frame the size of a point-proof reply.
  std::string encoded(kFramePrefixBytes, '\0');
  encoded.append(BinaryPayload(&rnd, 13 * 1024 + 5));
  SealFrame(5, 0x0102030405060708ull, 0, &encoded);
  EXPECT_EQ(DecodeFixed32(encoded.data() + 4), kGoldenFrameCrc);
  EXPECT_EQ(Hash256::Of(encoded).ToHex(), kGoldenFrame);
}

}  // namespace
}  // namespace spitz
