#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chunk/blob_store.h"
#include "chunk/chunk.h"
#include "chunk/chunk_store.h"
#include "chunk/chunker.h"
#include "chunk/rolling_hash.h"
#include "common/random.h"

namespace spitz {
namespace {

// --- Chunk -----------------------------------------------------------------

TEST(ChunkTest, IdDependsOnTypeAndPayload) {
  Chunk a(ChunkType::kBlob, "payload");
  Chunk b(ChunkType::kBlob, "payload");
  Chunk c(ChunkType::kIndexLeaf, "payload");
  Chunk d(ChunkType::kBlob, "payloae");
  EXPECT_EQ(a.id(), b.id());
  EXPECT_NE(a.id(), c.id());
  EXPECT_NE(a.id(), d.id());
}

TEST(ChunkTest, StoredSizeIncludesTypeByte) {
  Chunk a(ChunkType::kBlob, "12345");
  EXPECT_EQ(a.stored_size(), 6u);
}

// --- ChunkStore --------------------------------------------------------------

TEST(ChunkStoreTest, PutGetRoundTrip) {
  ChunkStore store;
  Hash256 id = store.Put(Chunk(ChunkType::kBlob, "hello"));
  std::shared_ptr<const Chunk> out;
  ASSERT_TRUE(store.Get(id, &out).ok());
  EXPECT_EQ(out->payload(), "hello");
  EXPECT_EQ(out->type(), ChunkType::kBlob);
}

TEST(ChunkStoreTest, GetMissingReturnsNotFound) {
  ChunkStore store;
  std::shared_ptr<const Chunk> out;
  EXPECT_TRUE(store.Get(Hash256::Of("nope"), &out).IsNotFound());
}

TEST(ChunkStoreTest, DedupCountsHits) {
  ChunkStore store;
  store.Put(Chunk(ChunkType::kBlob, "same"));
  store.Put(Chunk(ChunkType::kBlob, "same"));
  store.Put(Chunk(ChunkType::kBlob, "different"));
  ChunkStoreStats stats = store.stats();
  EXPECT_EQ(stats.puts, 3u);
  EXPECT_EQ(stats.dedup_hits, 1u);
  EXPECT_EQ(stats.chunk_count, 2u);
  EXPECT_LT(stats.physical_bytes, stats.logical_bytes);
}

// A dedup hit between a GC pass's BeginGc and its RetainLive
// re-references a chunk the pass's mark did not reach: the pass keeps
// it, and collects the chunk nothing re-referenced.
TEST(ChunkStoreTest, DedupHitDuringAPassKeepsTheChunk) {
  ChunkStore store;
  const Chunk x(ChunkType::kBlob, "x");
  const Chunk y(ChunkType::kBlob, "y");
  store.Put(x);
  store.Put(y);
  const uint64_t mark = store.BeginGc();
  store.Put(x);
  ChunkGcStats stats;
  ASSERT_TRUE(store.RetainLive({}, mark, &stats).ok());
  EXPECT_TRUE(store.Contains(x.id()));
  EXPECT_FALSE(store.Contains(y.id()));
  EXPECT_EQ(stats.dead_chunks, 1u);
}

TEST(ChunkStoreTest, ContainsReflectsContent) {
  ChunkStore store;
  Chunk c(ChunkType::kBlob, "x");
  EXPECT_FALSE(store.Contains(c.id()));
  store.Put(c);
  EXPECT_TRUE(store.Contains(c.id()));
}

// --- RollingHash -------------------------------------------------------------

TEST(RollingHashTest, DeterministicGivenWindowContent) {
  // After a full window, the hash must depend only on the last
  // kWindowSize bytes, not on earlier history.
  std::string suffix(RollingHash::kWindowSize, 'k');
  for (size_t i = 0; i < suffix.size(); i++) suffix[i] = char('a' + i % 26);

  RollingHash h1;
  for (char c : std::string("prefix-one-") + suffix) {
    h1.Roll(static_cast<uint8_t>(c));
  }
  RollingHash h2;
  for (char c : std::string("a-completely-different-prefix!!") + suffix) {
    h2.Roll(static_cast<uint8_t>(c));
  }
  EXPECT_EQ(h1.hash(), h2.hash());
}

TEST(RollingHashTest, WindowFullAfterWindowSizeBytes) {
  RollingHash h;
  for (size_t i = 0; i < RollingHash::kWindowSize - 1; i++) {
    h.Roll('x');
    EXPECT_FALSE(h.window_full());
  }
  h.Roll('x');
  EXPECT_TRUE(h.window_full());
}

// --- Chunker -----------------------------------------------------------------

TEST(ChunkerTest, ExtentsCoverInputExactly) {
  Random rng(1);
  std::string data = rng.Bytes(100000);
  auto extents = ChunkData(data);
  ASSERT_FALSE(extents.empty());
  size_t pos = 0;
  for (const auto& e : extents) {
    EXPECT_EQ(e.offset, pos);
    pos += e.length;
  }
  EXPECT_EQ(pos, data.size());
}

TEST(ChunkerTest, RespectsMinAndMaxSize) {
  Random rng(2);
  std::string data = rng.Bytes(200000);
  ChunkerOptions opts;
  auto extents = ChunkData(data, opts);
  for (size_t i = 0; i + 1 < extents.size(); i++) {  // last may be short
    EXPECT_GE(extents[i].length, opts.min_size);
    EXPECT_LE(extents[i].length, opts.max_size);
  }
}

TEST(ChunkerTest, EmptyInputYieldsSingleEmptyExtent) {
  auto extents = ChunkData(Slice());
  ASSERT_EQ(extents.size(), 1u);
  EXPECT_EQ(extents[0].length, 0u);
}

TEST(ChunkerTest, LocalEditPreservesDistantBoundaries) {
  Random rng(3);
  std::string data = rng.Bytes(100000);
  auto before = ChunkData(data);
  // Flip one byte near the start.
  std::string edited = data;
  edited[100] ^= 0x5a;
  auto after = ChunkData(edited);
  // Boundaries in the second half of the file must be identical.
  std::vector<size_t> b_before, b_after;
  for (const auto& e : before) {
    if (e.offset > data.size() / 2) b_before.push_back(e.offset);
  }
  for (const auto& e : after) {
    if (e.offset > data.size() / 2) b_after.push_back(e.offset);
  }
  EXPECT_EQ(b_before, b_after);
}

TEST(ChunkerTest, AverageChunkSizeNearExpectation) {
  Random rng(4);
  std::string data = rng.Bytes(2000000);
  ChunkerOptions opts;
  auto extents = ChunkData(data, opts);
  double avg = static_cast<double>(data.size()) / extents.size();
  // Expected ~ min_size + 2^10; allow generous slack.
  EXPECT_GT(avg, 600.0);
  EXPECT_LT(avg, 4000.0);
}

// --- BlobStore ----------------------------------------------------------------

TEST(BlobStoreTest, PutGetRoundTrip) {
  ChunkStore chunks;
  BlobStore blobs(&chunks);
  Random rng(5);
  std::string data = rng.Bytes(50000);
  Hash256 id = blobs.Put(data);
  std::string out;
  ASSERT_TRUE(blobs.Get(id, &out).ok());
  EXPECT_EQ(out, data);
}

TEST(BlobStoreTest, EmptyBlobRoundTrip) {
  ChunkStore chunks;
  BlobStore blobs(&chunks);
  Hash256 id = blobs.Put(Slice());
  std::string out = "junk";
  ASSERT_TRUE(blobs.Get(id, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(BlobStoreTest, IdenticalBlobsShareAllChunks) {
  ChunkStore chunks;
  BlobStore blobs(&chunks);
  Random rng(6);
  std::string data = rng.Bytes(30000);
  Hash256 a = blobs.Put(data);
  uint64_t physical_after_first = chunks.stats().physical_bytes;
  Hash256 b = blobs.Put(data);
  EXPECT_EQ(a, b);
  EXPECT_EQ(chunks.stats().physical_bytes, physical_after_first);
}

TEST(BlobStoreTest, SmallEditSharesMostChunks) {
  // The core Figure-1 property: a localized edit to a 16 KB page adds
  // only a small amount of new physical storage.
  ChunkStore chunks;
  BlobStore blobs(&chunks);
  Random rng(7);
  std::string page = rng.Bytes(16384);
  blobs.Put(page);
  uint64_t before = chunks.stats().physical_bytes;

  std::string edited = page;
  for (int i = 0; i < 20; i++) edited[5000 + i] = 'Z';
  blobs.Put(edited);
  uint64_t added = chunks.stats().physical_bytes - before;
  EXPECT_LT(added, page.size() / 2);  // far less than a full copy
}

TEST(BlobStoreTest, GetMissingBlobFails) {
  ChunkStore chunks;
  BlobStore blobs(&chunks);
  std::string out;
  EXPECT_TRUE(blobs.Get(Hash256::Of("missing"), &out).IsNotFound());
}

TEST(BlobStoreTest, GetOnNonMetaChunkFails) {
  ChunkStore chunks;
  BlobStore blobs(&chunks);
  Hash256 raw = chunks.Put(Chunk(ChunkType::kBlob, "raw"));
  std::string out;
  EXPECT_TRUE(blobs.Get(raw, &out).IsCorruption());
}

TEST(BlobStoreTest, SegmentCountMatchesChunker) {
  ChunkStore chunks;
  BlobStore blobs(&chunks);
  Random rng(8);
  std::string data = rng.Bytes(40000);
  Hash256 id = blobs.Put(data);
  size_t count = 0;
  ASSERT_TRUE(blobs.SegmentCount(id, &count).ok());
  EXPECT_EQ(count, ChunkData(data).size());
}

}  // namespace
}  // namespace spitz
