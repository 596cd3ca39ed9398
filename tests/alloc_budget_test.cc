// Allocation budgets: for verified reads over the wire, and for the
// paged store's resident index of chunk locations. The binary
// counts every byte allocated, by every thread, through a replaced
// global operator new (bench/alloc_counter.h); it is left out of
// sanitizer builds (tests/CMakeLists.txt), whose runtimes own operator
// new.
//
// A verified read should copy each proof byte about once on each side
// of the wire: the server encodes its reply from the cached nodes into
// one buffer, the client reads the reply into one buffer and verifies
// the proof inside it. So the bytes allocated per verified operation,
// server and client together, stay within a small multiple of the
// reply's wire bytes, cache misses included.
//
// A chunk's location in the paged store's index costs its packed record
// plus its share of the open-addressing table, and no allocation of its
// own.

#include <gtest/gtest.h>

#include <malloc.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "chunk/file_chunk_store.h"
#include "cluster/local_fleet.h"
#include "bench/alloc_counter.h"
#include "common/codec.h"
#include "common/random.h"
#include "net/frame.h"
#include "net/spitz_wire.h"

namespace spitz {
namespace {

constexpr int kRecords = 20000;
constexpr size_t kValueBytes = 100;
constexpr int kOps = 400;
constexpr uint64_t kScanRows = 20;
// Allocated bytes per wire byte a verified operation may cost. The old
// proof path, which copied each proof byte about nine times, measured
// 10.9 (gets) and 11.5 (scans) here; this path measures 3.2 and 3.6
// (EXPERIMENTS.md).
constexpr double kMaxBytesPerWireByte = 4.5;

std::string KeyOf(int i) {
  char key[16];
  std::snprintf(key, sizeof(key), "user%08d", i);
  return key;
}

class AllocBudgetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/spitz_alloc_budget_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    LocalFleet::Options options;
    options.db.data_dir = dir_;
    // About 1/8 of the ~2.4 MB of records: most reads miss.
    options.db.buffer_cache_bytes = 320 << 10;
    ASSERT_TRUE(LocalFleet::Open(options, &fleet_).ok());
    Random rnd(27);
    std::vector<PosEntry> entries;
    for (int i = 0; i < kRecords; i++) {
      entries.push_back({KeyOf(i), rnd.Bytes(kValueBytes)});
    }
    ASSERT_TRUE(fleet_->db(0)->BulkLoad(std::move(entries)).ok());
    ASSERT_TRUE(SpitzClient::Open(fleet_->ClientOptions(0), &client_).ok());
  }

  void TearDown() override {
    client_.reset();
    fleet_.reset();
    std::filesystem::remove_all(dir_);
  }

  // The wire bytes of one reply: its frame, prefix included.
  uint64_t WireBytes(uint32_t method, const std::string& request) {
    std::string response;
    EXPECT_TRUE(client_->channel()->Call(method, request, &response).ok());
    return kFramePrefixBytes + response.size();
  }

  // Bytes allocated while `op` runs once per key index, per wire byte
  // of the replies the same requests get.
  template <typename Request, typename Op>
  double BytesPerWireByte(uint32_t method, Request request, Op op) {
    std::vector<int> picks;
    Random rnd(7);
    for (int i = 0; i < kOps; i++) {
      picks.push_back(static_cast<int>(rnd.Uniform(kRecords - kScanRows)));
    }
    uint64_t wire = 0;
    for (int i : picks) wire += WireBytes(method, request(i));
    const uint64_t allocated = alloc_counter::BytesAllocatedBy([&] {
      for (int i : picks) op(i);
    });
    const double ratio = static_cast<double>(allocated) / wire;
    std::printf("%s: %.0f wire bytes/op, %.2f allocated bytes per wire byte\n",
                wire::MethodName(method), static_cast<double>(wire) / kOps,
                ratio);
    return ratio;
  }

  std::string dir_;
  std::unique_ptr<LocalFleet> fleet_;
  std::unique_ptr<SpitzClient> client_;
};

TEST_F(AllocBudgetTest, VerifiedGetAllocatesAFewTimesItsWireBytes) {
  const double ratio = BytesPerWireByte(
      wire::kGetProof,
      [](int i) {
        std::string request;
        PutLengthPrefixedSlice(&request, KeyOf(i));
        return request;
      },
      [&](int i) {
        std::string value;
        ASSERT_TRUE(client_->VerifiedGet(KeyOf(i), &value).ok());
      });
  EXPECT_LE(ratio, kMaxBytesPerWireByte);
}

TEST_F(AllocBudgetTest, VerifiedScanAllocatesAFewTimesItsWireBytes) {
  const double ratio = BytesPerWireByte(
      wire::kScanProof,
      [](int i) {
        std::string request;
        PutLengthPrefixedSlice(&request, KeyOf(i));
        PutLengthPrefixedSlice(&request, "user~");
        PutVarint64(&request, kScanRows);
        return request;
      },
      [&](int i) {
        std::vector<PosEntry> rows;
        ASSERT_TRUE(
            client_->VerifiedScan(KeyOf(i), "user~", kScanRows, &rows).ok());
        ASSERT_EQ(rows.size(), kScanRows);
      });
  EXPECT_LE(ratio, kMaxBytesPerWireByte);
}

// Heap bytes a chunk location may cost, index overhead included: the
// node-per-chunk map the index replaced measured ~142 B (EXPERIMENTS.md
// "A chunk's location in 64 bytes").
constexpr size_t kLocations = 100000;
constexpr double kMaxIndexBytesPerLocation = 72;

// The growth of glibc's in-use heap (mallinfo2, chunk headers included)
// while 100k small chunks are put and synced, per chunk. The sync
// empties the store's map of unflushed chunks, whose bucket array
// (~1.3 B a chunk here) stays and is counted too.
TEST(IndexBudgetTest, AHundredThousandLocationsCostAtMost72BytesEach) {
  const std::string dir = ::testing::TempDir() + "/spitz_index_budget";
  std::filesystem::remove_all(dir);
  std::unique_ptr<FileChunkStore> store;
  ASSERT_TRUE(FileChunkStore::Open(dir, &store).ok());
  Random rnd(3);
  const struct mallinfo2 before = mallinfo2();
  for (size_t i = 0; i < kLocations; i++) {
    store->Put(Chunk(ChunkType::kBlob, rnd.Bytes(64)));
  }
  ASSERT_TRUE(store->Sync().ok());
  const struct mallinfo2 after = mallinfo2();
  const double per_location =
      static_cast<double>((after.uordblks + after.hblkhd) -
                          (before.uordblks + before.hblkhd)) /
      kLocations;
  MetricsRegistry registry;
  store->ExportMetrics(&registry);
  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.GaugeValue("chunk.file.index_entries"), kLocations);
  std::printf("chunk index: %.1f heap bytes per location (%.1f counted by "
              "chunk.file.index_bytes)\n",
              per_location,
              static_cast<double>(snap.GaugeValue("chunk.file.index_bytes")) /
                  kLocations);
  EXPECT_LE(per_location, kMaxIndexBytesPerLocation);
  store.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace spitz
