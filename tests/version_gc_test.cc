// The version GC (src/core/version_gc.h): the background thread's pass
// every gc_interval_blocks sealed blocks, a clean stop when the
// database closes right after waking one, and passes marking beside a
// writer.

#include "core/version_gc.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/spitz_db.h"

namespace spitz {
namespace {

// The process's thread count, from /proc/self/status.
int ThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string field;
  while (status >> field) {
    if (field == "Threads:") {
      int n = 0;
      status >> n;
      return n;
    }
  }
  return -1;
}

class VersionGcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/spitz_version_gc_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<SpitzDb> Open(size_t gc_interval_blocks) {
    SpitzOptions options;
    options.data_dir = dir_;
    options.gc_interval_blocks = gc_interval_blocks;
    options.retain_versions = 1;
    std::unique_ptr<SpitzDb> db;
    EXPECT_TRUE(SpitzDb::Open(options, &db).ok());
    return db;
  }

  // One sealed block: a Put, then FlushBlock.
  static void Seal(SpitzDb* db, int i) {
    ASSERT_TRUE(db->Put("key" + std::to_string(i % 3), std::to_string(i)).ok());
    ASSERT_TRUE(db->FlushBlock().ok());
  }

  static uint64_t Runs(SpitzDb* db) {
    return db->Metrics().CounterValue("gc.runs");
  }

  // Polls gc.runs until it reaches `runs` or a deadline passes.
  static uint64_t WaitForRuns(SpitzDb* db, uint64_t runs) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (Runs(db) < runs && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Runs(db);
  }

  std::string dir_;
};

TEST_F(VersionGcTest, BackgroundPassRunsEveryIntervalBlocks) {
  std::unique_ptr<SpitzDb> db = Open(/*gc_interval_blocks=*/4);
  for (int i = 0; i < 3; i++) Seal(db.get(), i);
  // Three seals do not wake the thread; give a wrongly woken pass time
  // to show.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(Runs(db.get()), 0u);

  Seal(db.get(), 3);
  EXPECT_EQ(WaitForRuns(db.get(), 1), 1u);
  for (int i = 4; i < 8; i++) Seal(db.get(), i);
  EXPECT_EQ(WaitForRuns(db.get(), 2), 2u);
  EXPECT_EQ(db->Metrics().CounterValue("gc.failures"), 0u);
}

// A bulk load replaces no version, so the blocks it seals count toward
// no interval: no pass runs until `gc_interval_blocks` blocks seal
// after it.
TEST_F(VersionGcTest, BulkLoadStartsTheIntervalCountAtItsHeight) {
  std::unique_ptr<SpitzDb> db = Open(/*gc_interval_blocks=*/4);
  std::vector<PosEntry> entries;
  for (int i = 0; i < 64 * 10; i++) {
    entries.push_back({"load" + std::to_string(10000 + i), "v"});
  }
  ASSERT_TRUE(db->BulkLoad(std::move(entries)).ok());
  ASSERT_EQ(db->Digest().journal.block_count, 10u);
  for (int i = 0; i < 3; i++) Seal(db.get(), i);
  // Give a wrongly woken pass time to show.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(Runs(db.get()), 0u);

  Seal(db.get(), 3);
  EXPECT_EQ(WaitForRuns(db.get(), 1), 1u);
  EXPECT_EQ(db->Metrics().CounterValue("gc.failures"), 0u);
}

TEST_F(VersionGcTest, ClosingRightAfterAWakingSealLeavesNoThread) {
  // Opens, seals one block (waking a pass) and closes at once, with the
  // pass queued or running; returns the thread count once it settles.
  auto open_seal_close = [&] {
    {
      std::unique_ptr<SpitzDb> db = Open(/*gc_interval_blocks=*/1);
      Seal(db.get(), 0);
    }
    std::filesystem::remove_all(dir_);
    // A joined thread can linger in /proc for a moment after the join.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return ThreadCount();
  };
  // The first round also starts whatever threads the runtime keeps for
  // the life of the process (a sanitizer's, for one).
  const int threads_before = open_seal_close();
  ASSERT_GT(threads_before, 0);
  for (int round = 0; round < 3; round++) {
    EXPECT_EQ(open_seal_close(), threads_before) << "round " << round;
  }
}

// Passes mark the retained roots while a writer keeps committing on a
// bulk-loaded database: every pass succeeds, and afterwards every key
// reads back verified with its latest value.
TEST_F(VersionGcTest, PassesBesideAWriterKeepEveryKeyVerified) {
  constexpr int kKeys = 2000;
  constexpr int kWrites = 400;
  SpitzOptions options;
  options.data_dir = dir_;
  options.block_size = 8;
  options.chunk_segment_bytes = 16 << 10;
  options.retain_versions = 2;
  std::unique_ptr<SpitzDb> db;
  ASSERT_TRUE(SpitzDb::Open(options, &db).ok());
  const auto key = [](int i) { return "key" + std::to_string(10000 + i); };
  std::map<std::string, std::string> model;
  std::vector<PosEntry> entries;
  for (int i = 0; i < kKeys; i++) {
    entries.push_back({key(i), "v" + std::to_string(i)});
    model[key(i)] = entries.back().value;
  }
  ASSERT_TRUE(db->BulkLoad(entries).ok());
  for (int i = 0; i < kWrites; i++) {
    model[key(i * 7 % kKeys)] = "w" + std::to_string(i);
  }

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < kWrites; i++) {
      EXPECT_TRUE(db->Put(key(i * 7 % kKeys), "w" + std::to_string(i)).ok());
    }
    done = true;
  });
  int passes = 0;
  while (!done) {
    EXPECT_TRUE(db->gc()->Collect().ok());
    passes++;
  }
  writer.join();
  ASSERT_TRUE(db->FlushBlock().ok());
  ASSERT_TRUE(db->gc()->Collect().ok());
  EXPECT_GT(passes, 0);

  const SpitzDigest digest = db->Digest();
  int failures = 0;
  for (const auto& [k, v] : model) {
    std::string value;
    ReadProof proof;
    if (!db->Read(kCurrentVersion, k, &value, &proof).ok() ||
        !VerifyRead(digest, k, value, proof).ok() || value != v) {
      failures++;
    }
  }
  EXPECT_EQ(failures, 0);
}

}  // namespace
}  // namespace spitz
