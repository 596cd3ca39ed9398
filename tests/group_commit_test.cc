// The write pipeline (src/core/group_commit.h) on its own: a journal on
// a temporary directory and a chunk store whose Sync can be held or
// failed, so the durability barrier's coalescing and failure rules are
// checked deterministically, without timing.

#include "core/group_commit.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/spitz_db.h"

namespace spitz {
namespace {

// An in-memory chunk store whose Sync counts its calls, can be held on
// a latch, and can fail once.
class LatchedSyncStore : public ChunkStore {
 public:
  Status Sync() override {
    std::unique_lock<std::mutex> lock(mu_);
    calls_++;
    cv_.notify_all();
    cv_.wait(lock, [&] { return !held_; });
    if (fail_next_) {
      fail_next_ = false;
      return Status::IOError("injected chunk sync failure");
    }
    return Status::OK();
  }

  void Hold() {
    std::lock_guard<std::mutex> lock(mu_);
    held_ = true;
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    held_ = false;
    cv_.notify_all();
  }
  void FailNext() {
    std::lock_guard<std::mutex> lock(mu_);
    fail_next_ = true;
  }
  int calls() {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }
  void WaitForCalls(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return calls_ >= n; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int calls_ = 0;
  bool held_ = false;
  bool fail_next_ = false;
};

class GroupCommitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/spitz_group_commit_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    uint64_t truncated = 0;
    ASSERT_TRUE(journal_
                    .Open(Env::Default(), dir_ + "/journal.log",
                          [](const Block&) {}, &truncated)
                    .ok());
    // The apply step seals one block per member, under mu_.
    commit_ = std::make_unique<GroupCommit>(
        &mu_, &journal_, &store_,
        [this](const std::vector<GroupCommit::Request*>& group, bool) {
          for (GroupCommit::Request* r : group) {
            std::vector<LedgerEntry> entries;
            for (const WriteBatch::Op& op : r->batch->ops()) {
              LedgerEntry& entry = entries.emplace_back();
              entry.key = op.key;
              entry.value_hash = Hash256::Of(op.value);
            }
            journal_.Append(std::move(entries), Hash256(), 0);
            r->status = Status::OK();
            applied_.fetch_add(1);
          }
          return true;
        },
        [](uint64_t) {}, &registry_);
  }

  void TearDown() override {
    commit_.reset();
    std::filesystem::remove_all(dir_);
  }

  Status SyncPut(const std::string& key) {
    WriteBatch batch;
    batch.Put(key, "v");
    return commit_->Commit(batch, /*sync=*/true, /*bypass_txn=*/0);
  }

  uint64_t JournalFsyncs() const {
    return registry_.Snapshot().CounterValue("core.db.journal.fsyncs");
  }

  std::string dir_;
  std::mutex mu_;
  Journal journal_;
  LatchedSyncStore store_;
  MetricsRegistry registry_;
  std::atomic<int> applied_{0};
  std::unique_ptr<GroupCommit> commit_;
};

// While one barrier is held in its chunk sync, 7 more sync commits seal
// and wait; once it is released, exactly one more barrier covers all 7.
TEST_F(GroupCommitTest, HeldBarrierCoalescesTheNextSevenSyncCommits) {
  store_.Hold();
  Status first;
  std::thread leader([&] { first = SyncPut("first"); });
  store_.WaitForCalls(1);

  constexpr int kWaiters = 7;
  std::vector<Status> statuses(kWaiters);
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; i++) {
    waiters.emplace_back(
        [&, i] { statuses[i] = SyncPut("waiter" + std::to_string(i)); });
  }
  // Every waiter's block is sealed before the first barrier completes.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (applied_.load() < 1 + kWaiters &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(applied_.load(), 1 + kWaiters);
  EXPECT_EQ(store_.calls(), 1);

  store_.Release();
  leader.join();
  for (std::thread& t : waiters) t.join();
  EXPECT_TRUE(first.ok()) << first.ToString();
  for (const Status& s : statuses) EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(store_.calls(), 2);
  EXPECT_EQ(JournalFsyncs(), 2u);
  // The second barrier hardened every block: a sync of all of them
  // piggybacks.
  EXPECT_TRUE(commit_->Sync(1 + kWaiters).ok());
  EXPECT_EQ(store_.calls(), 2);
}

// A chunk sync that fails fails the group whose barrier ran it and
// advances nothing; the next barrier runs it again and succeeds.
TEST_F(GroupCommitTest, FailedSyncFailsItsGroupAndAdvancesNothing) {
  store_.FailNext();
  EXPECT_TRUE(SyncPut("a").IsIOError());
  EXPECT_EQ(store_.calls(), 1);
  EXPECT_EQ(JournalFsyncs(), 0u);

  // Block 1 is not covered: a sync of it runs a barrier of its own.
  EXPECT_TRUE(commit_->Sync(1).ok());
  EXPECT_EQ(store_.calls(), 2);
  EXPECT_EQ(JournalFsyncs(), 1u);
  // Now it is.
  EXPECT_TRUE(commit_->Sync(1).ok());
  EXPECT_EQ(store_.calls(), 2);
  EXPECT_TRUE(SyncPut("b").ok());
  EXPECT_EQ(store_.calls(), 3);
}

// One SyncStorage after unsynced small writes fsyncs the chunk log
// exactly once (chunk.file.fsyncs) and the journal exactly once.
TEST_F(GroupCommitTest, SyncStorageAfterUnsyncedWritesIsOneChunkFsync) {
  SpitzOptions options;
  options.data_dir = dir_ + "/db";
  std::unique_ptr<SpitzDb> db;
  ASSERT_TRUE(SpitzDb::Open(options, &db).ok());
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(db->Put("key" + std::to_string(i), "value").ok());
  }
  ASSERT_TRUE(db->FlushBlock().ok());
  const MetricsSnapshot before = db->Metrics();
  ASSERT_TRUE(db->SyncStorage().ok());
  const MetricsSnapshot after = db->Metrics();
  EXPECT_EQ(after.CounterValue("chunk.file.fsyncs"),
            before.CounterValue("chunk.file.fsyncs") + 1);
  EXPECT_EQ(after.CounterValue("core.db.journal.fsyncs"),
            before.CounterValue("core.db.journal.fsyncs") + 1);
}

}  // namespace
}  // namespace spitz
