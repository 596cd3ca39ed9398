#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_env.h"
#include "common/random.h"
#include "txn/batch_verifier.h"
#include "txn/hlc.h"
#include "txn/mvcc.h"
#include "txn/participant.h"
#include "txn/timestamp_oracle.h"
#include "txn/two_phase_commit.h"
#include "txn/write_batch.h"

namespace spitz {
namespace {

// --- HybridLogicalClock -------------------------------------------------------

TEST(HlcTest, StrictlyIncreasing) {
  HybridLogicalClock hlc;
  uint64_t prev = 0;
  for (int i = 0; i < 10000; i++) {
    uint64_t t = hlc.Now();
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(HlcTest, ObservePreservesCausality) {
  HybridLogicalClock a, b;
  uint64_t ta = a.Now();
  uint64_t remote = ta + (1000ull << HybridLogicalClock::kLogicalBits);
  uint64_t tb = b.Observe(remote);
  EXPECT_GT(tb, remote);
  EXPECT_GT(b.Now(), tb);
}

TEST(HlcTest, ConcurrentNowIsUnique) {
  HybridLogicalClock hlc;
  constexpr int kThreads = 8, kEach = 2000;
  std::vector<std::vector<uint64_t>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kEach; i++) results[t].push_back(hlc.Now());
    });
  }
  for (auto& th : threads) th.join();
  std::set<uint64_t> all;
  for (auto& v : results) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), static_cast<size_t>(kThreads * kEach));
}

// --- TimestampOracle ------------------------------------------------------------

TEST(TimestampOracleTest, AllocateAndBatch) {
  TimestampOracle oracle(100);
  EXPECT_EQ(oracle.Allocate(), 100u);
  EXPECT_EQ(oracle.Allocate(), 101u);
  uint64_t first = oracle.AllocateBatch(10);
  EXPECT_EQ(first, 102u);
  EXPECT_EQ(oracle.Allocate(), 112u);
}

// --- WriteBatch -------------------------------------------------------------------

TEST(WriteBatchTest, EncodeDecodeRoundTrip) {
  WriteBatch b;
  b.Put("k1", "v1");
  b.Delete("k2");
  b.Put("k3", std::string(1000, 'x'));
  WriteBatch out;
  ASSERT_TRUE(WriteBatch::Decode(b.Encode(), &out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out.ops()[0].type, WriteBatch::OpType::kPut);
  EXPECT_EQ(out.ops()[0].key, "k1");
  EXPECT_EQ(out.ops()[1].type, WriteBatch::OpType::kDelete);
  EXPECT_EQ(out.ops()[2].value.size(), 1000u);
}

TEST(WriteBatchTest, DecodeTruncatedFails) {
  WriteBatch b;
  b.Put("key", "value");
  std::string encoded = b.Encode();
  encoded.resize(encoded.size() - 3);
  WriteBatch out;
  EXPECT_TRUE(WriteBatch::Decode(encoded, &out).IsCorruption());
}

// --- MvccStore -----------------------------------------------------------------------

TEST(MvccTest, SnapshotReadsSeeCorrectVersions) {
  MvccStore store;
  WriteBatch b1;
  b1.Put("k", "v10");
  ASSERT_TRUE(store.CommitBatch(b1, 10).ok());
  WriteBatch b2;
  b2.Put("k", "v20");
  ASSERT_TRUE(store.CommitBatch(b2, 20).ok());

  std::string value;
  ASSERT_TRUE(store.Read("k", 15, &value).ok());
  EXPECT_EQ(value, "v10");
  ASSERT_TRUE(store.Read("k", 25, &value).ok());
  EXPECT_EQ(value, "v20");
  EXPECT_TRUE(store.Read("k", 5, &value).IsNotFound());
}

TEST(MvccTest, DeleteCreatesTombstone) {
  MvccStore store;
  WriteBatch b1;
  b1.Put("k", "v");
  ASSERT_TRUE(store.CommitBatch(b1, 10).ok());
  WriteBatch b2;
  b2.Delete("k");
  ASSERT_TRUE(store.CommitBatch(b2, 20).ok());
  std::string value;
  ASSERT_TRUE(store.Read("k", 15, &value).ok());
  EXPECT_TRUE(store.Read("k", 25, &value).IsNotFound());
}

TEST(MvccTest, TimestampOrderingConflictAborts) {
  MvccStore store;
  WriteBatch init;
  init.Put("k", "v0");
  ASSERT_TRUE(store.CommitBatch(init, 10).ok());

  // A reader at ts=30 reads the version written at 10.
  std::string value;
  ASSERT_TRUE(store.Read("k", 30, &value).ok());

  // A writer at ts=20 now tries to install between them: aborted,
  // because the ts=30 read would have had to see it.
  WriteBatch late;
  late.Put("k", "v20");
  EXPECT_TRUE(store.CommitBatch(late, 20).IsAborted());
  EXPECT_EQ(store.stats().aborts, 1u);

  // A writer above the read timestamp is fine.
  WriteBatch ok;
  ok.Put("k", "v40");
  EXPECT_TRUE(store.CommitBatch(ok, 40).ok());
}

TEST(MvccTest, WriteBelowUnreadVersionAllowed) {
  MvccStore store;
  WriteBatch b1;
  b1.Put("k", "v30");
  ASSERT_TRUE(store.CommitBatch(b1, 30).ok());
  // No one has read at/below 20, so inserting an older version keeps
  // timestamp order consistent.
  WriteBatch b2;
  b2.Put("k", "v20");
  EXPECT_TRUE(store.CommitBatch(b2, 20).ok());
  std::string value;
  ASSERT_TRUE(store.Read("k", 25, &value).ok());
  EXPECT_EQ(value, "v20");
}

TEST(MvccTest, DuplicateWriteTimestampAborts) {
  MvccStore store;
  WriteBatch b;
  b.Put("k", "v");
  ASSERT_TRUE(store.CommitBatch(b, 10).ok());
  WriteBatch dup;
  dup.Put("k", "other");
  EXPECT_TRUE(store.CommitBatch(dup, 10).IsAborted());
}

TEST(MvccTest, PreparedKeyBlocksReadersAndWriters) {
  MvccStore store;
  WriteBatch b;
  b.Put("k", "v");
  ASSERT_TRUE(store.Prepare(b, 10).ok());

  std::string value;
  EXPECT_TRUE(store.Read("k", 20, &value).IsBusy());
  WriteBatch other;
  other.Put("k", "w");
  EXPECT_TRUE(store.CommitBatch(other, 30).IsBusy());

  store.CommitPrepared(b, 10);
  ASSERT_TRUE(store.Read("k", 20, &value).ok());
  EXPECT_EQ(value, "v");
}

TEST(MvccTest, AbortPreparedReleasesLock) {
  MvccStore store;
  WriteBatch b;
  b.Put("k", "v");
  ASSERT_TRUE(store.Prepare(b, 10).ok());
  store.AbortPrepared(b, 10);
  std::string value;
  EXPECT_TRUE(store.Read("k", 20, &value).IsNotFound());
  WriteBatch other;
  other.Put("k", "w");
  EXPECT_TRUE(store.CommitBatch(other, 30).ok());
}

TEST(MvccTest, LiveKeyCountAtSnapshots) {
  MvccStore store;
  WriteBatch b1;
  b1.Put("a", "1");
  b1.Put("b", "2");
  ASSERT_TRUE(store.CommitBatch(b1, 10).ok());
  WriteBatch b2;
  b2.Delete("a");
  ASSERT_TRUE(store.CommitBatch(b2, 20).ok());
  EXPECT_EQ(store.LiveKeyCount(15), 2u);
  EXPECT_EQ(store.LiveKeyCount(25), 1u);
  EXPECT_EQ(store.LiveKeyCount(5), 0u);
}

// --- Distributed transactions (2PC) ----------------------------------------------

TEST(TwoPhaseCommitTest, CrossShardCommit) {
  ShardedStore store(4);
  TxnCoordinator coord(&store, TimestampScheme::kOracle);
  DistributedTxn txn = coord.Begin();
  for (int i = 0; i < 20; i++) {
    txn.Put("key" + std::to_string(i), "v" + std::to_string(i));
  }
  ASSERT_TRUE(txn.Commit().ok());

  DistributedTxn reader = coord.Begin();
  std::string value;
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(reader.Get("key" + std::to_string(i), &value).ok());
    EXPECT_EQ(value, "v" + std::to_string(i));
  }
}

TEST(TwoPhaseCommitTest, ReadYourOwnWrites) {
  ShardedStore store(2);
  TxnCoordinator coord(&store, TimestampScheme::kHlc);
  DistributedTxn txn = coord.Begin();
  txn.Put("k", "mine");
  std::string value;
  ASSERT_TRUE(txn.Get("k", &value).ok());
  EXPECT_EQ(value, "mine");
  txn.Delete("k");
  EXPECT_TRUE(txn.Get("k", &value).IsNotFound());
}

TEST(TwoPhaseCommitTest, AbortDropsWrites) {
  ShardedStore store(2);
  TxnCoordinator coord(&store, TimestampScheme::kOracle);
  DistributedTxn txn = coord.Begin();
  txn.Put("k", "v");
  txn.Abort();
  ASSERT_TRUE(txn.Commit().ok());  // nothing to commit
  DistributedTxn reader = coord.Begin();
  std::string value;
  EXPECT_TRUE(reader.Get("k", &value).IsNotFound());
}

TEST(TwoPhaseCommitTest, ConflictAbortsAtomicallyAcrossShards) {
  ShardedStore store(4);
  TxnCoordinator coord(&store, TimestampScheme::kOracle);

  // Seed a key and read it at a high timestamp to poison low-ts writes.
  DistributedTxn seed = coord.Begin();
  seed.Put("hot", "seed");
  for (int i = 0; i < 10; i++) {
    seed.Put("cold" + std::to_string(i), "seed");
  }
  ASSERT_TRUE(seed.Commit().ok());
  DistributedTxn high_reader = coord.Begin();
  std::string value;
  // Advance the oracle well past the doomed writer.
  for (int i = 0; i < 10; i++) coord.Begin();
  DistributedTxn late_reader = coord.Begin();
  ASSERT_TRUE(late_reader.Get("hot", &value).ok());

  // A txn whose ts is below late_reader's must abort on "hot" — and its
  // writes to other shards must roll back too.
  DistributedTxn doomed = high_reader;  // earlier timestamp than late_reader
  doomed.Put("cold1", "doomed");
  doomed.Put("hot", "doomed");
  Status s = doomed.Commit();
  EXPECT_FALSE(s.ok());

  DistributedTxn checker = coord.Begin();
  ASSERT_TRUE(checker.Get("cold1", &value).ok());
  EXPECT_EQ(value, "seed") << "2PC must roll back prepared shards";
}

// Property: concurrent transfers preserve the total balance invariant
// (serializability smoke test).
TEST(TwoPhaseCommitTest, ConcurrentTransfersPreserveTotal) {
  constexpr int kAccounts = 16;
  constexpr int kThreads = 8;
  constexpr int kTransfersEach = 300;
  constexpr int kInitial = 1000;

  ShardedStore store(4);
  TxnCoordinator coord(&store, TimestampScheme::kOracle);
  {
    DistributedTxn init = coord.Begin();
    for (int i = 0; i < kAccounts; i++) {
      init.Put("acct" + std::to_string(i), std::to_string(kInitial));
    }
    ASSERT_TRUE(init.Commit().ok());
  }

  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      Random rng(1000 + t);
      for (int i = 0; i < kTransfersEach; i++) {
        DistributedTxn txn = coord.Begin();
        int from = static_cast<int>(rng.Uniform(kAccounts));
        int to = static_cast<int>(rng.Uniform(kAccounts));
        if (from == to) continue;
        std::string fv, tv;
        if (!txn.Get("acct" + std::to_string(from), &fv).ok()) continue;
        if (!txn.Get("acct" + std::to_string(to), &tv).ok()) continue;
        int amount = static_cast<int>(rng.Range(1, 50));
        int from_balance = std::stoi(fv);
        if (from_balance < amount) continue;
        txn.Put("acct" + std::to_string(from),
                std::to_string(from_balance - amount));
        txn.Put("acct" + std::to_string(to),
                std::to_string(std::stoi(tv) + amount));
        if (txn.Commit().ok()) committed++;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(committed.load(), 0);

  DistributedTxn audit = coord.Begin();
  long total = 0;
  for (int i = 0; i < kAccounts; i++) {
    std::string value;
    ASSERT_TRUE(audit.Get("acct" + std::to_string(i), &value).ok());
    total += std::stoi(value);
  }
  EXPECT_EQ(total, static_cast<long>(kAccounts) * kInitial);
}

TEST(MvccTest, ReadCommittedDoesNotPoisonWriters) {
  MvccStore store;
  WriteBatch init;
  init.Put("k", "v0");
  ASSERT_TRUE(store.CommitBatch(init, 10).ok());

  // A read-committed reader at a (logically) high timestamp...
  std::string value;
  ASSERT_TRUE(store.ReadCommitted("k", &value).ok());
  EXPECT_EQ(value, "v0");

  // ...does NOT abort a later writer with a lower timestamp, unlike a
  // serializable read (compare TimestampOrderingConflictAborts).
  WriteBatch late;
  late.Put("k", "v20");
  EXPECT_TRUE(store.CommitBatch(late, 20).ok());
}

TEST(MvccTest, ReadCommittedIgnoresPreparedWrites) {
  MvccStore store;
  WriteBatch init;
  init.Put("k", "committed");
  ASSERT_TRUE(store.CommitBatch(init, 10).ok());
  WriteBatch prepared;
  prepared.Put("k", "in-doubt");
  ASSERT_TRUE(store.Prepare(prepared, 20).ok());

  // Serializable read blocks; read-committed proceeds.
  std::string value;
  EXPECT_TRUE(store.Read("k", 30, &value).IsBusy());
  ASSERT_TRUE(store.ReadCommitted("k", &value).ok());
  EXPECT_EQ(value, "committed");
  store.CommitPrepared(prepared, 20);
  ASSERT_TRUE(store.ReadCommitted("k", &value).ok());
  EXPECT_EQ(value, "in-doubt");
}

TEST(MvccTest, ReadCommittedSeesLatestNotSnapshot) {
  MvccStore store;
  WriteBatch b1;
  b1.Put("k", "old");
  ASSERT_TRUE(store.CommitBatch(b1, 10).ok());
  WriteBatch b2;
  b2.Put("k", "new");
  ASSERT_TRUE(store.CommitBatch(b2, 20).ok());
  std::string value;
  ASSERT_TRUE(store.ReadCommitted("k", &value).ok());
  EXPECT_EQ(value, "new");
}

TEST(TwoPhaseCommitTest, ReadCommittedAnalyticsDoNotAbortOltp) {
  // The section 3.3 scenario: an analytical status check runs at read
  // committed while purchases continue; the purchases never abort on
  // account of the analytics.
  ShardedStore store(4);
  TxnCoordinator coord(&store, TimestampScheme::kOracle);
  {
    DistributedTxn init = coord.Begin();
    for (int i = 0; i < 20; i++) {
      init.Put("stock" + std::to_string(i), std::to_string(100 - i * 5));
    }
    ASSERT_TRUE(init.Commit().ok());
  }
  // Analytics txn begun EARLY, reading everything at read committed.
  DistributedTxn analytics = coord.Begin();
  // Interleaved writers with later timestamps.
  int low_stock = 0;
  for (int i = 0; i < 20; i++) {
    std::string value;
    ASSERT_TRUE(
        analytics.GetReadCommitted("stock" + std::to_string(i), &value)
            .ok());
    if (atoi(value.c_str()) < 50) low_stock++;
    DistributedTxn writer = coord.Begin();
    writer.Put("stock" + std::to_string(i), "999");
    ASSERT_TRUE(writer.Commit().ok())
        << "read-committed reads must not abort writers";
  }
  EXPECT_GT(low_stock, 0);
}

// --- DeferredVerifier ---------------------------------------------------------------

TEST(DeferredVerifierTest, OnlineModeRunsInline) {
  DeferredVerifier v{DeferredVerifier::Options(0)};
  bool ran = false;
  Status s = v.Submit([&] {
    ran = true;
    return Status::OK();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_TRUE(ran);
  EXPECT_EQ(v.verified_count(), 1u);
}

TEST(DeferredVerifierTest, OnlineModeReturnsFailure) {
  DeferredVerifier v{DeferredVerifier::Options(0)};
  Status s = v.Submit([] { return Status::VerificationFailed("bad"); });
  EXPECT_TRUE(s.IsVerificationFailed());
  EXPECT_TRUE(v.failed());
}

TEST(DeferredVerifierTest, DeferredModeBatchesAndFlushes) {
  DeferredVerifier v{DeferredVerifier::Options(10)};
  std::atomic<int> ran{0};
  for (int i = 0; i < 25; i++) {
    ASSERT_TRUE(v.Submit([&] {
                   ran++;
                   return Status::OK();
                 })
                    .ok());
  }
  v.Flush();
  EXPECT_EQ(ran.load(), 25);
  EXPECT_EQ(v.verified_count(), 25u);
  EXPECT_FALSE(v.failed());
}

TEST(DeferredVerifierTest, DeferredFailureDetectedAfterFlush) {
  DeferredVerifier v{DeferredVerifier::Options(100)};
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(v.Submit([] { return Status::OK(); }).ok());
  }
  ASSERT_TRUE(
      v.Submit([] { return Status::VerificationFailed("tamper"); }).ok());
  v.Flush();
  EXPECT_TRUE(v.failed());
  EXPECT_EQ(v.failure_count(), 1u);
}

TEST(DeferredVerifierTest, DestructorDrainsWorker) {
  std::atomic<int> ran{0};
  {
    DeferredVerifier v{DeferredVerifier::Options(4)};
    for (int i = 0; i < 8; i++) {
      ASSERT_TRUE(v.Submit([&] {
                     ran++;
                     return Status::OK();
                   })
                      .ok());
    }
    v.Flush();
  }
  EXPECT_EQ(ran.load(), 8);
}

// --- TxnParticipant -----------------------------------------------------------

TEST(TxnParticipantTest, FailedApplyLeavesTheTxnInDoubtAndAbortable) {
  int applies = 0;
  TxnParticipant participant(nullptr, "", [&](uint64_t, const WriteBatch&) {
    applies++;
    return Status::IOError("apply failed");
  });
  WriteBatch batch;
  batch.Put("k", "v");
  ASSERT_TRUE(participant.PrepareTxn(7, batch).ok());
  EXPECT_TRUE(participant.CommitTxn(7).IsIOError());
  EXPECT_EQ(applies, 1);
  // Nothing was applied, so the txn is in doubt again and the committing
  // pin is released: an abort may resolve it.
  std::vector<uint64_t> in_doubt;
  ASSERT_TRUE(participant.InDoubtTxns(&in_doubt).ok());
  EXPECT_EQ(in_doubt, std::vector<uint64_t>{7});
  ASSERT_TRUE(participant.AbortTxn(7).ok());
  EXPECT_TRUE(participant.CheckConflicts(batch, 0).ok());
  EXPECT_TRUE(participant.CommitTxn(7).IsAborted());
}

TEST(TxnParticipantTest, FailedCommitMarkerKeepsThePinUntilARetry) {
  const std::string dir = ::testing::TempDir() + "/spitz_txn_participant";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  FaultInjectionEnv env(Env::Default());
  int applies = 0;
  auto apply = [&](uint64_t, const WriteBatch&) {
    applies++;
    return Status::OK();
  };
  WriteBatch batch;
  batch.Put("k", "v");
  {
    TxnParticipant participant(&env, dir, apply);
    ASSERT_TRUE(participant.Recover().ok());
    // Ops 0 and 1: the prepare record's append and fsync. Op 2: the
    // commit marker's append, after the apply succeeded.
    ASSERT_TRUE(participant.PrepareTxn(7, batch).ok());
    env.FailAt(2, FaultKind::kFailWrite);
    EXPECT_TRUE(participant.CommitTxn(7).IsIOError());
    EXPECT_EQ(applies, 1);
    // The batch is applied but its decision is not durable: no abort
    // may resolve the txn, and it is not reported in doubt.
    EXPECT_TRUE(participant.AbortTxn(7).IsBusy());
    std::vector<uint64_t> in_doubt;
    ASSERT_TRUE(participant.InDoubtTxns(&in_doubt).ok());
    EXPECT_TRUE(in_doubt.empty());
    EXPECT_TRUE(participant.CheckConflicts(batch, 0).IsBusy());
    // A retried commit re-applies and writes the marker.
    env.Revive();
    ASSERT_TRUE(participant.CommitTxn(7).ok());
    EXPECT_EQ(applies, 2);
    EXPECT_TRUE(participant.CheckConflicts(batch, 0).ok());
  }
  // The retried marker is durable: a restarted participant knows the
  // outcome.
  TxnParticipant restarted(&env, dir, apply);
  ASSERT_TRUE(restarted.Recover().ok());
  EXPECT_TRUE(restarted.CommitTxn(7).ok());
  EXPECT_TRUE(restarted.AbortTxn(7).IsInvalidArgument());
  EXPECT_EQ(applies, 2);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace spitz
