#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_env.h"
#include "txn/batch_verifier.h"
#include "txn/participant.h"
#include "txn/timestamp_oracle.h"
#include "txn/write_batch.h"

namespace spitz {
namespace {

// --- TimestampOracle ------------------------------------------------------------

TEST(TimestampOracleTest, AllocateAndBatch) {
  TimestampOracle oracle(100);
  EXPECT_EQ(oracle.Allocate(), 100u);
  EXPECT_EQ(oracle.Allocate(), 101u);
  uint64_t first = oracle.AllocateBatch(10);
  EXPECT_EQ(first, 102u);
  EXPECT_EQ(oracle.Allocate(), 112u);
}

// Every commit timestamp comes from the oracle, so no value may be
// handed out twice, however single and batched allocations interleave.
TEST(TimestampOracleTest, ConcurrentAllocationsAreUnique) {
  TimestampOracle oracle;
  constexpr int kThreads = 8;
  constexpr int kRounds = 500;
  constexpr uint64_t kBatch = 4;
  std::vector<std::vector<uint64_t>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRounds; i++) {
        if ((i + t) % 2 == 0) {
          results[t].push_back(oracle.Allocate());
        } else {
          const uint64_t first = oracle.AllocateBatch(kBatch);
          for (uint64_t k = 0; k < kBatch; k++) {
            results[t].push_back(first + k);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  std::set<uint64_t> all;
  size_t handed_out = 0;
  for (const auto& v : results) {
    all.insert(v.begin(), v.end());
    handed_out += v.size();
  }
  EXPECT_EQ(all.size(), handed_out);
  // Nothing is skipped either: the values are exactly [1, next).
  EXPECT_EQ(*all.begin(), 1u);
  EXPECT_EQ(*all.rbegin(), handed_out);
  EXPECT_EQ(oracle.Peek(), handed_out + 1);
}

// --- WriteBatch -------------------------------------------------------------------

// Pinned format: a batch without a read set encodes to exactly these
// bytes, on the wire and inside txn.log.
constexpr char kBlindBatchHex[] =
    "030006616363742f31033130300106616363742f3200016b00";
// One txn.log prepare record of that batch under txn 0x0102030405060708.
constexpr char kBlindPrepareRecordHex[] =
    "22010807060504030201030006616363742f31033130300106616363742f3200016b00"
    "8d81c9f0";
constexpr uint64_t kGoldenTxnId = 0x0102030405060708ull;

WriteBatch BlindBatch() {
  WriteBatch batch;
  batch.Put("acct/1", "100");
  batch.Delete("acct/2");
  batch.Put("k", "");
  return batch;
}

WriteBatch BatchWithReads() {
  WriteBatch batch = BlindBatch();
  batch.Expect("acct/1", Slice("90"));
  batch.Expect("acct/3", std::nullopt);
  return batch;
}

std::string ToHex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

std::string FromHex(const std::string& hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

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
  EXPECT_TRUE(out.reads().empty());
}

TEST(WriteBatchTest, DecodeTruncatedFails) {
  WriteBatch b;
  b.Put("key", "value");
  std::string encoded = b.Encode();
  encoded.resize(encoded.size() - 3);
  WriteBatch out;
  EXPECT_TRUE(WriteBatch::Decode(encoded, &out).IsCorruption());
}

TEST(WriteBatchTest, BlindEncodingMatchesGoldenBytes) {
  EXPECT_EQ(ToHex(BlindBatch().Encode()), kBlindBatchHex);
  WriteBatch decoded;
  ASSERT_TRUE(WriteBatch::Decode(FromHex(kBlindBatchHex), &decoded).ok());
  EXPECT_EQ(decoded.Encode(), BlindBatch().Encode());
  EXPECT_TRUE(decoded.reads().empty());
}

TEST(WriteBatchTest, ReadSetRoundTripsAfterTheOps) {
  const WriteBatch batch = BatchWithReads();
  const std::string encoded = batch.Encode();
  // The op list is byte-identical to the blind batch's; the read set
  // follows it.
  EXPECT_EQ(encoded.compare(0, BlindBatch().Encode().size(),
                            BlindBatch().Encode()),
            0);
  WriteBatch out;
  ASSERT_TRUE(WriteBatch::Decode(encoded, &out).ok());
  ASSERT_EQ(out.reads().size(), 2u);
  EXPECT_EQ(out.reads()[0].key, "acct/1");
  EXPECT_TRUE(out.reads()[0].present);
  EXPECT_EQ(out.reads()[0].value_hash, Hash256::Of("90"));
  EXPECT_EQ(out.reads()[1].key, "acct/3");
  EXPECT_FALSE(out.reads()[1].present);
  EXPECT_EQ(out.Encode(), encoded);

  // Append carries reads too.
  WriteBatch merged = BlindBatch();
  WriteBatch reads_only;
  reads_only.Expect("acct/1", Slice("90"));
  reads_only.Expect("acct/3", std::nullopt);
  merged.Append(reads_only);
  EXPECT_EQ(merged.Encode(), encoded);
  EXPECT_FALSE(reads_only.empty());
  EXPECT_EQ(reads_only.size(), 0u);
}

TEST(WriteBatchTest, DecodeRejectsEveryTruncationAndOneByteExtension) {
  const std::string blind = BlindBatch().Encode();
  for (const WriteBatch& batch : {BlindBatch(), BatchWithReads()}) {
    const std::string encoded = batch.Encode();
    for (size_t len = 0; len < encoded.size(); len++) {
      WriteBatch out;
      Status s = WriteBatch::Decode(Slice(encoded.data(), len), &out);
      if (len == blind.size()) {
        // Cutting exactly the read set off leaves the blind batch — the
        // encoding is the op list then the reads. Frames (the wire's
        // length prefix, txn.log's length and CRC) rule that cut out.
        ASSERT_TRUE(s.ok()) << s.ToString();
        EXPECT_EQ(out.Encode(), blind);
        continue;
      }
      EXPECT_TRUE(s.IsCorruption()) << "prefix " << len << ": " << s.ToString();
    }
    for (int extra = 0; extra < 256; extra++) {
      WriteBatch out;
      Status s = WriteBatch::Decode(encoded + static_cast<char>(extra), &out);
      EXPECT_TRUE(s.IsCorruption()) << "extension " << extra;
    }
  }
}

TEST(WriteBatchTest, DecodeRejectsNonCanonicalReadSets) {
  const std::string blind = BlindBatch().Encode();
  WriteBatch out;
  // An empty read set is never encoded.
  EXPECT_TRUE(WriteBatch::Decode(blind + '\x00', &out).IsCorruption());
  // A present flag other than 0 or 1.
  WriteBatch absent;
  absent.Expect("r", std::nullopt);
  std::string encoded = absent.Encode();
  ASSERT_EQ(encoded.back(), '\x00');
  encoded.back() = '\x02';
  EXPECT_TRUE(WriteBatch::Decode(encoded, &out).IsCorruption());
}

TEST(WriteBatchTest, ValidateReadsChecksPresenceAndValue) {
  std::map<std::string, std::string> state = {{"a", "1"}};
  auto get = [&](const Slice& key, std::string* value) {
    auto it = state.find(key.ToString());
    if (it == state.end()) return Status::NotFound("absent");
    *value = it->second;
    return Status::OK();
  };
  WriteBatch batch;
  batch.Expect("a", Slice("1"));
  batch.Expect("b", std::nullopt);
  EXPECT_TRUE(batch.ValidateReads(get).ok());
  state["a"] = "2";
  EXPECT_TRUE(batch.ValidateReads(get).IsAborted());
  state["a"] = "1";
  state["b"] = "";
  EXPECT_TRUE(batch.ValidateReads(get).IsAborted());
  state.erase("b");
  state.erase("a");
  EXPECT_TRUE(batch.ValidateReads(get).IsAborted());
  EXPECT_TRUE(WriteBatch().ValidateReads(get).ok());
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

// The validate callback of an owner whose every read is current.
Status ReadsCurrent(const WriteBatch&) { return Status::OK(); }

TEST(TxnParticipantTest, FailedApplyLeavesTheTxnInDoubtAndAbortable) {
  int applies = 0;
  TxnParticipant participant(
      nullptr, "",
      [&](uint64_t, const WriteBatch&) {
        applies++;
        return Status::IOError("apply failed");
      },
      ReadsCurrent);
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
    TxnParticipant participant(&env, dir, apply, ReadsCurrent);
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
  TxnParticipant restarted(&env, dir, apply, ReadsCurrent);
  ASSERT_TRUE(restarted.Recover().ok());
  EXPECT_TRUE(restarted.CommitTxn(7).ok());
  EXPECT_TRUE(restarted.AbortTxn(7).IsInvalidArgument());
  EXPECT_EQ(applies, 2);
  std::filesystem::remove_all(dir);
}

// A participant over a fresh txn.log directory.
class TxnParticipantLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/spitz_txn_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  int applies_ = 0;
  TxnParticipant::ApplyFn apply_ = [this](uint64_t, const WriteBatch&) {
    applies_++;
    return Status::OK();
  };
};

TEST_F(TxnParticipantLogTest, BlindPrepareRecordMatchesGoldenBytesAndReplays) {
  {
    TxnParticipant participant(Env::Default(), dir_, apply_, ReadsCurrent);
    ASSERT_TRUE(participant.Recover().ok());
    ASSERT_TRUE(participant.PrepareTxn(kGoldenTxnId, BlindBatch()).ok());
    std::string log;
    ASSERT_TRUE(Env::Default()->ReadFileToString(dir_ + "/txn.log", &log).ok());
    EXPECT_EQ(ToHex(log), kBlindPrepareRecordHex);
  }
  // A log holding exactly those bytes replays: the txn is in doubt with
  // its keys locked, and the decision applies the batch.
  std::filesystem::remove_all(dir_);
  std::filesystem::create_directories(dir_);
  {
    std::unique_ptr<WritableLog> log;
    ASSERT_TRUE(
        Env::Default()->NewWritableLog(dir_ + "/txn.log", &log).ok());
    ASSERT_TRUE(log->Append(FromHex(kBlindPrepareRecordHex)).ok());
    ASSERT_TRUE(log->Sync().ok());
    ASSERT_TRUE(log->Close().ok());
  }
  TxnParticipant restarted(Env::Default(), dir_, apply_, ReadsCurrent);
  ASSERT_TRUE(restarted.Recover().ok());
  std::vector<uint64_t> in_doubt;
  ASSERT_TRUE(restarted.InDoubtTxns(&in_doubt).ok());
  EXPECT_EQ(in_doubt, std::vector<uint64_t>{kGoldenTxnId});
  WriteBatch intruder;
  intruder.Put("acct/2", "x");
  EXPECT_TRUE(restarted.CheckConflicts(intruder, 0).IsBusy());
  ASSERT_TRUE(restarted.CommitTxn(kGoldenTxnId).ok());
  EXPECT_EQ(applies_, 1);
  EXPECT_TRUE(restarted.CheckConflicts(intruder, 0).ok());
}

TEST_F(TxnParticipantLogTest, ReadOnlyPrepareLocksItsReadKeysUntilDecided) {
  TxnParticipant participant(Env::Default(), dir_, apply_, ReadsCurrent);
  ASSERT_TRUE(participant.Recover().ok());
  WriteBatch reads_only;
  reads_only.Expect("seen", Slice("v"));
  ASSERT_TRUE(participant.PrepareTxn(11, reads_only).ok());
  WriteBatch writer;
  writer.Put("seen", "w");
  EXPECT_TRUE(participant.CheckConflicts(writer, 0).IsBusy());
  // Another txn's read of a locked key is Busy too: it could not be
  // validated against the value the decision may still change.
  EXPECT_TRUE(participant.CheckConflicts(reads_only, 0).IsBusy());
  ASSERT_TRUE(participant.CommitTxn(11).ok());
  EXPECT_EQ(applies_, 0);  // nothing to apply
  EXPECT_TRUE(participant.CheckConflicts(writer, 0).ok());
  // A batch with neither writes nor reads is still refused.
  EXPECT_TRUE(participant.PrepareTxn(12, WriteBatch()).IsInvalidArgument());
}

TEST_F(TxnParticipantLogTest, StaleReadOrFailedVoteReleasesTheLocks) {
  FaultInjectionEnv env(Env::Default());
  Status verdict = Status::Aborted("stale read of key 'seen'");
  TxnParticipant participant(&env, dir_, apply_,
                             [&](const WriteBatch&) { return verdict; });
  ASSERT_TRUE(participant.Recover().ok());
  WriteBatch rmw;
  rmw.Expect("seen", Slice("v"));
  rmw.Put("seen", "v+1");
  WriteBatch writer;
  writer.Put("seen", "w");

  EXPECT_TRUE(participant.PrepareTxn(21, rmw).IsAborted());
  EXPECT_TRUE(participant.CheckConflicts(writer, 0).ok());

  // A current read whose vote cannot be made durable: no yes vote, no
  // locks left behind.
  verdict = Status::OK();
  env.FailAt(env.ops_seen(), FaultKind::kFailWrite);
  EXPECT_TRUE(participant.PrepareTxn(22, rmw).IsIOError());
  EXPECT_TRUE(participant.CheckConflicts(writer, 0).ok());
  std::vector<uint64_t> in_doubt;
  ASSERT_TRUE(participant.InDoubtTxns(&in_doubt).ok());
  EXPECT_TRUE(in_doubt.empty());

  env.Revive();
  ASSERT_TRUE(participant.PrepareTxn(23, rmw).ok());
  EXPECT_TRUE(participant.CheckConflicts(writer, 0).IsBusy());
}

}  // namespace
}  // namespace spitz
