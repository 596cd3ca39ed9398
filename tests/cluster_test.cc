// Tests for the sharded-cluster layer (DESIGN.md section 13): the
// shared partition function, the cluster root digest, client-side 2PC
// over real TCP, read sets that make read-modify-writes serializable,
// participant crash recovery from the durable txn log,
// presumed-abort sweeping when the coordinator dies, and — in the
// style of the wire-protocol fuzz tests — byte-level tampering of the
// cluster evidence envelope, which must always be rejected and never
// accepted or crash.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_client.h"
#include "cluster/cluster_digest.h"
#include "cluster/coordinator.h"
#include "cluster/local_fleet.h"
#include "cluster/partition.h"
#include "common/clock.h"
#include "common/codec.h"
#include "common/fault_env.h"
#include "common/random.h"
#include "core/spitz_db.h"
#include "net/frame.h"
#include "net/net_client.h"
#include "net/spitz_client.h"
#include "net/spitz_server.h"
#include "net/spitz_wire.h"

namespace spitz {
namespace {

// A key the partition function routes to `shard` of `shard_count`.
std::string KeyOnShard(size_t shard, size_t shard_count,
                       const std::string& stem) {
  for (int i = 0;; i++) {
    std::string key = stem + "-" + std::to_string(i);
    if (PartitionOf(key, shard_count) == shard) return key;
  }
}

// An in-memory N-shard fleet and one ClusterClient over it.
struct ClusterFixture {
  std::unique_ptr<LocalFleet> fleet;
  std::unique_ptr<ClusterClient> client;

  explicit ClusterFixture(size_t n) {
    LocalFleet::Options options;
    options.shards = n;
    Status s = LocalFleet::Open(options, &fleet);
    EXPECT_TRUE(s.ok()) << s.ToString();
    s = ClusterClient::Open(fleet->ClusterOptions(), &client);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
};

// --- Routing ----------------------------------------------------------------

TEST(ClusterRoutingTest, PartitionFunctionMatchesGoldenValues) {
  // Every shard's data lives where this function put it, so a change to
  // it is a cluster-wide resharding event (partition.h), never a
  // refactor. The values pin the function as deployed, including its
  // offset basis, which differs from the published FNV-1a constant.
  EXPECT_EQ(PartitionHash(""), 0x14650fb0739d0383ull);
  EXPECT_EQ(PartitionHash("a"), 0x44bd8ad473cd9906ull);
  EXPECT_EQ(PartitionHash("foobar"), 0x88fad7c0a8ff07f2ull);
  EXPECT_EQ(PartitionHash("user000000000042"), 0x3b44973a585379aaull);
  // Key bytes hash as unsigned.
  EXPECT_EQ(PartitionHash(Slice("\xff\x80", 2)), 0x9a50c900c533a95cull);
  EXPECT_EQ(PartitionHash(Slice("\0", 1)), 0x44bd2bd473ccf799ull);

  struct Golden {
    const char* key;
    size_t shard_count;
    size_t shard;
  };
  const Golden golden[] = {
      {"foobar", 2, 0},           {"foobar", 3, 1},
      {"foobar", 5, 0},           {"foobar", 16, 2},
      {"user000000000042", 3, 0}, {"user000000000042", 5, 3},
      {"user000000000042", 16, 10}, {"route-key-7919", 2, 1},
      {"route-key-7919", 5, 3},   {"a", 16, 6},
  };
  for (const Golden& g : golden) {
    EXPECT_EQ(PartitionOf(g.key, g.shard_count), g.shard)
        << g.key << " over " << g.shard_count << " shards";
  }
  EXPECT_EQ(PartitionOf("anything", 1), 0u);
}

// --- Cluster digest ---------------------------------------------------------

TEST(ClusterDigestTest, RootCommitsEveryShardDigest) {
  ClusterFixture fx(3);
  // Distinct state on every shard, so no two leaves are equal bytes.
  for (size_t shard = 0; shard < 3; shard++) {
    ASSERT_TRUE(
        fx.client->Put(KeyOnShard(shard, 3, "digest"), "1").ok());
  }
  ClusterDigest digest;
  ASSERT_TRUE(fx.client->GetClusterDigest(&digest).ok());
  ASSERT_EQ(digest.shards.size(), 3u);
  EXPECT_EQ(digest.root, ClusterDigest::ComputeRoot(digest.shards));

  // Any change to any shard's digest changes the root.
  ClusterDigest mutated = digest;
  mutated.shards[1].last_commit_ts ^= 1;
  EXPECT_NE(ClusterDigest::ComputeRoot(mutated.shards), digest.root);

  std::string encoded;
  digest.EncodeTo(&encoded);
  Slice input(encoded);
  ClusterDigest decoded;
  ASSERT_TRUE(ClusterDigest::DecodeFrom(&input, &decoded).ok());
  EXPECT_EQ(decoded, digest);
}

TEST(ClusterDigestTest, EveryByteTamperOfTheEnvelopeIsRejected) {
  ClusterFixture fx(3);
  ASSERT_TRUE(fx.client->Put("tamper-base", "v").ok());
  std::string encoded;
  ASSERT_TRUE(fx.client->Digest(&encoded).ok());
  for (size_t i = 0; i < encoded.size(); i++) {
    std::string bad = encoded;
    bad[i] = static_cast<char>(bad[i] ^ 0x5a);
    Slice input(bad);
    ClusterDigest decoded;
    EXPECT_FALSE(ClusterDigest::DecodeFrom(&input, &decoded).ok())
        << "flipped byte " << i << " was accepted";
  }
}

// A synthetic per-shard digest, distinct per seed, for pure
// ClusterDigest tests that need no live cluster.
SpitzDigest SyntheticDigest(uint8_t seed) {
  SpitzDigest d;
  d.index_root = Hash256::Of("root-" + std::to_string(seed));
  d.journal.block_count = seed;
  d.journal.entry_count = seed * 3u;
  d.journal.tip_hash = Hash256::Of("tip-" + std::to_string(seed));
  d.journal.merkle_root = Hash256::Of("merkle-" + std::to_string(seed));
  d.last_commit_ts = 1000u + seed;
  return d;
}

TEST(ClusterDigestTest, EnvelopeRoundTripsAndRejectsEveryTamper) {
  // Every byte flip anywhere in the envelope — shard count, a shard
  // digest, or root — must be rejected at decode, never accepted or
  // crash.
  ClusterDigest digest;
  digest.shards = {SyntheticDigest(1), SyntheticDigest(2), SyntheticDigest(3)};
  digest.Seal();

  std::string encoded;
  digest.EncodeTo(&encoded);
  Slice input(encoded);
  ClusterDigest decoded;
  ASSERT_TRUE(ClusterDigest::DecodeFrom(&input, &decoded).ok());
  EXPECT_EQ(decoded, digest);

  for (size_t i = 0; i < encoded.size(); i++) {
    std::string bad = encoded;
    bad[i] = static_cast<char>(bad[i] ^ 0x5a);
    Slice bad_input(bad);
    ClusterDigest reject;
    EXPECT_FALSE(ClusterDigest::DecodeFrom(&bad_input, &reject).ok())
        << "flipped byte " << i << " was accepted";
  }
  // Truncation at every length is rejected too.
  for (size_t len = 0; len < encoded.size(); len++) {
    std::string bad = encoded.substr(0, len);
    Slice bad_input(bad);
    ClusterDigest reject;
    EXPECT_FALSE(ClusterDigest::DecodeFrom(&bad_input, &reject).ok())
        << "truncation to " << len << " bytes was accepted";
  }
}

// --- Cross-shard transactions ------------------------------------------------

TEST(ClusterTxnTest, CrossShardBatchCommitsAtomicallyViaTwoPhase) {
  ClusterFixture fx(3);
  WriteBatch batch;
  std::vector<std::string> keys;
  for (size_t shard = 0; shard < 3; shard++) {
    keys.push_back(KeyOnShard(shard, 3, "txn"));
    batch.Put(keys.back(), "committed-" + std::to_string(shard));
  }
  ASSERT_TRUE(fx.client->Write(WriteOptions(), batch).ok());

  for (size_t shard = 0; shard < 3; shard++) {
    std::string value;
    ASSERT_TRUE(fx.client->VerifiedGet(keys[shard], &value).ok());
    EXPECT_EQ(value, "committed-" + std::to_string(shard));
  }
  MetricsSnapshot m = fx.client->coordinator()->Metrics();
  EXPECT_EQ(m.CounterValue("cluster.coordinator.commits_2pc"), 1u);
  EXPECT_EQ(m.CounterValue("cluster.coordinator.aborts"), 0u);
}

TEST(ClusterTxnTest, SingleShardBatchTakesTheOnePhasePath) {
  ClusterFixture fx(3);
  const std::string key = KeyOnShard(1, 3, "solo");
  WriteBatch single;
  single.Put(key, "one-phase");
  single.Delete(KeyOnShard(1, 3, "solo-ghost"));  // same shard: still 1PC
  ASSERT_TRUE(fx.client->Write(WriteOptions(), single).ok());
  MetricsSnapshot m = fx.client->coordinator()->Metrics();
  EXPECT_EQ(m.CounterValue("cluster.coordinator.commits_1pc"), 1u);
  EXPECT_EQ(m.CounterValue("cluster.coordinator.commits_2pc"), 0u);
  std::string value;
  ASSERT_TRUE(fx.client->VerifiedGet(key, &value).ok());
  EXPECT_EQ(value, "one-phase");
}

TEST(ClusterTxnTest, PreparedKeysBlockConflictingWritersUntilDecision) {
  ClusterFixture fx(2);
  const std::string key = KeyOnShard(0, 2, "locked");
  WriteBatch batch;
  batch.Put(key, "staged");
  ASSERT_TRUE(fx.client->shard(0)->TxnPrepare(77, batch).ok());

  // A conflicting direct write bounces off the prepared lock.
  EXPECT_TRUE(fx.client->Put(key, "intruder").IsBusy());
  // Non-conflicting keys on the same shard sail through.
  const std::string other = KeyOnShard(0, 2, "unrelated");
  EXPECT_TRUE(fx.client->Put(other, "fine").ok());

  ASSERT_TRUE(fx.client->shard(0)->TxnCommit(77).ok());
  std::string value;
  ASSERT_TRUE(fx.client->VerifiedGet(key, &value).ok());
  EXPECT_EQ(value, "staged");
  // After the decision the lock is gone.
  EXPECT_TRUE(fx.client->Put(key, "after").ok());
  // A retried commit of a committed transaction is idempotent OK — the
  // participant's outcome tombstone remembers the decision.
  EXPECT_TRUE(fx.client->shard(0)->TxnCommit(77).ok());
  // But it cannot be re-aborted or re-prepared: the id is spent.
  EXPECT_TRUE(fx.client->shard(0)->TxnAbort(77).IsInvalidArgument());
  EXPECT_TRUE(fx.client->shard(0)->TxnPrepare(77, batch).IsInvalidArgument());
}

TEST(ClusterTxnTest, ResolveInDoubtPresumesAbortForOrphans) {
  ClusterFixture fx(2);
  const std::string key = KeyOnShard(1, 2, "orphan");
  WriteBatch batch;
  batch.Put(key, "never-decided");
  ASSERT_TRUE(fx.client->shard(1)->TxnPrepare(4242, batch).ok());

  std::vector<uint64_t> in_doubt;
  ASSERT_TRUE(fx.client->shard(1)->TxnInDoubt(&in_doubt).ok());
  ASSERT_EQ(in_doubt.size(), 1u);
  EXPECT_EQ(in_doubt[0], 4242u);

  size_t aborted = 0;
  ASSERT_TRUE(fx.client->coordinator()->ResolveInDoubt(&aborted).ok());
  EXPECT_EQ(aborted, 1u);
  std::string value;
  EXPECT_TRUE(fx.client->Get(key, &value).IsNotFound());
  EXPECT_TRUE(fx.client->Put(key, "fresh").ok());
}

// --- Resolved-outcome tombstones ---------------------------------------------

TEST(ClusterTxnTest, LateCommitOfAnAbortedTxnReportsAborted) {
  SpitzDb db;
  WriteBatch batch;
  batch.Put("tomb-key", "staged");
  ASSERT_TRUE(db.participant()->PrepareTxn(501, batch).ok());
  ASSERT_TRUE(db.participant()->AbortTxn(501).ok());
  // The commit decision lost the race against a presumed abort: the
  // late commit must hear Aborted — never OK (silent write loss) and
  // never NotFound (outcome guesswork).
  EXPECT_TRUE(db.participant()->CommitTxn(501).IsAborted());
  // Re-aborting an aborted txn stays a benign no-op under presumed
  // abort, and the id can never be re-staged.
  EXPECT_TRUE(db.participant()->AbortTxn(501).IsNotFound());
  EXPECT_TRUE(db.participant()->PrepareTxn(501, batch).IsInvalidArgument());
  std::string value;
  EXPECT_TRUE(db.Get("tomb-key", &value).IsNotFound());
}

TEST(ClusterTxnTest, RePrepareMustMatchTheStagedBatch) {
  SpitzDb db;
  WriteBatch original;
  original.Put("collide", "first");
  ASSERT_TRUE(db.participant()->PrepareTxn(601, original).ok());
  // Retrying the identical prepare is the idempotent lost-vote path.
  EXPECT_TRUE(db.participant()->PrepareTxn(601, original).ok());
  // A different batch under the same id is a coordinator id collision:
  // a yes here would vote for bytes that were never staged.
  WriteBatch forged;
  forged.Put("collide", "second");
  EXPECT_TRUE(db.participant()->PrepareTxn(601, forged).IsInvalidArgument());
  ASSERT_TRUE(db.participant()->CommitTxn(601).ok());
  std::string value;
  ASSERT_TRUE(db.Get("collide", &value).ok());
  EXPECT_EQ(value, "first");
}

TEST(ClusterTxnTest, SweeperNeverAbortsACommittingTxn) {
  // Race commit decisions against a zero-age presumed-abort sweeper.
  // The committing pin guarantees every transaction resolves exactly
  // one way: either the sweeper won (commit hears Aborted, the key is
  // absent) or the commit won (the key is present). Applied-but-aborted
  // — the silent-clobber hazard — must never happen.
  SpitzDb db;
  std::atomic<bool> stop{false};
  std::thread sweeper([&] {
    while (!stop.load()) db.participant()->AbortTxnsOlderThan(0);
  });
  int committed = 0;
  int aborted = 0;
  for (uint64_t txn_id = 1; txn_id <= 200; txn_id++) {
    const std::string key = "race-" + std::to_string(txn_id);
    WriteBatch batch;
    batch.Put(key, "v");
    ASSERT_TRUE(db.participant()->PrepareTxn(txn_id, batch).ok());
    Status s = db.participant()->CommitTxn(txn_id);
    std::string value;
    if (s.ok()) {
      committed++;
      EXPECT_TRUE(db.Get(key, &value).ok()) << "committed but value absent";
    } else {
      ASSERT_TRUE(s.IsAborted()) << s.ToString();
      aborted++;
      EXPECT_TRUE(db.Get(key, &value).IsNotFound())
          << "aborted but value applied";
    }
  }
  stop.store(true);
  sweeper.join();
  EXPECT_EQ(committed + aborted, 200);
}

// --- Read sets: serializable read-modify-writes -----------------------------

// A transaction's read of `key`: nullopt when absent. Verified unless
// `verify` is off — either way the read set carries the value's hash.
std::optional<std::string> TxnRead(ClusterClient* client,
                                   const std::string& key,
                                   bool verify = true) {
  ReadOptions options;
  options.verify = verify;
  std::string value;
  Status s = client->Get(options, key, &value);
  EXPECT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
  if (!s.ok()) return std::nullopt;
  return value;
}

void ExpectSeen(WriteBatch* batch, const std::string& key,
                const std::optional<std::string>& seen) {
  batch->Expect(key, seen ? std::optional<Slice>(*seen) : std::nullopt);
}

int AsCount(const std::optional<std::string>& value) {
  return value ? std::stoi(*value) : 0;
}

// Reads every key, then writes each one's count + 1 in one batch that
// carries the reads — or, with `with_reads` off, blindly.
Status IncrementAll(ClusterClient* client,
                    const std::vector<std::string>& keys,
                    bool with_reads = true) {
  WriteBatch batch;
  for (const std::string& key : keys) {
    std::optional<std::string> seen = TxnRead(client, key);
    if (with_reads) ExpectSeen(&batch, key, seen);
    batch.Put(key, std::to_string(AsCount(seen) + 1));
  }
  return client->Write(WriteOptions(), batch);
}

// core.db.commit.read_set_aborts summed over every shard of the fleet.
uint64_t ReadSetAborts(const LocalFleet& fleet) {
  uint64_t total = 0;
  for (size_t shard = 0; shard < fleet.shards(); shard++) {
    total += fleet.db(shard)->Metrics().CounterValue(
        "core.db.commit.read_set_aborts");
  }
  return total;
}

// Re-runs `txn` (which re-reads) while it fails Aborted (a stale read)
// or Busy (a key locked by a transaction mid-commit).
Status RetryConflicts(const std::function<Status()>& txn) {
  Status s;
  for (int attempt = 0; attempt < 1000; attempt++) {
    s = txn();
    if (!s.IsAborted() && !s.IsBusy()) return s;
  }
  return s;
}

TEST(ClusterReadSetTest, OfTwoIncrementsFromTheSameReadExactlyOneCommits) {
  ClusterFixture fx(3);
  std::unique_ptr<ClusterClient> other;
  ASSERT_TRUE(ClusterClient::Open(fx.fleet->ClusterOptions(), &other).ok());
  const std::string x = KeyOnShard(0, 3, "x");
  const std::string y = KeyOnShard(2, 3, "y");
  // One-phase (x alone), then two-phase (x plus a write on another
  // shard): both paths check the read set.
  for (bool cross_shard : {false, true}) {
    SCOPED_TRACE(cross_shard ? "2PC" : "1PC");
    ASSERT_TRUE(fx.client->Put(x, "0").ok());
    std::optional<std::string> a_seen = TxnRead(fx.client.get(), x);
    std::optional<std::string> b_seen = TxnRead(other.get(), x);
    ASSERT_EQ(a_seen, "0");
    ASSERT_EQ(b_seen, "0");
    WriteBatch a, b;
    ExpectSeen(&a, x, a_seen);
    a.Put(x, std::to_string(AsCount(a_seen) + 1));
    ExpectSeen(&b, x, b_seen);
    b.Put(x, std::to_string(AsCount(b_seen) + 1));
    if (cross_shard) {
      a.Put(y, "a");
      b.Put(y, "b");
    }
    ASSERT_TRUE(fx.client->Write(WriteOptions(), a).ok());
    const uint64_t aborts_before = ReadSetAborts(*fx.fleet);
    Status lost = other->Write(WriteOptions(), b);
    EXPECT_TRUE(lost.IsAborted()) << lost.ToString();
    // x's shard counted the stale read once, on either path.
    EXPECT_EQ(ReadSetAborts(*fx.fleet), aborts_before + 1);
    // Nothing of the aborted batch applied.
    EXPECT_EQ(TxnRead(fx.client.get(), x), "1");
    if (cross_shard) {
      EXPECT_EQ(TxnRead(fx.client.get(), y), "a");
    }
    // The loser re-reads and retries.
    ASSERT_TRUE(IncrementAll(other.get(), {x}).ok());
    EXPECT_EQ(TxnRead(fx.client.get(), x), "2");
  }
  std::vector<uint64_t> in_doubt;
  for (size_t shard = 0; shard < 3; shard++) {
    ASSERT_TRUE(fx.client->shard(shard)->TxnInDoubt(&in_doubt).ok());
    EXPECT_TRUE(in_doubt.empty());
  }
}

TEST(ClusterReadSetTest, ConcurrentCrossShardIncrementsLoseNoUpdate) {
  constexpr int kThreads = 4;
  constexpr int kIncrementsEach = 25;
  ClusterFixture fx(3);
  // One counter per shard: every increment is a three-shard 2PC.
  const std::vector<std::string> counters = {KeyOnShard(0, 3, "counter"),
                                             KeyOnShard(1, 3, "counter"),
                                             KeyOnShard(2, 3, "counter")};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrementsEach; i++) {
        Status s = RetryConflicts(
            [&] { return IncrementAll(fx.client.get(), counters); });
        if (!s.ok()) failures++;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  for (const std::string& counter : counters) {
    EXPECT_EQ(TxnRead(fx.client.get(), counter),
              std::to_string(kThreads * kIncrementsEach));
  }
  MetricsSnapshot m = fx.client->coordinator()->Metrics();
  EXPECT_EQ(m.CounterValue("cluster.coordinator.commits_2pc"),
            static_cast<uint64_t>(kThreads * kIncrementsEach));
}

TEST(ClusterReadSetTest, AShardThatIsOnlyReadVotesAndLocksItsReads) {
  ClusterFixture fx(2);
  const std::string read_key = KeyOnShard(1, 2, "read-only");
  const std::string write_key = KeyOnShard(0, 2, "written");
  ASSERT_TRUE(fx.client->Put(read_key, "r").ok());
  WriteBatch batch;
  ExpectSeen(&batch, read_key, TxnRead(fx.client.get(), read_key));
  batch.Put(write_key, "w");
  ASSERT_TRUE(fx.client->Write(WriteOptions(), batch).ok());
  MetricsSnapshot m = fx.client->coordinator()->Metrics();
  EXPECT_EQ(m.CounterValue("cluster.coordinator.commits_2pc"), 1u);

  // The read-only shard's prepare holds its read key until the decision.
  WriteBatch reads_only;
  reads_only.Expect(read_key, Slice("r"));
  ASSERT_TRUE(fx.client->shard(1)->TxnPrepare(31, reads_only).ok());
  EXPECT_TRUE(fx.client->Put(read_key, "intruder").IsBusy());
  ASSERT_TRUE(fx.client->shard(1)->TxnCommit(31).ok());
  EXPECT_TRUE(fx.client->Put(read_key, "after").ok());
  // A stale read on a shard that is only read fails the prepare there.
  EXPECT_TRUE(fx.client->shard(1)->TxnPrepare(32, reads_only).IsAborted());
}

// --- The production 2PC path: atomicity and isolation ------------------------

TEST(TwoPhaseCommitTest, CrossShardCommit) {
  ClusterFixture fx(4);
  WriteBatch batch;
  for (int i = 0; i < 20; i++) {
    batch.Put("key" + std::to_string(i), "v" + std::to_string(i));
  }
  ASSERT_TRUE(fx.client->Write(WriteOptions(), batch).ok());
  for (int i = 0; i < 20; i++) {
    EXPECT_EQ(TxnRead(fx.client.get(), "key" + std::to_string(i)),
              "v" + std::to_string(i));
  }
}

TEST(TwoPhaseCommitTest, AbortDropsWrites) {
  ClusterFixture fx(2);
  const std::string a = KeyOnShard(0, 2, "dropped");
  const std::string b = KeyOnShard(1, 2, "dropped");
  WriteBatch part_a, part_b;
  part_a.Put(a, "v");
  part_b.Put(b, "v");
  ASSERT_TRUE(fx.client->shard(0)->TxnPrepare(41, part_a).ok());
  ASSERT_TRUE(fx.client->shard(1)->TxnPrepare(41, part_b).ok());
  ASSERT_TRUE(fx.client->shard(0)->TxnAbort(41).ok());
  ASSERT_TRUE(fx.client->shard(1)->TxnAbort(41).ok());
  EXPECT_EQ(TxnRead(fx.client.get(), a), std::nullopt);
  EXPECT_EQ(TxnRead(fx.client.get(), b), std::nullopt);
  EXPECT_TRUE(fx.client->Put(a, "free").ok());
  EXPECT_TRUE(fx.client->Put(b, "free").ok());
}

TEST(TwoPhaseCommitTest, ConflictAbortsAtomicallyAcrossShards) {
  ClusterFixture fx(4);
  // The cold key's shard prepares first (shards vote in index order),
  // so the stale read on the hot key's shard must roll that vote back.
  const std::string cold = KeyOnShard(0, 4, "cold");
  const std::string hot = KeyOnShard(3, 4, "hot");
  WriteBatch seed;
  seed.Put(cold, "seed");
  seed.Put(hot, "seed");
  ASSERT_TRUE(fx.client->Write(WriteOptions(), seed).ok());

  std::optional<std::string> seen = TxnRead(fx.client.get(), hot);
  ASSERT_TRUE(fx.client->Put(hot, "overtaken").ok());
  WriteBatch doomed;
  ExpectSeen(&doomed, hot, seen);
  doomed.Put(cold, "doomed");
  doomed.Put(hot, "doomed");
  Status s = fx.client->Write(WriteOptions(), doomed);
  EXPECT_TRUE(s.IsAborted()) << s.ToString();

  EXPECT_EQ(TxnRead(fx.client.get(), cold), "seed")
      << "2PC must roll back prepared shards";
  EXPECT_EQ(TxnRead(fx.client.get(), hot), "overtaken");
  for (size_t shard = 0; shard < 4; shard++) {
    std::vector<uint64_t> in_doubt;
    ASSERT_TRUE(fx.client->shard(shard)->TxnInDoubt(&in_doubt).ok());
    EXPECT_TRUE(in_doubt.empty()) << "shard " << shard;
  }
  // The rolled-back prepare released its locks.
  EXPECT_TRUE(fx.client->Put(cold, "free").ok());
  MetricsSnapshot m = fx.client->coordinator()->Metrics();
  EXPECT_EQ(m.CounterValue("cluster.coordinator.aborts"), 1u);
}

// Random transfers between accounts, each a read-modify-write of two
// balances retried until it commits; returns how many committed.
int RunTransfers(ClusterClient* client, int accounts, int threads,
                 int transfers_each, bool verify, uint64_t seed) {
  std::atomic<int> committed{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; t++) {
    pool.emplace_back([&, t] {
      Random rng(seed + t);
      for (int i = 0; i < transfers_each; i++) {
        const std::string from = "acct" + std::to_string(rng.Uniform(accounts));
        const std::string to = "acct" + std::to_string(rng.Uniform(accounts));
        if (from == to) continue;
        const int amount = static_cast<int>(rng.Range(1, 40));
        Status s = RetryConflicts([&] {
          std::optional<std::string> fv = TxnRead(client, from, verify);
          std::optional<std::string> tv = TxnRead(client, to, verify);
          if (AsCount(fv) < amount) return Status::OK();  // refused
          WriteBatch batch;
          ExpectSeen(&batch, from, fv);
          ExpectSeen(&batch, to, tv);
          batch.Put(from, std::to_string(AsCount(fv) - amount));
          batch.Put(to, std::to_string(AsCount(tv) + amount));
          Status s = client->Write(WriteOptions(), batch);
          if (s.ok()) committed++;
          return s;
        });
        EXPECT_TRUE(s.ok()) << s.ToString();
      }
    });
  }
  for (auto& th : pool) th.join();
  return committed.load();
}

long TotalBalance(ClusterClient* client, int accounts) {
  long total = 0;
  for (int i = 0; i < accounts; i++) {
    total += AsCount(TxnRead(client, "acct" + std::to_string(i)));
  }
  return total;
}

void OpenAccounts(ClusterClient* client, int accounts, int initial) {
  WriteBatch init;
  for (int i = 0; i < accounts; i++) {
    init.Put("acct" + std::to_string(i), std::to_string(initial));
  }
  ASSERT_TRUE(client->Write(WriteOptions(), init).ok());
}

// Property: concurrent transfers preserve the total balance invariant
// (serializability smoke test).
TEST(TwoPhaseCommitTest, ConcurrentTransfersPreserveTotal) {
  constexpr int kAccounts = 16;
  constexpr int kInitial = 1000;
  ClusterFixture fx(4);
  OpenAccounts(fx.client.get(), kAccounts, kInitial);
  EXPECT_GT(RunTransfers(fx.client.get(), kAccounts, /*threads=*/8,
                         /*transfers_each=*/30, /*verify=*/true, 1000),
            0);
  EXPECT_EQ(TotalBalance(fx.client.get(), kAccounts),
            static_cast<long>(kAccounts) * kInitial);
}

TEST(TwoPhaseCommitTest, ReadCommittedAnalyticsDoNotAbortOltp) {
  // The section 3.3 scenario: an analytical status check reads at read
  // committed — verified, but in no read set — while purchases
  // continue; the purchases never abort on account of the analytics.
  ClusterFixture fx(4);
  WriteBatch init;
  for (int i = 0; i < 20; i++) {
    init.Put("stock" + std::to_string(i), std::to_string(100 - i * 5));
  }
  ASSERT_TRUE(fx.client->Write(WriteOptions(), init).ok());
  ReadOptions verified;
  verified.verify = true;
  std::vector<PosEntry> report;
  ASSERT_TRUE(fx.client->Scan(verified, "stock", "stock~", 0, &report).ok());
  ASSERT_EQ(report.size(), 20u);
  int low_stock = 0;
  for (int i = 0; i < 20; i++) {
    const std::string item = "stock" + std::to_string(i);
    std::optional<std::string> analytics = TxnRead(fx.client.get(), item);
    ASSERT_TRUE(analytics.has_value());
    if (std::stoi(*analytics) < 50) low_stock++;
    // A purchase of the same item, with its own read, right after the
    // analytics read it.
    ASSERT_TRUE(IncrementAll(fx.client.get(), {item}).ok())
        << "read-committed reads must not abort writers";
  }
  EXPECT_GT(low_stock, 0);
  // The earlier report read every item too; none of it aborted anyone.
  MetricsSnapshot m = fx.client->coordinator()->Metrics();
  EXPECT_EQ(m.CounterValue("cluster.coordinator.aborts"), 0u);
}

// --- Multi-version reads and read-set isolation ------------------------------

TEST(MvccTest, SnapshotReadsSeeCorrectVersions) {
  ClusterFixture fx(2);
  const std::string key = KeyOnShard(1, 2, "versioned");
  ASSERT_TRUE(fx.client->Put(key, "v10").ok());
  ClusterDigest at_v10;
  ASSERT_TRUE(fx.client->GetClusterDigest(&at_v10).ok());
  ASSERT_TRUE(fx.client->Put(key, "v20").ok());
  ClusterDigest at_v20;
  ASSERT_TRUE(fx.client->GetClusterDigest(&at_v20).ok());
  std::optional<std::string> value;
  ReadProof proof;
  ASSERT_TRUE(fx.client->shard(1)
                  ->GetProofAt(at_v10.shards[1].index_root, key, &value, &proof)
                  .ok());
  EXPECT_EQ(value, "v10");
  ASSERT_TRUE(fx.client->shard(1)
                  ->GetProofAt(at_v20.shards[1].index_root, key, &value, &proof)
                  .ok());
  EXPECT_EQ(value, "v20");
}

TEST(MvccTest, DeleteCreatesTombstone) {
  ClusterFixture fx(2);
  const std::string key = KeyOnShard(0, 2, "deleted");
  ASSERT_TRUE(fx.client->Put(key, "v").ok());
  ClusterDigest before;
  ASSERT_TRUE(fx.client->GetClusterDigest(&before).ok());
  ASSERT_TRUE(fx.client->Delete(key).ok());
  EXPECT_EQ(TxnRead(fx.client.get(), key), std::nullopt);
  // The older version stays readable at its snapshot.
  std::optional<std::string> value;
  ReadProof proof;
  ASSERT_TRUE(fx.client->shard(0)
                  ->GetProofAt(before.shards[0].index_root, key, &value, &proof)
                  .ok());
  EXPECT_EQ(value, "v");
}

TEST(MvccTest, PreparedKeyBlocksReadersAndWriters) {
  ClusterFixture fx(2);
  const std::string key = KeyOnShard(0, 2, "prepared");
  ASSERT_TRUE(fx.client->Put(key, "1").ok());
  WriteBatch staged;
  staged.Put(key, "10");
  ASSERT_TRUE(fx.client->shard(0)->TxnPrepare(51, staged).ok());
  // Writers and serializable readers (a read set naming the key) wait
  // for the decision...
  EXPECT_TRUE(fx.client->Put(key, "w").IsBusy());
  EXPECT_TRUE(IncrementAll(fx.client.get(), {key}).IsBusy());
  WriteBatch reads_only;
  reads_only.Expect(key, Slice("1"));
  reads_only.Put(KeyOnShard(0, 2, "elsewhere"), "x");
  EXPECT_TRUE(fx.client->Write(WriteOptions(), reads_only).IsBusy());
  // ...while a plain read proceeds at read committed.
  EXPECT_EQ(TxnRead(fx.client.get(), key), "1");
  ASSERT_TRUE(fx.client->shard(0)->TxnCommit(51).ok());
}

TEST(MvccTest, AbortPreparedReleasesLock) {
  ClusterFixture fx(2);
  const std::string key = KeyOnShard(1, 2, "released");
  WriteBatch staged;
  staged.Put(key, "in-doubt");
  ASSERT_TRUE(fx.client->shard(1)->TxnPrepare(52, staged).ok());
  EXPECT_TRUE(fx.client->Put(key, "w").IsBusy());
  ASSERT_TRUE(fx.client->shard(1)->TxnAbort(52).ok());
  EXPECT_TRUE(fx.client->Put(key, "w").ok());
  EXPECT_EQ(TxnRead(fx.client.get(), key), "w");
}

TEST(MvccTest, TimestampOrderingConflictAborts) {
  // A writer whose read was overtaken by a later commit aborts: the
  // serial order must place it before that commit, and its write would
  // not be.
  ClusterFixture fx(2);
  const std::string key = KeyOnShard(0, 2, "ordered");
  ASSERT_TRUE(fx.client->Put(key, "v0").ok());
  std::optional<std::string> seen = TxnRead(fx.client.get(), key);
  ASSERT_TRUE(fx.client->Put(key, "v1").ok());
  WriteBatch late;
  ExpectSeen(&late, key, seen);
  late.Put(key, "late");
  EXPECT_TRUE(fx.client->Write(WriteOptions(), late).IsAborted());
  EXPECT_EQ(TxnRead(fx.client.get(), key), "v1");
}

TEST(MvccTest, ReadCommittedDoesNotPoisonWriters) {
  ClusterFixture fx(2);
  const std::string key = KeyOnShard(1, 2, "analyzed");
  ASSERT_TRUE(fx.client->Put(key, "v0").ok());
  // A read outside any read set...
  EXPECT_EQ(TxnRead(fx.client.get(), key), "v0");
  // ...does not abort a later writer, blind or read-modify-write.
  EXPECT_TRUE(fx.client->Put(key, "v1").ok());
  EXPECT_TRUE(IncrementAll(fx.client.get(), {KeyOnShard(1, 2, "other")}).ok());
  WriteBatch rmw;
  ExpectSeen(&rmw, key, TxnRead(fx.client.get(), key));
  rmw.Put(key, "v2");
  EXPECT_TRUE(fx.client->Write(WriteOptions(), rmw).ok());
}

TEST(MvccTest, ReadCommittedIgnoresPreparedWrites) {
  ClusterFixture fx(2);
  const std::string key = KeyOnShard(0, 2, "rc");
  ASSERT_TRUE(fx.client->Put(key, "committed").ok());
  WriteBatch staged;
  staged.Put(key, "in-doubt");
  ASSERT_TRUE(fx.client->shard(0)->TxnPrepare(53, staged).ok());
  EXPECT_EQ(TxnRead(fx.client.get(), key), "committed");
  EXPECT_EQ(TxnRead(fx.client.get(), key, /*verify=*/false), "committed");
  ASSERT_TRUE(fx.client->shard(0)->TxnCommit(53).ok());
  EXPECT_EQ(TxnRead(fx.client.get(), key), "in-doubt");
}

TEST(MvccTest, ReadCommittedSeesLatestNotSnapshot) {
  ClusterFixture fx(2);
  const std::string key = KeyOnShard(1, 2, "latest");
  ASSERT_TRUE(fx.client->Put(key, "old").ok());
  EXPECT_EQ(TxnRead(fx.client.get(), key), "old");
  ASSERT_TRUE(fx.client->Put(key, "new").ok());
  EXPECT_EQ(TxnRead(fx.client.get(), key), "new");
  EXPECT_EQ(TxnRead(fx.client.get(), key, /*verify=*/false), "new");
}

// --- Verified reads against the cluster root --------------------------------

TEST(ClusterVerifyTest, VerifiedScanMergesAllShardsInKeyOrder) {
  ClusterFixture fx(3);
  // Keys that interleave across shards when sorted.
  std::vector<std::string> keys;
  for (int i = 10; i < 40; i++) {
    std::string key = "scan-" + std::to_string(i);
    keys.push_back(key);
    ASSERT_TRUE(fx.client->Put(key, "v" + std::to_string(i)).ok());
  }
  std::vector<PosEntry> rows;
  ASSERT_TRUE(fx.client->VerifiedScan("scan-", "scan-~", 0, &rows).ok());
  ASSERT_EQ(rows.size(), keys.size());
  for (size_t i = 0; i + 1 < rows.size(); i++) {
    EXPECT_LT(rows[i].key, rows[i + 1].key);
  }
  // A limit returns the globally smallest rows, not one shard's.
  ASSERT_TRUE(fx.client->VerifiedScan("scan-", "scan-~", 7, &rows).ok());
  ASSERT_EQ(rows.size(), 7u);
  EXPECT_EQ(rows[0].key, "scan-10");
  EXPECT_EQ(rows[6].key, "scan-16");
}

TEST(ClusterVerifyTest, VerifiedReadsSurviveConcurrentCommits) {
  ClusterFixture fx(3);
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(
        fx.client->Put("stable-" + std::to_string(i), "value").ok());
  }
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int i = 0;
    while (!stop.load()) {
      fx.client->Put("churn-" + std::to_string(i++ % 50), "w");
    }
  });
  for (int i = 0; i < 50; i++) {
    std::string value;
    Status s = fx.client->VerifiedGet("stable-" + std::to_string(i % 20),
                                      &value);
    EXPECT_TRUE(s.ok()) << s.ToString();
    if (s.ok()) EXPECT_EQ(value, "value");
  }
  // Verified scans too: every shard's range proof checks against the
  // snapshot pinned while the writer keeps committing.
  for (int i = 0; i < 20; i++) {
    std::vector<PosEntry> rows;
    Status s = fx.client->VerifiedScan("stable-", "stable-~", 0, &rows);
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(rows.size(), 20u);
    for (const PosEntry& row : rows) EXPECT_EQ(row.value, "value");
  }
  stop.store(true);
  writer.join();
}

TEST(ClusterVerifyTest, GetEvidenceVerifiesAndEveryTamperIsRejected) {
  ClusterFixture fx(3);
  ASSERT_TRUE(fx.client->Put("evidence-key", "evidence-value").ok());
  VerifiedKv::Evidence evidence;
  ASSERT_TRUE(fx.client->GetProof("evidence-key", &evidence).ok());
  ASSERT_TRUE(evidence.value.has_value());
  EXPECT_EQ(*evidence.value, "evidence-value");
  ASSERT_TRUE(
      VerifyClusterGetEvidence("evidence-key", evidence).ok());

  // Absence is provable too.
  VerifiedKv::Evidence absent;
  ASSERT_TRUE(fx.client->GetProof("never-written", &absent).IsNotFound());
  EXPECT_FALSE(absent.value.has_value());
  EXPECT_TRUE(VerifyClusterGetEvidence("never-written", absent).ok());

  // Byte-level tamper fuzz over the whole envelope: value, proof and
  // digest. No flipped byte may verify.
  std::string* fields[] = {&*evidence.value, &evidence.proof,
                           &evidence.digest};
  for (std::string* field : fields) {
    for (size_t i = 0; i < field->size(); i++) {
      const char original = (*field)[i];
      (*field)[i] = static_cast<char>(original ^ 0x2d);
      EXPECT_FALSE(
          VerifyClusterGetEvidence("evidence-key", evidence).ok())
          << "tampered byte " << i << " accepted";
      (*field)[i] = original;
    }
  }
  // The key is part of the claim: evidence for one key must not vouch
  // for another.
  EXPECT_FALSE(VerifyClusterGetEvidence("other-key", evidence).ok());
}

TEST(ClusterVerifyTest, ScanEvidenceVerifiesAndSampledTampersAreRejected) {
  ClusterFixture fx(3);
  for (int i = 0; i < 12; i++) {
    ASSERT_TRUE(
        fx.client->Put("se-" + std::to_string(100 + i), "row").ok());
  }
  VerifiedKv::ScanEvidence evidence;
  ASSERT_TRUE(fx.client->ScanProof("se-", "se-~", 0, &evidence).ok());
  EXPECT_EQ(evidence.rows.size(), 12u);
  ASSERT_TRUE(
      VerifyClusterScanEvidence("se-", "se-~", 0, evidence).ok());

  // Dropping, reordering or rewriting merged rows breaks verification.
  VerifiedKv::ScanEvidence dropped = evidence;
  dropped.rows.pop_back();
  EXPECT_FALSE(
      VerifyClusterScanEvidence("se-", "se-~", 0, dropped).ok());
  VerifiedKv::ScanEvidence rewritten = evidence;
  rewritten.rows[0].value = "forged";
  EXPECT_FALSE(
      VerifyClusterScanEvidence("se-", "se-~", 0, rewritten).ok());

  // Sampled byte flips across proof and digest (every 7th byte keeps
  // the fuzz sweep fast; offsets cover varints, hashes and row bytes).
  for (std::string* field : {&evidence.proof, &evidence.digest}) {
    for (size_t i = 0; i < field->size(); i += 7) {
      const char original = (*field)[i];
      (*field)[i] = static_cast<char>(original ^ 0x11);
      EXPECT_FALSE(
          VerifyClusterScanEvidence("se-", "se-~", 0, evidence).ok())
          << "tampered byte " << i << " accepted";
      (*field)[i] = original;
    }
  }
}

TEST(ClusterVerifyTest, ScanRejectsRowsFromNonOwningShard) {
  ClusterFixture fx(3);
  for (int i = 0; i < 6; i++) {
    ASSERT_TRUE(fx.client->Put("fr-" + std::to_string(i), "honest").ok());
  }
  // A key the partition function assigns to shard 1, planted in shard
  // 0's own tree: shard 0 can prove the row, but does not own it.
  const std::string planted = KeyOnShard(1, 3, "fr-x");
  ASSERT_TRUE(fx.fleet->db(0)->Put(planted, "planted").ok());
  std::string value;
  EXPECT_TRUE(fx.client->VerifiedGet(planted, &value).IsNotFound());

  std::vector<PosEntry> rows;
  EXPECT_TRUE(
      fx.client->VerifiedScan("fr-", "fr-~", 0, &rows).IsVerificationFailed());
  VerifiedKv::ScanEvidence evidence;
  EXPECT_TRUE(fx.client->ScanProof("fr-", "fr-~", 0, &evidence)
                  .IsVerificationFailed());

  // The same answer assembled by hand into the cluster envelope, as a
  // dishonest aggregator would ship it: every shard proof checks out
  // against its pinned root, and the evidence verifier must still
  // refuse the row shard 0 does not own.
  ClusterDigest digest;
  ASSERT_TRUE(fx.client->GetClusterDigest(&digest).ok());
  std::vector<std::vector<PosEntry>> per_shard(3);
  VerifiedKv::ScanEvidence forged;
  PutVarint64(&forged.proof, per_shard.size());
  for (size_t i = 0; i < per_shard.size(); i++) {
    ScanProof proof;
    ASSERT_TRUE(fx.client->shard(i)
                    ->ScanProofAt(digest.shards[i].index_root, "fr-", "fr-~",
                                  0, &per_shard[i], &proof)
                    .ok());
    ASSERT_TRUE(VerifyScan(digest.shards[i], "fr-", "fr-~", 0,
                           per_shard[i], proof)
                    .ok());
    PutEntryList(&forged.proof, per_shard[i]);
    proof.EncodeTo(&forged.proof);
  }
  digest.EncodeTo(&forged.digest);
  MergeShardRows(per_shard, 0, &forged.rows);
  ASSERT_EQ(forged.rows.size(), 7u);
  EXPECT_TRUE(VerifyClusterScanEvidence("fr-", "fr-~", 0, forged)
                  .IsVerificationFailed());
}

// The shard index in cluster evidence is untrusted: one past the
// cluster, or any index into a cluster of no shards, is refused.
TEST(ClusterVerifyTest, GetEvidenceNamingNoShardOfTheClusterIsRefused) {
  ClusterFixture fx(3);
  ASSERT_TRUE(fx.client->Put("k", "v").ok());
  VerifiedKv::Evidence evidence;
  ASSERT_TRUE(fx.client->GetProof("k", &evidence).ok());
  ASSERT_TRUE(VerifyClusterGetEvidence("k", evidence).ok());
  Slice input(evidence.proof);
  uint64_t shard = 0;
  ASSERT_TRUE(GetVarint64(&input, &shard).ok());
  const std::string shard_proof = input.ToString();

  VerifiedKv::Evidence past_the_end = evidence;
  past_the_end.proof.clear();
  PutVarint64(&past_the_end.proof, 3);
  past_the_end.proof += shard_proof;
  EXPECT_TRUE(
      VerifyClusterGetEvidence("k", past_the_end).IsVerificationFailed());

  ClusterDigest empty;
  empty.Seal();
  VerifiedKv::Evidence no_shards = evidence;
  no_shards.digest.clear();
  empty.EncodeTo(&no_shards.digest);
  no_shards.proof.clear();
  PutVarint64(&no_shards.proof, 0);
  no_shards.proof += shard_proof;
  EXPECT_TRUE(VerifyClusterGetEvidence("k", no_shards).IsVerificationFailed());
}

// Shard 1 of three served through a relay that rewrites "honest" to
// "forged" in its pinned-root proof replies: the proof fails
// verification, and the error names the shard that served it.
TEST(ClusterVerifyTest, FailedShardProofNamesTheShard) {
  LocalFleet::Options fleet_options;
  fleet_options.shards = 3;
  std::unique_ptr<LocalFleet> fleet;
  ASSERT_TRUE(LocalFleet::Open(fleet_options, &fleet).ok());
  std::unique_ptr<NetClient> to_shard;
  ASSERT_TRUE(NetClient::Connect(fleet->ClientOptions(1).net, &to_shard).ok());
  std::unique_ptr<NetServer> relay;
  ASSERT_TRUE(NetServer::Start(
                  [&](uint32_t method, const std::string& request,
                      std::string* response) {
                    std::string reply;
                    Status s = to_shard->Call(method, request, &reply);
                    if (method == wire::kGetProofAt ||
                        method == wire::kScanProofAt) {
                      const size_t at = reply.find("honest");
                      if (at != std::string::npos) {
                        reply.replace(at, 6, "forged");
                      }
                    }
                    response->append(reply);
                    return s;
                  },
                  NetServer::Options(), &relay)
                  .ok());
  ClusterClient::Options options = fleet->ClusterOptions();
  options.shards[1].port = relay->port();
  std::unique_ptr<ClusterClient> client;
  ASSERT_TRUE(ClusterClient::Open(options, &client).ok());
  const std::string key = KeyOnShard(1, 3, "tag");
  ASSERT_TRUE(client->Put(key, "honest").ok());

  std::string value;
  Status s = client->VerifiedGet(key, &value);
  EXPECT_TRUE(s.IsVerificationFailed()) << s.ToString();
  EXPECT_NE(s.ToString().find("shard 1: "), std::string::npos)
      << s.ToString();
  std::vector<PosEntry> rows;
  s = client->VerifiedScan("tag", "tag~", 0, &rows);
  EXPECT_TRUE(s.IsVerificationFailed()) << s.ToString();
  EXPECT_NE(s.ToString().find("shard 1: "), std::string::npos)
      << s.ToString();
}

// --- Participant crash recovery ----------------------------------------------

class ClusterCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/spitz_cluster_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  SpitzOptions DurableOptions() {
    SpitzOptions options;
    options.data_dir = dir_;
    return options;
  }

  std::string dir_;
};

TEST_F(ClusterCrashTest, ParticipantRestartRestagesInDoubtThenCommits) {
  const uint64_t txn_id = 909;
  LocalFleet::Options options;
  options.db.data_dir = dir_;
  // Session 1: vote yes, then "crash" before any decision arrives.
  {
    std::unique_ptr<LocalFleet> fleet;
    ASSERT_TRUE(LocalFleet::Open(options, &fleet).ok());
    WriteOptions synced;
    synced.sync = true;
    ASSERT_TRUE(fleet->db(0)->Put(synced, "pre-existing", "durable").ok());
    WriteBatch batch;
    batch.Put("staged-a", "A");
    batch.Put("staged-b", "B");
    ASSERT_TRUE(fleet->db(0)->participant()->PrepareTxn(txn_id, batch).ok());
  }
  // Session 2: the restarted shard, reached over TCP like a real
  // coordinator would.
  std::unique_ptr<LocalFleet> fleet;
  ASSERT_TRUE(LocalFleet::Open(options, &fleet).ok());
  std::unique_ptr<SpitzClient> client;
  ASSERT_TRUE(SpitzClient::Open(fleet->ClientOptions(0), &client).ok());

  // The vote survived: the txn is in-doubt and its locks are re-taken.
  std::vector<uint64_t> in_doubt;
  ASSERT_TRUE(client->TxnInDoubt(&in_doubt).ok());
  ASSERT_EQ(in_doubt.size(), 1u);
  EXPECT_EQ(in_doubt[0], txn_id);
  EXPECT_TRUE(client->Put("staged-a", "intruder").IsBusy());
  std::string value;
  EXPECT_TRUE(client->Get("staged-a", &value).IsNotFound());

  // The coordinator's decision finally lands; the staged batch applies.
  ASSERT_TRUE(client->TxnCommit(txn_id).ok());
  ASSERT_TRUE(client->VerifiedGet("staged-a", &value).ok());
  EXPECT_EQ(value, "A");
  ASSERT_TRUE(client->VerifiedGet("staged-b", &value).ok());
  EXPECT_EQ(value, "B");
  ASSERT_TRUE(client->Get("pre-existing", &value).ok());
  EXPECT_EQ(value, "durable");
  ASSERT_TRUE(client->TxnInDoubt(&in_doubt).ok());
  EXPECT_TRUE(in_doubt.empty());
}

TEST_F(ClusterCrashTest, ParticipantRestartHonorsDurableAbort) {
  const uint64_t txn_id = 910;
  {
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(DurableOptions(), &db).ok());
    WriteBatch batch;
    batch.Put("aborted-key", "never");
    ASSERT_TRUE(db->participant()->PrepareTxn(txn_id, batch).ok());
    ASSERT_TRUE(db->participant()->AbortTxn(txn_id).ok());
  }
  std::unique_ptr<SpitzDb> db;
  ASSERT_TRUE(SpitzDb::Open(DurableOptions(), &db).ok());
  std::vector<uint64_t> in_doubt;
  ASSERT_TRUE(db->participant()->InDoubtTxns(&in_doubt).ok());
  EXPECT_TRUE(in_doubt.empty());
  std::string value;
  EXPECT_TRUE(db->Get("aborted-key", &value).IsNotFound());
  EXPECT_TRUE(db->Put("aborted-key", "free").ok());
}

TEST_F(ClusterCrashTest, ResolvedOutcomesSurviveRestart) {
  const uint64_t committed_id = 921;
  const uint64_t aborted_id = 922;
  const uint64_t in_doubt_id = 923;
  {
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(DurableOptions(), &db).ok());
    WriteBatch committed;
    committed.Put("c-key", "C");
    ASSERT_TRUE(db->participant()->PrepareTxn(committed_id, committed).ok());
    ASSERT_TRUE(db->participant()->CommitTxn(committed_id).ok());
    WriteBatch aborted;
    aborted.Put("a-key", "A");
    ASSERT_TRUE(db->participant()->PrepareTxn(aborted_id, aborted).ok());
    ASSERT_TRUE(db->participant()->AbortTxn(aborted_id).ok());
    WriteBatch undecided;
    undecided.Put("d-key", "D");
    ASSERT_TRUE(db->participant()->PrepareTxn(in_doubt_id, undecided).ok());
  }
  // Two restarts: the first replays the raw log (and compacts it), the
  // second replays the compacted one. The outcome tombstones must
  // survive both — a retried decision after any number of restarts
  // still hears the truth, never NotFound guesswork.
  for (int restart = 0; restart < 2; restart++) {
    SCOPED_TRACE("restart " + std::to_string(restart));
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(DurableOptions(), &db).ok());
    std::vector<uint64_t> in_doubt;
    ASSERT_TRUE(db->participant()->InDoubtTxns(&in_doubt).ok());
    ASSERT_EQ(in_doubt.size(), 1u);
    EXPECT_EQ(in_doubt[0], in_doubt_id);
    EXPECT_TRUE(db->participant()->CommitTxn(committed_id).ok());
    EXPECT_TRUE(db->participant()->CommitTxn(aborted_id).IsAborted());
    EXPECT_TRUE(db->participant()->AbortTxn(committed_id).IsInvalidArgument());
    std::string value;
    ASSERT_TRUE(db->Get("c-key", &value).ok());
    EXPECT_EQ(value, "C");
    EXPECT_TRUE(db->Get("a-key", &value).IsNotFound());
  }
}

TEST_F(ClusterCrashTest, ReadSetPrepareSurvivesRestartWithItsReadLock) {
  const uint64_t txn_id = 930;
  LocalFleet::Options options;
  options.db.data_dir = dir_;
  {
    std::unique_ptr<LocalFleet> fleet;
    ASSERT_TRUE(LocalFleet::Open(options, &fleet).ok());
    WriteOptions synced;
    synced.sync = true;
    ASSERT_TRUE(fleet->db(0)->Put(synced, "seen", "v").ok());
    WriteBatch batch;
    batch.Expect("seen", Slice("v"));
    batch.Put("written", "w");
    ASSERT_TRUE(fleet->db(0)->participant()->PrepareTxn(txn_id, batch).ok());
  }
  std::unique_ptr<LocalFleet> fleet;
  ASSERT_TRUE(LocalFleet::Open(options, &fleet).ok());
  std::unique_ptr<SpitzClient> client;
  ASSERT_TRUE(SpitzClient::Open(fleet->ClientOptions(0), &client).ok());
  std::vector<uint64_t> in_doubt;
  ASSERT_TRUE(client->TxnInDoubt(&in_doubt).ok());
  EXPECT_EQ(in_doubt, std::vector<uint64_t>{txn_id});
  // The read key is locked again, not only the written one: a blind
  // write could otherwise slip under a read the vote already vouched
  // for.
  EXPECT_TRUE(client->Put("seen", "blind").IsBusy());
  EXPECT_TRUE(client->Put("written", "blind").IsBusy());
  ASSERT_TRUE(client->TxnCommit(txn_id).ok());
  std::string value;
  ASSERT_TRUE(client->VerifiedGet("written", &value).ok());
  EXPECT_EQ(value, "w");
  ASSERT_TRUE(client->VerifiedGet("seen", &value).ok());
  EXPECT_EQ(value, "v");
  EXPECT_TRUE(client->Put("seen", "blind").ok());
}

TEST_F(ClusterCrashTest, CrashDuringTxnLogCompactionLosesNoPromises) {
  // Recovery compacts txn.log whenever decisions superseded prepares.
  // The rewrite must be atomic: crash at every I/O op of a compacting
  // Open, then verify the shard still knows both its durable yes vote
  // (the in-doubt prepare) and the resolved outcome tombstone. The old
  // truncate-then-rewrite scheme lost both to a crash between the
  // truncate and the re-appends.
  const uint64_t resolved_id = 931;
  const uint64_t promised_id = 932;
  auto seed_dirty_log = [&] {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(DurableOptions(), &db).ok());
    WriteBatch done;
    done.Put("done-key", "v");
    ASSERT_TRUE(db->participant()->PrepareTxn(resolved_id, done).ok());
    ASSERT_TRUE(db->participant()->CommitTxn(resolved_id).ok());
    WriteBatch promised;
    promised.Put("promised-key", "v");
    ASSERT_TRUE(db->participant()->PrepareTxn(promised_id, promised).ok());
  };

  // Dry run: count the I/O ops of the compacting Open.
  uint64_t total_ops = 0;
  {
    seed_dirty_log();
    FaultInjectionEnv env(Env::Default());
    SpitzOptions options = DurableOptions();
    options.env = &env;
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(options, &db).ok());
    total_ops = env.ops_seen();
  }
  ASSERT_GT(total_ops, 0u);

  for (CrashMode mode : {CrashMode::kDropUnsynced, CrashMode::kKeepUnsynced}) {
    for (uint64_t op = 0; op < total_ops; op++) {
      SCOPED_TRACE("crash mode " + std::to_string(static_cast<int>(mode)) +
                   ", op " + std::to_string(op));
      seed_dirty_log();
      FaultInjectionEnv env(Env::Default());
      env.FailAt(op, FaultKind::kShortWrite, /*partial_bytes=*/2);
      SpitzOptions options = DurableOptions();
      options.env = &env;
      {
        std::unique_ptr<SpitzDb> db;
        SpitzDb::Open(options, &db);  // dies at the armed op (or soon after)
      }
      env.Crash();
      ASSERT_TRUE(env.SimulateCrash(mode).ok());
      env.Revive();
      std::unique_ptr<SpitzDb> db;
      Status s = SpitzDb::Open(options, &db);
      ASSERT_TRUE(s.ok()) << s.ToString();
      // The durable yes vote survived every crash point...
      std::vector<uint64_t> in_doubt;
      ASSERT_TRUE(db->participant()->InDoubtTxns(&in_doubt).ok());
      ASSERT_EQ(in_doubt.size(), 1u) << "in-doubt prepare lost";
      EXPECT_EQ(in_doubt[0], promised_id);
      // ...and so did the resolved outcome.
      EXPECT_TRUE(db->participant()->CommitTxn(resolved_id).ok());
      EXPECT_TRUE(db->participant()->AbortTxn(resolved_id).IsInvalidArgument());
    }
  }
}

// --- Coordinator crash: presumed abort ---------------------------------------

TEST(ClusterSweeperTest, SilentCoordinatorIsPresumedAbortedOnTimeout) {
  LocalFleet::Options options;
  options.server.txn_abort_after_ms = 50;
  std::unique_ptr<LocalFleet> fleet;
  ASSERT_TRUE(LocalFleet::Open(options, &fleet).ok());
  std::unique_ptr<SpitzClient> client;
  ASSERT_TRUE(SpitzClient::Open(fleet->ClientOptions(0), &client).ok());

  WriteBatch batch;
  batch.Put("swept-key", "never-committed");
  ASSERT_TRUE(client->TxnPrepare(31337, batch).ok());
  EXPECT_TRUE(client->Put("swept-key", "blocked").IsBusy());

  // The coordinator goes silent; the sweeper fires presumed abort.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::vector<uint64_t> in_doubt;
  do {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(client->TxnInDoubt(&in_doubt).ok());
  } while (!in_doubt.empty() && std::chrono::steady_clock::now() < deadline);
  EXPECT_TRUE(in_doubt.empty()) << "sweeper never aborted the orphan";

  std::string value;
  EXPECT_TRUE(client->Get("swept-key", &value).IsNotFound());
  EXPECT_TRUE(client->Put("swept-key", "unblocked").ok());
  // A late commit for the swept transaction must hear the truth — the
  // shard resolved it by abort — so the coordinator can surface the
  // broken decision instead of claiming success.
  EXPECT_TRUE(client->TxnCommit(31337).IsAborted());
}

// --- Handshake and factories -------------------------------------------------

TEST(ClusterHandshakeTest, VersionMismatchIsRejectedAtConnect) {
  std::unique_ptr<LocalFleet> fleet;
  ASSERT_TRUE(LocalFleet::Open(LocalFleet::Options(), &fleet).ok());

  NetClient::Options bad = fleet->ClientOptions(0).net;
  bad.protocol_version = kProtocolVersion + 7;
  std::unique_ptr<NetClient> client;
  Status s = NetClient::Connect(bad, &client);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.ToString().find("protocol version mismatch"),
            std::string::npos);

  // A well-versioned client on the same server still connects and
  // learns the server's feature bits.
  ASSERT_TRUE(NetClient::Connect(fleet->ClientOptions(0).net, &client).ok());
  EXPECT_NE(client->server_features() & kFeatureTwoPhaseCommit, 0u);
  EXPECT_NE(client->server_features() & kFeatureClusterDigest, 0u);
}

// v5 changed the block bytes a kReplicate record ships (compact stored
// entries), so a v4 peer is refused at the handshake rather than sent
// blocks it would misread.
TEST(ClusterHandshakeTest, VersionFourPeerIsRefused) {
  ASSERT_EQ(kProtocolVersion, 5u);
  std::unique_ptr<LocalFleet> fleet;
  ASSERT_TRUE(LocalFleet::Open(LocalFleet::Options(), &fleet).ok());
  NetClient::Options v4 = fleet->ClientOptions(0).net;
  v4.protocol_version = 4;
  std::unique_ptr<NetClient> client;
  Status s = NetClient::Connect(v4, &client);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.ToString().find("peer speaks v4"), std::string::npos)
      << s.ToString();
}

TEST(ClusterFactoryTest, OpenFactoriesValidateTheirOptions) {
  {
    SpitzServer::Options options;  // no db
    std::unique_ptr<SpitzServer> server;
    EXPECT_TRUE(SpitzServer::Open(options, &server).IsInvalidArgument());
  }
  {
    SpitzDb db;
    SpitzServer::Options options;
    options.db = &db;
    options.net.dispatcher_count = 0;
    std::unique_ptr<SpitzServer> server;
    EXPECT_TRUE(SpitzServer::Open(options, &server).IsInvalidArgument());
  }
  {
    SpitzClient::Options options;  // port 0
    std::unique_ptr<SpitzClient> client;
    EXPECT_TRUE(SpitzClient::Open(options, &client).IsInvalidArgument());
  }
  {
    ClusterClient::Options options;  // no shards
    std::unique_ptr<ClusterClient> client;
    EXPECT_TRUE(ClusterClient::Open(options, &client).IsInvalidArgument());
  }
  {
    ClusterClient::Options options;
    options.shards.emplace_back();  // port 0
    std::unique_ptr<ClusterClient> client;
    EXPECT_TRUE(ClusterClient::Open(options, &client).IsInvalidArgument());
  }
}

// --- Client-path regressions ------------------------------------------------

// A fake shard that answers the connect handshake correctly and then
// never responds to anything — the cleanest way to observe whether a
// per-read deadline actually reaches the transport.
class SilentShard {
 public:
  SilentShard() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    int one = 1;
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 1), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                          &len),
              0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }

  ~SilentShard() {
    stop_.store(true, std::memory_order_release);
    ::shutdown(listen_fd_, SHUT_RDWR);
    thread_.join();
    ::close(listen_fd_);
    if (conn_fd_ >= 0) ::close(conn_fd_);
  }

  uint16_t port() const { return port_; }

 private:
  void Serve() {
    conn_fd_ = ::accept(listen_fd_, nullptr, nullptr);
    if (conn_fd_ < 0) return;
    FrameDecoder decoder(1 << 20);
    ReceivedFrame frame;
    while (true) {
      ssize_t n =
          ::recv(conn_fd_, decoder.space(), decoder.space_size(), 0);
      if (n <= 0) return;
      decoder.Commit(static_cast<size_t>(n));
      if (decoder.Next(&frame) == FrameDecoder::Result::kFrame) break;
    }
    if (frame.method != kHandshakeMethod) return;
    std::string reply(kFramePrefixBytes, '\0');
    Handshake().EncodeTo(&reply);
    SealFrame(kHandshakeMethod, frame.request_id,
              WireStatusCode(Status::OK()), &reply);
    size_t sent = 0;
    while (sent < reply.size()) {
      ssize_t n = ::send(conn_fd_, reply.data() + sent, reply.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) return;
      sent += static_cast<size_t>(n);
    }
    // From here on: swallow every request, answer nothing.
    char buf[4096];
    while (!stop_.load(std::memory_order_acquire)) {
      ssize_t n = ::recv(conn_fd_, buf, sizeof(buf), 0);
      if (n <= 0) return;
    }
  }

  int listen_fd_ = -1;
  int conn_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

TEST(ClusterClientTest, NonVerifiedReadsForwardTheCallersOptions) {
  // Regression: the non-verified Get/Scan paths forwarded a
  // default-constructed ReadOptions() instead of the caller's, silently
  // discarding every non-verify read knob. Observable via deadline_ms:
  // against a shard that never answers, a 100ms per-read deadline must
  // surface as a fast TimedOut — the dropped-options bug fell back to
  // the 60s transport default instead.
  std::unique_ptr<LocalFleet> fleet;
  ASSERT_TRUE(LocalFleet::Open(LocalFleet::Options(), &fleet).ok());
  SilentShard shard1;

  ClusterClient::Options options;
  NetClient::Options endpoint0 = fleet->ClientOptions(0).net, endpoint1;
  endpoint1.port = shard1.port();
  endpoint1.connect_attempts = 1;
  endpoint0.deadline_ms = endpoint1.deadline_ms = 60'000;
  options.shards.push_back(endpoint0);
  options.shards.push_back(endpoint1);
  // The silent shard answers the handshake and nothing else, so the
  // open-time liveness probe would (correctly) refuse it; this test is
  // about per-read deadlines, so open lazily.
  options.probe_deadline_ms = 0;
  std::unique_ptr<ClusterClient> client;
  ASSERT_TRUE(ClusterClient::Open(options, &client).ok());

  ReadOptions read_options;
  read_options.deadline_ms = 100;

  const std::string silent_key = KeyOnShard(1, 2, "opt");
  std::string value;
  uint64_t t0 = MonotonicNanos();
  Status s = client->Get(read_options, silent_key, &value);
  uint64_t get_ms = (MonotonicNanos() - t0) / 1'000'000;
  EXPECT_TRUE(s.IsTimedOut()) << s.ToString();
  EXPECT_LT(get_ms, 10'000u);

  // Scan fans out to every shard, the silent one included.
  std::vector<PosEntry> rows;
  t0 = MonotonicNanos();
  s = client->Scan(read_options, "a", "z", 10, &rows);
  uint64_t scan_ms = (MonotonicNanos() - t0) / 1'000'000;
  EXPECT_TRUE(s.IsTimedOut()) << s.ToString();
  EXPECT_LT(scan_ms, 10'000u);

  // A key on the live shard is unaffected.
  const std::string live_key = KeyOnShard(0, 2, "opt");
  ASSERT_TRUE(client->Put(live_key, "v").ok());
  EXPECT_TRUE(client->Get(read_options, live_key, &value).ok());
  EXPECT_EQ(value, "v");
}

TEST(ClusterTxnTest, CommitRetryReconnectsToABouncedShard) {
  // Regression for the futile phase-2 retry loop: all kCommitRetries
  // used to fire back-to-back against the sticky-broken connection and
  // fail in microseconds. With backoff + the reconnect seam, a shard
  // whose server bounces between prepare and commit (same database,
  // same port — the prepared txn lives in the db) heals: the retry
  // dials a fresh connection and pushes the commit decision through.
  ClusterFixture fx(2);
  const std::string k0 = KeyOnShard(0, 2, "bounce");
  const std::string k1 = KeyOnShard(1, 2, "bounce");

  fx.client->coordinator()->SetBetweenPhasesHookForTest([&] {
    fx.fleet->KillPrimary(1);
    // The client's shard-1 connection must notice the close and go
    // sticky before phase 2 issues its first commit RPC.
    for (int i = 0;
         i < 5'000 && fx.client->shard(1)->ConnectionStatus().ok(); i++) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_FALSE(fx.client->shard(1)->ConnectionStatus().ok());
    Status s = fx.fleet->Bounce(1);
    ASSERT_TRUE(s.ok()) << s.ToString();
  });

  WriteBatch batch;
  batch.Put(k0, "left");
  batch.Put(k1, "right");
  Status s = fx.client->Write(WriteOptions(), batch);
  ASSERT_TRUE(s.ok()) << s.ToString();

  // Both sides of the cross-shard batch are visible — through the
  // reconnected shard-1 client too.
  std::string value;
  ASSERT_TRUE(fx.client->Get(k0, &value).ok());
  EXPECT_EQ(value, "left");
  ASSERT_TRUE(fx.client->Get(k1, &value).ok());
  EXPECT_EQ(value, "right");
  EXPECT_TRUE(fx.client->shard(1)->ConnectionStatus().ok());

  MetricsSnapshot m = fx.client->coordinator()->Metrics();
  EXPECT_EQ(m.CounterValue("cluster.coordinator.commits_2pc"), 1u);
  EXPECT_GE(m.CounterValue("cluster.coordinator.commit_retries"), 1u);
  EXPECT_EQ(m.CounterValue("cluster.coordinator.aborts"), 0u);
}

// --- Serializability across cluster configurations --------------------------

// How a transfer reads the balances its read set names.
enum class ReadPath : int { kPlain = 0, kVerified = 1 };

struct TxnParams {
  size_t shards;
  int threads;
  ReadPath reads;
};

class TxnConfigSweep : public ::testing::TestWithParam<TxnParams> {};

TEST_P(TxnConfigSweep, TransfersPreserveTotal) {
  constexpr int kAccounts = 12;
  constexpr int kInitial = 500;
  ClusterFixture fx(GetParam().shards);
  OpenAccounts(fx.client.get(), kAccounts, kInitial);
  RunTransfers(fx.client.get(), kAccounts, GetParam().threads,
               /*transfers_each=*/20, GetParam().reads == ReadPath::kVerified,
               500);
  EXPECT_EQ(TotalBalance(fx.client.get(), kAccounts),
            static_cast<long>(kAccounts) * kInitial);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TxnConfigSweep,
    ::testing::Values(TxnParams{1, 4, ReadPath::kPlain},
                      TxnParams{3, 4, ReadPath::kVerified},
                      TxnParams{3, 8, ReadPath::kPlain},
                      TxnParams{4, 4, ReadPath::kPlain},
                      TxnParams{4, 4, ReadPath::kVerified},
                      TxnParams{8, 8, ReadPath::kPlain},
                      TxnParams{8, 8, ReadPath::kVerified}));

}  // namespace
}  // namespace spitz
