#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/local_fleet.h"
#include "common/random.h"
#include "core/verifier.h"
#include "kvs/immutable_kvs.h"
#include "nonintrusive/non_intrusive_db.h"

namespace spitz {
namespace {

// --- ImmutableKvs -------------------------------------------------------------

TEST(ImmutableKvsTest, PutGetScan) {
  ImmutableKvs kvs;
  for (int i = 0; i < 200; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%06d", i);
    ASSERT_TRUE(kvs.Put(key, "v" + std::to_string(i)).ok());
  }
  std::string value;
  ASSERT_TRUE(kvs.Get("k000123", &value).ok());
  EXPECT_EQ(value, "v123");
  std::vector<PosEntry> rows;
  ASSERT_TRUE(kvs.Scan("k000010", "k000015", 0, &rows).ok());
  EXPECT_EQ(rows.size(), 5u);
  EXPECT_EQ(kvs.key_count(), 200u);
}

TEST(ImmutableKvsTest, DeleteAndMissing) {
  ImmutableKvs kvs;
  ASSERT_TRUE(kvs.Put("k", "v").ok());
  ASSERT_TRUE(kvs.Delete("k").ok());
  std::string value;
  EXPECT_TRUE(kvs.Get("k", &value).IsNotFound());
  EXPECT_TRUE(kvs.Delete("k").IsNotFound());
}

TEST(ImmutableKvsTest, OldRootsStayReadable) {
  ImmutableKvs kvs;
  ASSERT_TRUE(kvs.Put("k", "old").ok());
  Hash256 old_root = kvs.CurrentRoot();
  ASSERT_TRUE(kvs.Put("k", "new").ok());
  EXPECT_NE(kvs.CurrentRoot(), old_root);
  std::string value;
  ASSERT_TRUE(kvs.Get("k", &value).ok());
  EXPECT_EQ(value, "new");
  // Old version still resolvable through the chunk store (immutability).
  ASSERT_TRUE(kvs.index().Read(old_root, "k", &value, nullptr).ok());
  EXPECT_EQ(value, "old");
}

// Paper section 6.1: the KVS is Spitz without the ledger. Through a bulk
// load and seeded batches of inserts, overwrites and deletes of present
// keys, its root is SpitzDb's index root after every batch, which the
// KVS takes one Put or Delete at a time.
TEST(ImmutableKvsTest, RootIsSpitzDbIndexRootAfterEveryBatch) {
  Random rng(6101);
  std::vector<PosEntry> entries;
  std::vector<std::string> present;
  for (int i = 0; i < 2000; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%06d", i * 2);
    entries.push_back({key, rng.Bytes(1 + rng.Uniform(40))});
    present.push_back(key);
  }
  std::set<std::string> members(present.begin(), present.end());
  ImmutableKvs kvs;
  SpitzDb db;
  ASSERT_TRUE(kvs.BulkLoad(entries).ok());
  ASSERT_TRUE(db.BulkLoad(entries).ok());
  ASSERT_EQ(kvs.CurrentRoot(), db.Digest().index_root);
  for (int b = 0; b < 150; b++) {
    WriteBatch batch;
    const uint64_t ops = 1 + rng.Uniform(12);
    for (uint64_t i = 0; i < ops; i++) {
      const uint64_t kind = rng.Uniform(3);
      if (kind == 0 || present.empty()) {
        char key[16];
        snprintf(key, sizeof(key), "k%06d",
                 static_cast<int>(rng.Uniform(8000)) * 2 + 1);
        batch.Put(key, rng.Bytes(1 + rng.Uniform(40)));
        if (members.insert(key).second) present.push_back(key);
      } else {
        const size_t at = rng.Uniform(present.size());
        if (kind == 1) {
          batch.Put(present[at], rng.Bytes(1 + rng.Uniform(40)));
        } else {
          batch.Delete(present[at]);
          members.erase(present[at]);
          present[at] = present.back();
          present.pop_back();
        }
      }
    }
    for (const WriteBatch::Op& op : batch.ops()) {
      ASSERT_TRUE((op.type == WriteBatch::OpType::kPut
                       ? kvs.Put(op.key, op.value)
                       : kvs.Delete(op.key))
                      .ok())
          << "batch " << b << " key " << op.key;
    }
    ASSERT_TRUE(db.Write(batch).ok());
    ASSERT_EQ(kvs.CurrentRoot(), db.Digest().index_root) << "batch " << b;
  }
  EXPECT_EQ(kvs.key_count(), db.key_count());
}

TEST(ImmutableKvsTest, OpenValidatesOptions) {
  PosTreeOptions bad;
  bad.leaf_pattern_bits = 40;  // mask would shift past the 32-bit width
  std::unique_ptr<ImmutableKvs> kvs;
  EXPECT_TRUE(ImmutableKvs::Open(bad, &kvs).IsInvalidArgument());
  EXPECT_EQ(kvs, nullptr);

  EXPECT_TRUE(ImmutableKvs::Open(PosTreeOptions(), &kvs).ok());
  ASSERT_NE(kvs, nullptr);
  EXPECT_TRUE(kvs->Put("a", "1").ok());

  // The plain constructor tolerates bad options but refuses writes.
  ImmutableKvs rejected(bad);
  EXPECT_TRUE(rejected.Put("a", "1").IsInvalidArgument());
}

TEST(ImmutableKvsTest, MetricsCoverOperations) {
  ImmutableKvs kvs;
  ASSERT_TRUE(kvs.Put("a", "1").ok());
  std::string value;
  ASSERT_TRUE(kvs.Get("a", &value).ok());
  MetricsSnapshot snap = kvs.Metrics();
  const HistogramSnapshot* writes =
      snap.FindHistogram("kvs.db.write_latency_ns");
  ASSERT_NE(writes, nullptr);
  EXPECT_EQ(writes->count, 1u);
  const HistogramSnapshot* reads = snap.FindHistogram("kvs.db.read_latency_ns");
  ASSERT_NE(reads, nullptr);
  EXPECT_EQ(reads->count, 1u);
  EXPECT_GT(snap.CounterValue("chunk.store.puts"), 0u);
}

// --- TcpChannel -----------------------------------------------------------------

std::unique_ptr<TcpChannel> StartChannel(NetServer::Handler handler) {
  std::unique_ptr<TcpChannel> channel;
  Status s = TcpChannel::Start(std::move(handler), TcpChannel::Options(),
                               &channel);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return channel;
}

TEST(RpcTest, EchoCall) {
  auto channel = StartChannel(
      [](uint32_t method, const std::string& req, std::string* resp) {
        resp->append(std::to_string(method) + ":" + req);
        return Status::OK();
      });
  std::string response;
  ASSERT_TRUE(channel->Call(7, "ping", &response).ok());
  EXPECT_EQ(response, "7:ping");
  EXPECT_EQ(channel->calls_served(), 1u);
}

TEST(RpcTest, HandlerErrorPropagates) {
  auto channel =
      StartChannel([](uint32_t, const std::string&, std::string*) {
        return Status::NotFound("nope");
      });
  std::string response;
  EXPECT_TRUE(channel->Call(1, "", &response).IsNotFound());
}

TEST(RpcTest, ConcurrentCallersSerializedThroughQueue) {
  auto channel =
      StartChannel([](uint32_t, const std::string& req, std::string* resp) {
        resp->append(req);
        return Status::OK();
      });
  // Eight callers pipeline over the one connection; every echo must come
  // back to the caller that sent it.
  std::atomic<int> misrouted{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 8; t++) {
    callers.emplace_back([&, t] {
      for (int i = 0; i < 100; i++) {
        std::string req = std::to_string(t) + ":" + std::to_string(i);
        std::string resp;
        // Method 0 is the transport's handshake; services start at 1.
        ASSERT_TRUE(channel->Call(1, req, &resp).ok());
        if (resp != req) misrouted++;
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(misrouted.load(), 0);
  EXPECT_EQ(channel->calls_served(), 800u);
}

// --- NonIntrusiveDb --------------------------------------------------------------

TEST(NonIntrusiveDbTest, PutGetRoundTrip) {
  NonIntrusiveDb db;
  ASSERT_TRUE(db.Put("k", "v").ok());
  std::string value;
  ASSERT_TRUE(db.Get("k", &value).ok());
  EXPECT_EQ(value, "v");
  EXPECT_TRUE(db.Get("missing", &value).IsNotFound());
}

TEST(NonIntrusiveDbTest, WriteHitsBothSystems) {
  NonIntrusiveDb db;
  ASSERT_TRUE(db.Put("k", "v").ok());
  EXPECT_EQ(db.underlying_rpc_calls(), 1u);
  EXPECT_EQ(db.ledger_rpc_calls(), 1u);
}

TEST(NonIntrusiveDbTest, VerifiedReadRoundTrip) {
  NonIntrusiveDb db;
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(
        db.Put("key" + std::to_string(i), "val" + std::to_string(i)).ok());
  }
  SpitzDigest digest = db.Digest();
  NonIntrusiveDb::VerifiedValue vv;
  ASSERT_TRUE(db.GetVerified("key42", &vv).ok());
  EXPECT_EQ(vv.value, "val42");
  EXPECT_TRUE(NonIntrusiveDb::VerifyValue(digest, "key42", vv).ok());
}

TEST(NonIntrusiveDbTest, VerifyDetectsUnderlyingTampering) {
  NonIntrusiveDb db;
  ASSERT_TRUE(db.Put("k", "honest").ok());
  SpitzDigest digest = db.Digest();
  NonIntrusiveDb::VerifiedValue vv;
  ASSERT_TRUE(db.GetVerified("k", &vv).ok());
  // The underlying database returns a different value than was ledgered.
  vv.value = "tampered";
  EXPECT_TRUE(
      NonIntrusiveDb::VerifyValue(digest, "k", vv).IsVerificationFailed());
}

TEST(NonIntrusiveDbTest, ScanAndVerify) {
  NonIntrusiveDb db;
  for (int i = 0; i < 200; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%06d", i);
    ASSERT_TRUE(db.Put(key, "v" + std::to_string(i)).ok());
  }
  SpitzDigest digest = db.Digest();
  std::vector<NonIntrusiveDb::VerifiedValue> rows;
  std::vector<std::string> keys;
  ASSERT_TRUE(db.ScanVerified("k000050", "k000060", 0, &rows, &keys).ok());
  ASSERT_EQ(rows.size(), 10u);
  for (size_t i = 0; i < rows.size(); i++) {
    EXPECT_TRUE(NonIntrusiveDb::VerifyValue(digest, keys[i], rows[i]).ok());
  }
  // Each row required its own ledger round trip (plus the digest and the
  // 200 appends): the per-record cost of the composed design.
  EXPECT_GE(db.ledger_rpc_calls(), 211u);
}

// --- The served control layer ----------------------------------------------------
//
// Figure 5's processor pool: SpitzServer's dispatcher threads taking
// requests off NetServer's queue, driven through a one-node fleet and a
// SpitzClient.

struct ServedNode {
  std::unique_ptr<LocalFleet> fleet;
  std::unique_ptr<SpitzClient> client;

  ServedNode() {
    Status s = LocalFleet::Open(LocalFleet::Options(), &fleet);
    EXPECT_TRUE(s.ok()) << s.ToString();
    s = SpitzClient::Open(fleet->ClientOptions(0), &client);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }

  SpitzServer* server() const { return fleet->server(0); }
};

TEST(ProcessorPoolTest, HandlesAllRequestTypes) {
  ServedNode node;
  SpitzClient* client = node.client.get();
  ASSERT_TRUE(client->Put("k1", "v1").ok());
  std::string value;
  ASSERT_TRUE(client->Get("k1", &value).ok());
  EXPECT_EQ(value, "v1");
  SpitzClient::ProofResult pr;
  ASSERT_TRUE(client->GetProof("k1", &pr).ok());
  ASSERT_TRUE(pr.value.has_value());
  EXPECT_TRUE(VerifyRead(pr.digest, "k1", *pr.value, pr.proof).ok());
  std::vector<PosEntry> rows;
  ASSERT_TRUE(client->Scan("", "", 0, &rows).ok());
  EXPECT_EQ(rows.size(), 1u);
  ASSERT_TRUE(client->VerifiedScan("", "", 0, &rows).ok());
  EXPECT_EQ(rows.size(), 1u);
  ASSERT_TRUE(client->Delete("k1").ok());
  EXPECT_TRUE(client->Get("k1", &value).IsNotFound());

  // Every request type shows up in the server's metrics, with queue
  // wait attributed separately from handling.
  MetricsSnapshot snap = node.server()->Metrics();
  EXPECT_EQ(snap.CounterValue("net.server.frames_served"), 7u);
  for (const char* name : {"net.server.method_latency_ns.put",
                           "net.server.method_latency_ns.get",
                           "net.server.method_latency_ns.get_proof",
                           "net.server.method_latency_ns.scan",
                           "net.server.method_latency_ns.scan_proof",
                           "net.server.method_latency_ns.delete"}) {
    const HistogramSnapshot* h = snap.FindHistogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_GT(h->count, 0u) << name;
  }
  const HistogramSnapshot* wait =
      snap.FindHistogram("net.server.queue_wait_ns");
  ASSERT_NE(wait, nullptr);
  // +1: the connect-time handshake frame waits in the same queue.
  EXPECT_EQ(wait->count, 8u);
}

TEST(ProcessorPoolTest, VerifiedScanThroughPool) {
  ServedNode node;
  for (int i = 0; i < 100; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%06d", i);
    ASSERT_TRUE(node.client->Put(key, "v").ok());
  }
  // VerifiedScan checks the range proof against the digest in the reply.
  std::vector<PosEntry> rows;
  ASSERT_TRUE(node.client->VerifiedScan("k000010", "k000030", 0, &rows).ok());
  ASSERT_EQ(rows.size(), 20u);
  EXPECT_EQ(rows.front().key, "k000010");
  EXPECT_EQ(rows.back().key, "k000029");
}

TEST(ProcessorPoolTest, ConcurrentMixedWorkload) {
  ServedNode node;
  // 500 puts over 50 keys from five pipelining threads.
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < 5; t++) {
    writers.emplace_back([&, t] {
      for (int i = t * 100; i < (t + 1) * 100; i++) {
        if (!node.client->Put("k" + std::to_string(i % 50),
                              "v" + std::to_string(i))
                 .ok()) {
          failures++;
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(failures.load(), 0);
  SpitzDb* db = node.fleet->db(0);
  ASSERT_TRUE(db->auditor()->Drain().ok());
  EXPECT_EQ(db->key_count(), 50u);
}

TEST(ProcessorPoolTest, ShutdownRejectsNewWork) {
  ServedNode node;
  node.server()->Shutdown();
  // A call after Shutdown fails on the closed connection: it never hangs
  // until its deadline and never crashes.
  std::string value;
  Status s = node.client->Get("x", &value);
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(s.IsTimedOut()) << s.ToString();
  EXPECT_EQ(node.server()->frames_served(), 0u);
}

TEST(ProcessorPoolTest, DoubleShutdownIsNoOp) {
  ServedNode node;
  node.server()->Shutdown();
  node.server()->Shutdown();  // second call must be a harmless no-op
  std::string value;
  EXPECT_FALSE(node.client->Get("x", &value).ok());
}

// --- ClientVerifier ------------------------------------------------------------------

TEST(ClientVerifierTest, TrustOnFirstUseThenConsistency) {
  SpitzOptions options;
  options.block_size = 4;
  SpitzDb db(options);
  ClientVerifier client;
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(db.Put("k" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(client.ObserveDigest(db.Digest()).ok());

  for (int i = 20; i < 40; i++) {
    ASSERT_TRUE(db.Put("k" + std::to_string(i), "v").ok());
  }
  SpitzDigest next = db.Digest();
  MerkleConsistencyProof proof;
  ASSERT_TRUE(
      db.ledger()->ProveConsistency(client.digest().journal, &proof).ok());
  EXPECT_TRUE(client.ObserveDigest(next, &proof).ok());
}

TEST(ClientVerifierTest, RejectsDigestWithoutProof) {
  SpitzOptions options;
  options.block_size = 2;
  SpitzDb db(options);
  ClientVerifier client;
  ASSERT_TRUE(db.Put("a", "1").ok());
  ASSERT_TRUE(db.Put("b", "2").ok());
  ASSERT_TRUE(client.ObserveDigest(db.Digest()).ok());
  ASSERT_TRUE(db.Put("c", "3").ok());
  ASSERT_TRUE(db.Put("d", "4").ok());
  EXPECT_TRUE(
      client.ObserveDigest(db.Digest()).IsVerificationFailed());
}

TEST(ClientVerifierTest, RejectsRollback) {
  SpitzOptions options;
  options.block_size = 2;
  SpitzDb db(options);
  ClientVerifier client;
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(db.Put("k" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(client.ObserveDigest(db.Digest()).ok());

  // A "server" presenting a shorter history.
  SpitzDb shorter(options);
  ASSERT_TRUE(shorter.Put("k0", "v").ok());
  ASSERT_TRUE(shorter.Put("k1", "v").ok());
  EXPECT_TRUE(
      client.ObserveDigest(shorter.Digest()).IsVerificationFailed());
}

TEST(ClientVerifierTest, RejectsForkAtEqualSize) {
  SpitzOptions options;
  options.block_size = 2;
  SpitzDb honest(options), forked(options);
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(honest.Put("k" + std::to_string(i), "honest").ok());
    ASSERT_TRUE(forked.Put("k" + std::to_string(i), "forged").ok());
  }
  ClientVerifier client;
  ASSERT_TRUE(client.ObserveDigest(honest.Digest()).ok());
  EXPECT_TRUE(
      client.ObserveDigest(forked.Digest()).IsVerificationFailed());
}

TEST(ClientVerifierTest, ChecksReadsAgainstRetainedDigest) {
  SpitzDb db;
  ASSERT_TRUE(db.Put("k", "v").ok());
  ClientVerifier client;
  ASSERT_TRUE(client.ObserveDigest(db.Digest()).ok());
  std::string value;
  ReadProof proof;
  ASSERT_TRUE(db.Read(kCurrentVersion, "k", &value, &proof).ok());
  EXPECT_TRUE(client.CheckRead("k", value, proof).ok());
  EXPECT_TRUE(client.CheckRead("k", std::string("forged"), proof)
                  .IsVerificationFailed());
}

TEST(ClientVerifierTest, NoDigestMeansNoTrust) {
  ClientVerifier client;
  ReadProof proof;
  EXPECT_TRUE(
      client.CheckRead("k", std::nullopt, proof).IsVerificationFailed());
}

TEST(ClientVerifierTest, ChecksScansAgainstRetainedDigest) {
  SpitzDb db;
  for (int i = 10; i < 40; i++) {
    ASSERT_TRUE(db.Put("tx/" + std::to_string(i), "amount").ok());
  }
  ClientVerifier client;
  ASSERT_TRUE(client.ObserveDigest(db.Digest()).ok());
  std::vector<PosEntry> rows;
  ScanProof proof;
  ASSERT_TRUE(
      db.ReadRange(kCurrentVersion, "tx/15", "tx/30", 0, &rows, &proof).ok());
  ASSERT_EQ(rows.size(), 15u);
  EXPECT_TRUE(client.CheckScan("tx/15", "tx/30", 0, rows, proof).ok());

  std::vector<PosEntry> dropped = rows;
  dropped.erase(dropped.begin() + 5);
  EXPECT_TRUE(client.CheckScan("tx/15", "tx/30", 0, dropped, proof)
                  .IsVerificationFailed());
  std::vector<PosEntry> rewritten = rows;
  rewritten[0].value = "forged";
  EXPECT_TRUE(client.CheckScan("tx/15", "tx/30", 0, rewritten, proof)
                  .IsVerificationFailed());
}

TEST(ClientVerifierTest, ChecksHistoricalEntriesAgainstRetainedDigest) {
  SpitzOptions options;
  options.block_size = 4;
  SpitzDb db(options);
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(db.Put("evt/" + std::to_string(i), "payload").ok());
  }
  ASSERT_TRUE(db.FlushBlock().ok());
  ClientVerifier client;
  ASSERT_TRUE(client.ObserveDigest(db.Digest()).ok());
  JournalEntryProof proof;
  LedgerEntry entry;
  ASSERT_TRUE(db.ledger()->ProveHistoricalEntry(2, 3, &proof, &entry).ok());
  EXPECT_TRUE(client.CheckHistoricalEntry(entry, proof).ok());

  LedgerEntry rewritten = entry;
  rewritten.value_hash = Hash256::Of("not-what-happened");
  EXPECT_TRUE(
      client.CheckHistoricalEntry(rewritten, proof).IsVerificationFailed());
  LedgerEntry renamed = entry;
  renamed.key = "evt/other";
  EXPECT_TRUE(
      client.CheckHistoricalEntry(renamed, proof).IsVerificationFailed());
}

TEST(ClientVerifierTest, RefusesEveryCheckBeforeTheFirstDigest) {
  SpitzOptions options;
  options.block_size = 2;
  SpitzDb db(options);
  ASSERT_TRUE(db.Put("a", "1").ok());
  ASSERT_TRUE(db.Put("b", "2").ok());
  std::string value;
  ReadProof read_proof;
  ASSERT_TRUE(db.Read(kCurrentVersion, "a", &value, &read_proof).ok());
  std::vector<PosEntry> rows;
  ScanProof scan_proof;
  ASSERT_TRUE(
      db.ReadRange(kCurrentVersion, "a", "z", 0, &rows, &scan_proof).ok());
  JournalEntryProof entry_proof;
  LedgerEntry entry;
  ASSERT_TRUE(
      db.ledger()->ProveHistoricalEntry(0, 0, &entry_proof, &entry).ok());

  // Honest evidence, but nothing to check it against yet.
  ClientVerifier client;
  EXPECT_TRUE(client.CheckRead("a", value, read_proof).IsVerificationFailed());
  EXPECT_TRUE(
      client.CheckScan("a", "z", 0, rows, scan_proof).IsVerificationFailed());
  EXPECT_TRUE(client.CheckHistoricalEntry(entry, entry_proof)
                  .IsVerificationFailed());

  // The same evidence passes once a digest is observed.
  ASSERT_TRUE(client.ObserveDigest(db.Digest()).ok());
  EXPECT_TRUE(client.CheckRead("a", value, read_proof).ok());
  EXPECT_TRUE(client.CheckScan("a", "z", 0, rows, scan_proof).ok());
  EXPECT_TRUE(client.CheckHistoricalEntry(entry, entry_proof).ok());
}

}  // namespace
}  // namespace spitz
