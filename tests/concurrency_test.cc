// Multithreaded stress coverage for the parallel verification pipeline:
// lock-free snapshot reads racing commits on SpitzDb, the multi-worker
// DeferredVerifier's exact Flush barrier and counters under many
// producers, and the sharded decoded-node cache. Run these under
// -fsanitize=thread (cmake -DSPITZ_SANITIZE=thread, or ci/check.sh) to
// check for data races.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "chunk/buffer_cache.h"
#include "chunk/file_chunk_store.h"
#include "common/codec.h"
#include "common/random.h"
#include "core/spitz_db.h"
#include "gtest/gtest.h"
#include "txn/batch_verifier.h"

namespace spitz {
namespace {

// --- SpitzDb: readers never serialize against writers ---------------------

TEST(ConcurrencyTest, ConcurrentReadsWritesAndSeals) {
  SpitzOptions options;
  options.block_size = 16;
  SpitzDb db(options);
  const int kKeys = 200;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(db.Put("key" + std::to_string(i), "v0").ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> read_errors{0};
  std::atomic<uint64_t> verified_reads{0};

  // Writers continuously overwrite the key space and seal blocks.
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; w++) {
    writers.emplace_back([&, w] {
      int round = 1;
      while (!stop.load(std::memory_order_acquire)) {
        for (int i = w; i < kKeys; i += 2) {
          if (!db.Put("key" + std::to_string(i),
                      "v" + std::to_string(round))
                   .ok()) {
            read_errors.fetch_add(1);
          }
        }
        db.FlushBlock();
        round++;
      }
    });
  }

  // Readers do plain and verified reads; every proof must verify
  // against the root it was generated from, whatever version that is.
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; r++) {
    readers.emplace_back([&, r] {
      std::string value;
      size_t i = static_cast<size_t>(r);
      while (!stop.load(std::memory_order_acquire)) {
        std::string key = "key" + std::to_string(i % kKeys);
        Status s = db.Get(key, &value);
        if (!s.ok()) read_errors.fetch_add(1);

        ReadProof proof;
        s = db.Read(kCurrentVersion, key, &value, &proof);
        if (!s.ok() ||
            !proof.index_proof.Verify(proof.index_root, key, value).ok()) {
          read_errors.fetch_add(1);
        } else {
          verified_reads.fetch_add(1);
        }

        if (i % 16 == 0) {
          std::vector<PosEntry> out;
          ScanProof scan_proof;
          if (!db.ReadRange(kCurrentVersion, "key0", "key9", 50, &out,
                            &scan_proof)
                   .ok() ||
              !scan_proof.index_proof
                   .Verify(scan_proof.index_root, "key0", "key9", 50, out)
                   .ok()) {
            read_errors.fetch_add(1);
          }
        }
        if (i % 32 == 0) {
          // Digest must always be internally consistent enough to
          // verify a fresh proof taken against the same snapshot.
          SpitzDigest d = db.Digest();
          ReadProof p2;
          std::string v2;
          std::string k2 = "key" + std::to_string(i % kKeys);
          // The digest may already be stale by the time the proof is
          // generated; only proof-vs-own-root consistency is asserted.
          if (db.Read(kCurrentVersion, k2, &v2, &p2).ok() &&
              !p2.index_proof.Verify(p2.index_root, k2, v2).ok()) {
            read_errors.fetch_add(1);
          }
          (void)d;
        }
        i++;
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  stop.store(true, std::memory_order_release);
  for (auto& t : writers) t.join();
  for (auto& t : readers) t.join();

  EXPECT_EQ(read_errors.load(), 0u);
  EXPECT_GT(verified_reads.load(), 0u);
  // Background audits submitted during the run must all pass.
  EXPECT_TRUE(db.auditor()->Drain().ok());
}

// A ReadRange at a root captured before the writers start sees exactly
// that version however far they advance: immutability makes the
// snapshot free, so neither overwrites of its keys nor new keys show.
TEST(ConcurrencyTest, ReadRangeAtPinnedRootStableWhileWritersAdvance) {
  SpitzDb db;
  std::vector<PosEntry> expected;
  for (int i = 0; i < 500; i++) {
    std::string key = "stable" + std::to_string(1000 + i);
    ASSERT_TRUE(db.Put(key, "snapshot").ok());
    expected.push_back({key, "snapshot"});
  }
  const Hash256 root = db.Digest().index_root;

  std::atomic<bool> stop{false};
  std::atomic<int> written{0};
  std::thread writer([&] {
    for (int i = 0; !stop.load(); i++) {
      db.Put("stable" + std::to_string(1000 + i % 500), "overwritten");
      db.Put("churn" + std::to_string(i), "x");
      written.fetch_add(1);
    }
  });

  size_t scans = 0;
  size_t wrong = 0;
  while (scans < 20 || written.load() < 500) {
    std::vector<PosEntry> rows;
    Status s = db.ReadRange(root, "", "", 0, &rows, nullptr);
    if (!s.ok() || rows != expected) wrong++;
    scans++;
  }
  stop.store(true);
  writer.join();
  EXPECT_EQ(wrong, 0u) << "of " << scans << " scans";
  // The live version did move on: every snapshot key was overwritten.
  std::vector<PosEntry> rows;
  ASSERT_TRUE(db.ReadRange(kCurrentVersion, "stable", "stablf", 0, &rows,
                           nullptr)
                  .ok());
  ASSERT_EQ(rows.size(), 500u);
  for (const PosEntry& row : rows) EXPECT_EQ(row.value, "overwritten");
}

TEST(ConcurrencyTest, ConcurrentAuditsDrainExactly) {
  SpitzOptions options;
  options.block_size = 8;
  options.audit_workers = 4;
  SpitzDb db(options);
  const int kOps = 300;
  std::vector<std::thread> writers;
  std::atomic<uint64_t> submit_failures{0};
  for (int w = 0; w < 3; w++) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kOps; i++) {
        std::string key = "aud" + std::to_string(w) + "_" + std::to_string(i);
        if (!db.Put(key, "value").ok() || !db.auditor()->AuditKey(key).ok()) {
          submit_failures.fetch_add(1);
        }
        if (i % 25 == 0) db.auditor()->AuditLastBlock();
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(submit_failures.load(), 0u);
  EXPECT_TRUE(db.auditor()->Drain().ok());
  MetricsSnapshot snap = db.Metrics();
  EXPECT_EQ(snap.GaugeValue("txn.verifier.queue_depth"), 0u);
  EXPECT_EQ(snap.CounterValue("txn.verifier.failures"), 0u);
  EXPECT_GE(snap.CounterValue("txn.verifier.verified"),
            static_cast<uint64_t>(3 * kOps));
}

// --- DeferredVerifier: many producers, exact barriers ---------------------

TEST(ConcurrencyTest, VerifierManyProducersExactCounts) {
  DeferredVerifier v{DeferredVerifier::Options(/*batch=*/32, /*workers=*/4)};
  const int kProducers = 8;
  const int kPerProducer = 2000;
  std::atomic<uint64_t> executed{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; p++) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; i++) {
        // Every 100th check per producer fails deterministically.
        bool fail = (i % 100) == 99;
        ASSERT_TRUE(v.Submit([&executed, fail] {
                       executed.fetch_add(1, std::memory_order_relaxed);
                       return fail ? Status::VerificationFailed("planted")
                                   : Status::OK();
                     })
                        .ok());
      }
    });
  }
  for (auto& t : producers) t.join();
  v.Flush();
  const uint64_t total =
      static_cast<uint64_t>(kProducers) * kPerProducer;
  EXPECT_EQ(executed.load(), total);
  EXPECT_EQ(v.verified_count(), total);
  EXPECT_EQ(v.failure_count(),
            static_cast<uint64_t>(kProducers) * (kPerProducer / 100));
  EXPECT_TRUE(v.failed());
}

TEST(ConcurrencyTest, VerifierBackpressureBoundsQueue) {
  DeferredVerifier::Options options(/*batch=*/4, /*workers=*/2);
  options.queue_capacity = 8;
  DeferredVerifier v{options};
  std::atomic<uint64_t> executed{0};
  // Far more submissions than capacity: Submit must block (not fail,
  // not drop) and everything must still execute exactly once.
  const uint64_t kChecks = 5000;
  for (uint64_t i = 0; i < kChecks; i++) {
    ASSERT_TRUE(v.Submit([&executed] {
                   executed.fetch_add(1, std::memory_order_relaxed);
                   return Status::OK();
                 })
                    .ok());
    EXPECT_LE(v.queue_depth(), 8u);
  }
  v.Flush();
  EXPECT_EQ(executed.load(), kChecks);
  EXPECT_EQ(v.verified_count(), kChecks);
}

TEST(ConcurrencyTest, VerifierFlushIsExactBarrierPerProducer) {
  DeferredVerifier v{DeferredVerifier::Options(/*batch=*/16, /*workers=*/4)};
  std::atomic<bool> stop{false};
  // A background producer keeps the pool busy while the main thread
  // repeatedly asserts its own submissions are covered by its flushes.
  std::thread background([&] {
    while (!stop.load(std::memory_order_acquire)) {
      v.Submit([] { return Status::OK(); });
    }
  });
  for (int round = 0; round < 50; round++) {
    std::atomic<int> mine{0};
    for (int i = 0; i < 20; i++) {
      ASSERT_TRUE(v.Submit([&mine] {
                     mine.fetch_add(1, std::memory_order_release);
                     return Status::OK();
                   })
                      .ok());
    }
    v.Flush();
    // Everything submitted by THIS thread before the flush has run.
    EXPECT_EQ(mine.load(std::memory_order_acquire), 20);
  }
  stop.store(true, std::memory_order_release);
  background.join();
  v.Flush();
  EXPECT_FALSE(v.failed());
}

TEST(ConcurrencyTest, VerifierDestructorDrainsEverythingAccepted) {
  std::atomic<uint64_t> executed{0};
  const uint64_t kChecks = 1000;
  {
    DeferredVerifier v{DeferredVerifier::Options(/*batch=*/8, /*workers=*/3)};
    for (uint64_t i = 0; i < kChecks; i++) {
      ASSERT_TRUE(v.Submit([&executed] {
                     executed.fetch_add(1, std::memory_order_relaxed);
                     return Status::OK();
                   })
                      .ok());
    }
    // No Flush: destruction itself must drain.
  }
  EXPECT_EQ(executed.load(), kChecks);
}

TEST(ConcurrencyTest, VerifierWorkerCountDefaultsToHardware) {
  DeferredVerifier deferred{DeferredVerifier::Options(8)};
  unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(deferred.worker_count(), hw == 0 ? 1u : hw);
  DeferredVerifier online{DeferredVerifier::Options(0)};
  EXPECT_EQ(online.worker_count(), 0u);  // online mode: no pool
}

// --- Decoded nodes in the BufferCache ---------------------------------------

// A one-entry leaf, decoded from a real chunk as PosTree::LoadNode does.
std::shared_ptr<const PosNode> MakeLeafNode(const std::string& key,
                                            size_t value_bytes) {
  std::string payload;
  PutVarint64(&payload, 1);
  PutLengthPrefixedSlice(&payload, key);
  PutLengthPrefixedSlice(&payload, std::string(value_bytes, 'v'));
  std::shared_ptr<const PosNode> node;
  EXPECT_TRUE(PosNode::Decode(std::make_shared<const Chunk>(
                                  ChunkType::kIndexLeaf, std::move(payload)),
                              &node)
                  .ok());
  return node;
}

// Caches a node the way PosTree::LoadNode does: under kPosNode, charged
// at its decoded size.
void InsertNode(BufferCache* cache, const Hash256& id,
                std::shared_ptr<const PosNode> node) {
  const size_t charge = node->ByteSize();
  cache->Insert(BufferCache::kPosNode, id, std::move(node), charge);
}

std::shared_ptr<const PosNode> LookupNode(BufferCache* cache,
                                          const Hash256& id) {
  return std::static_pointer_cast<const PosNode>(
      cache->Lookup(BufferCache::kPosNode, id));
}

TEST(ConcurrencyTest, NodeCacheHitMissAndEviction) {
  // One shard so eviction order is deterministic; budget fits ~3 small
  // nodes.
  BufferCache cache(/*capacity_bytes=*/3 * 400, /*shard_count=*/1);
  std::vector<Hash256> ids;
  for (int i = 0; i < 5; i++) {
    Hash256 id = Hash256::Of("node" + std::to_string(i));
    ids.push_back(id);
    InsertNode(&cache, id, MakeLeafNode("k" + std::to_string(i), 200));
  }
  BufferCache::KindStats stats = cache.stats().kind[BufferCache::kPosNode];
  EXPECT_EQ(stats.inserts, 5u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, 3u * 400u);
  // The most recent insert must still be resident; the oldest must not.
  EXPECT_NE(LookupNode(&cache, ids[4]), nullptr);
  EXPECT_EQ(LookupNode(&cache, ids[0]), nullptr);
  stats = cache.stats().kind[BufferCache::kPosNode];
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  // Raw-chunk traffic is accounted separately.
  EXPECT_EQ(cache.stats().kind[BufferCache::kRawChunk].inserts, 0u);

  cache.Clear();
  EXPECT_EQ(cache.stats().entries(), 0u);
  EXPECT_EQ(LookupNode(&cache, ids[4]), nullptr);
}

// The cache's own structure, one shard so the LRU order is exact: each
// entry is charged 100 of a 400-byte budget, values are plain ints, and
// a weak_ptr per value shows that a dropped entry frees its value.
TEST(ConcurrencyTest, NodeCacheLruOrderThroughPromoteRefreshEvictEraseClear) {
  constexpr auto kRaw = BufferCache::kRawChunk;
  constexpr auto kNode = BufferCache::kPosNode;
  BufferCache cache(/*capacity_bytes=*/400, /*shard_count=*/1);
  std::map<std::string, std::weak_ptr<const int>> values;
  const auto id = [](const std::string& name) { return Hash256::Of(name); };
  const auto insert = [&](BufferCache::Kind kind, const std::string& name,
                          size_t charge) {
    auto value = std::make_shared<const int>(static_cast<int>(values.size()));
    values[name + std::to_string(kind)] = value;
    cache.Insert(kind, id(name), std::move(value), charge);
  };
  const auto resident = [&](BufferCache::Kind kind, const std::string& name) {
    return !values[name + std::to_string(kind)].expired();
  };
  const auto expect_stats = [&](BufferCache::Kind kind, uint64_t inserts,
                                uint64_t entries, uint64_t bytes,
                                uint64_t evictions, uint64_t erases) {
    const BufferCache::KindStats s = cache.stats().kind[kind];
    EXPECT_EQ(s.inserts, inserts);
    EXPECT_EQ(s.entries, entries);
    EXPECT_EQ(s.bytes, bytes);
    EXPECT_EQ(s.evictions, evictions);
    EXPECT_EQ(s.erases, erases);
  };

  // Four inserts fill the budget exactly; most recent first: d c b a.
  for (const char* name : {"a", "b", "c", "d"}) insert(kRaw, name, 100);
  expect_stats(kRaw, 4, 4, 400, 0, 0);
  // A hit promotes a: a d c b.
  ASSERT_NE(cache.Lookup(kRaw, id("a")), nullptr);
  EXPECT_EQ(cache.stats().kind[kRaw].hits, 1u);
  // A second insert of b refreshes it and counts nothing: b a d c.
  cache.Insert(kRaw, id("b"), std::make_shared<const int>(-1), 100);
  expect_stats(kRaw, 4, 4, 400, 0, 0);
  // e evicts the least recently used, c: e b a d.
  insert(kRaw, "e", 100);
  expect_stats(kRaw, 5, 4, 400, 1, 0);
  EXPECT_FALSE(resident(kRaw, "c"));
  EXPECT_TRUE(resident(kRaw, "a") && resident(kRaw, "b") &&
              resident(kRaw, "d") && resident(kRaw, "e"));
  EXPECT_EQ(cache.Lookup(kRaw, id("c")), nullptr);
  EXPECT_EQ(cache.stats().kind[kRaw].misses, 1u);
  // f, twice the charge, evicts d and then a: f e b.
  insert(kRaw, "f", 200);
  expect_stats(kRaw, 6, 3, 400, 3, 0);
  EXPECT_FALSE(resident(kRaw, "d") || resident(kRaw, "a"));
  EXPECT_TRUE(resident(kRaw, "b") && resident(kRaw, "e"));

  // A decoded node under b's id is a second entry in the same budget.
  // Promote b first (b f e), so the node evicts e: node-b b f.
  ASSERT_NE(cache.Lookup(kRaw, id("b")), nullptr);
  insert(kNode, "b", 100);
  expect_stats(kRaw, 6, 2, 300, 4, 0);
  expect_stats(kNode, 1, 1, 100, 0, 0);
  EXPECT_FALSE(resident(kRaw, "e"));

  // Erase drops both kinds of b and nothing else.
  cache.Erase(id("b"));
  expect_stats(kRaw, 6, 1, 200, 4, 1);
  expect_stats(kNode, 1, 0, 0, 0, 1);
  EXPECT_FALSE(resident(kRaw, "b") || resident(kNode, "b"));
  EXPECT_TRUE(resident(kRaw, "f"));
  EXPECT_EQ(cache.Lookup(kNode, id("b")), nullptr);
  cache.Erase(id("absent"));
  expect_stats(kRaw, 6, 1, 200, 4, 1);

  // The list still links what remains: g and h evict nothing, i
  // evicts f and then g (i h).
  insert(kRaw, "g", 100);
  insert(kNode, "h", 100);
  insert(kRaw, "i", 300);
  expect_stats(kRaw, 8, 1, 300, 6, 1);
  expect_stats(kNode, 2, 1, 100, 0, 1);
  EXPECT_FALSE(resident(kRaw, "f") || resident(kRaw, "g"));

  // Clear drops every entry and keeps the counters; the cache fills
  // and evicts in order again after it.
  cache.Clear();
  expect_stats(kRaw, 8, 0, 0, 6, 1);
  expect_stats(kNode, 2, 0, 0, 0, 1);
  EXPECT_FALSE(resident(kNode, "h") || resident(kRaw, "i"));
  EXPECT_EQ(cache.Lookup(kRaw, id("i")), nullptr);
  for (const char* name : {"j", "k", "l", "m", "n"}) insert(kRaw, name, 100);
  expect_stats(kRaw, 13, 4, 400, 7, 1);
  EXPECT_FALSE(resident(kRaw, "j"));
  EXPECT_TRUE(resident(kRaw, "k") && resident(kRaw, "n"));
}

TEST(ConcurrencyTest, NodeCacheOversizedNodeNotCached) {
  BufferCache cache(/*capacity_bytes=*/1024, /*shard_count=*/1);
  Hash256 id = Hash256::Of("huge");
  InsertNode(&cache, id, MakeLeafNode("k", 4096));
  EXPECT_EQ(LookupNode(&cache, id), nullptr);
  EXPECT_EQ(cache.stats().inserts(), 0u);
}

TEST(ConcurrencyTest, NodeCacheSharedUnderConcurrentTraffic) {
  BufferCache cache(/*capacity_bytes=*/1 << 20);
  const int kIds = 64;
  std::vector<Hash256> ids;
  for (int i = 0; i < kIds; i++) {
    ids.push_back(Hash256::Of("shared" + std::to_string(i)));
  }
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; t++) {
    pool.emplace_back([&, t] {
      for (int round = 0; round < 2000; round++) {
        int i = (round + t * 17) % kIds;
        auto node = LookupNode(&cache, ids[i]);
        if (node == nullptr) {
          InsertNode(&cache, ids[i],
                     MakeLeafNode("k" + std::to_string(i), 32));
        } else if (node->key(0) != "k" + std::to_string(i)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(cache.stats().kind[BufferCache::kPosNode].hits, 0u);
}

TEST(ConcurrencyTest, SpitzDbNodeCacheServesRepeatTraversals) {
  SpitzOptions options;
  options.buffer_cache_bytes = 8 << 20;
  SpitzDb db(options);
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db.Put("cache" + std::to_string(i), "value").ok());
  }
  MetricsSnapshot cold = db.Metrics();
  std::string value;
  for (int pass = 0; pass < 3; pass++) {
    for (int i = 0; i < 2000; i++) {
      ASSERT_TRUE(db.Get("cache" + std::to_string(i), &value).ok());
    }
  }
  MetricsSnapshot warm = db.Metrics();
  // Steady-state reads of a resident working set are nearly all hits.
  uint64_t hits = warm.CounterValue("index.cache.hits") -
                  cold.CounterValue("index.cache.hits");
  uint64_t misses = warm.CounterValue("index.cache.misses") -
                    cold.CounterValue("index.cache.misses");
  EXPECT_GT(hits, misses * 10);

  // A starvation-sized cache keeps working — traversals just fall back
  // to the chunk store and the metrics report mostly misses. (A zero
  // budget is rejected by Validate(): the paged store needs the cache
  // to pin unflushed chunks.)
  SpitzOptions tiny_cache;
  tiny_cache.buffer_cache_bytes = 4096;
  SpitzDb db2(tiny_cache);
  ASSERT_TRUE(db2.Put("k", "v").ok());
  ASSERT_TRUE(db2.Get("k", &value).ok());
  EXPECT_EQ(value, "v");
  MetricsSnapshot snap2 = db2.Metrics();
  EXPECT_GT(snap2.CounterValue("index.cache.misses"), 0u);
}

// Readers keep reading the bytes of decoded nodes they hold, and look
// the same nodes up again, while another thread evicts the cache
// entries behind them and GC passes erase the raw entries and unlink
// the segments the chunks lived in: a held node's bytes never change.
TEST(ConcurrencyTest, HeldNodesOutliveEvictionAndGcRaces) {
  const std::string dir = ::testing::TempDir() + "/spitz_held_node_race";
  std::filesystem::remove_all(dir);
  constexpr int kKeys = 256;
  constexpr int kRounds = 3;
  BufferCache cache(/*capacity_bytes=*/32 << 10, /*shard_count=*/4);
  FileChunkStore::Options store_options;
  store_options.segment_bytes = 4 << 10;
  store_options.cache = &cache;
  std::unique_ptr<FileChunkStore> store;
  ASSERT_TRUE(
      FileChunkStore::Open(Env::Default(), dir, store_options, &store).ok());
  PosTree tree(store.get());
  tree.SetNodeCache(&cache);
  const auto key_of = [](int i) { return "held" + std::to_string(1000 + i); };
  const auto build = [&](int round, Hash256* root) {
    std::vector<PosEntry> entries;
    for (int i = 0; i < kKeys; i++) {
      entries.push_back({key_of(i), "r" + std::to_string(round) + "-" +
                                        std::to_string(i) +
                                        std::string(48, 'x')});
    }
    Status s = tree.Build(std::move(entries), root);
    store->OnBlockSealed();
    if (s.ok()) s = store->Sync();
    return s;
  };
  Hash256 root;
  ASSERT_TRUE(build(0, &root).ok());

  // Leaves of version 0, each taken from the node cache after the point
  // read that decoded it, with an owned copy of what it held then.
  struct Held {
    Hash256 id;
    std::shared_ptr<const PosNode> node;
    std::vector<PosEntry> entries;
  };
  std::vector<Held> held;
  for (int i = 0; i < kKeys; i += 16) {
    std::string value;
    PosProof proof;
    ASSERT_TRUE(tree.Get(root, key_of(i), &value, &proof).ok());
    Held h;
    h.id = Chunk::IdOf(static_cast<ChunkType>(proof.nodes.back().type),
                       proof.nodes.back().payload);
    h.node = LookupNode(&cache, h.id);
    ASSERT_NE(h.node, nullptr);
    for (size_t j = 0; j < h.node->entry_count(); j++) {
      h.entries.push_back(h.node->entry(j));
    }
    held.push_back(std::move(h));
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> mismatches{0};
  const auto same = [](const PosNode& node, const std::vector<PosEntry>& e) {
    if (node.entry_count() != e.size()) return false;
    for (size_t j = 0; j < e.size(); j++) {
      if (node.key(j) != e[j].key || node.value(j) != e[j].value) return false;
    }
    return true;
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; r++) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (const Held& h : held) {
          if (!same(*h.node, h.entries)) mismatches.fetch_add(1);
          auto again = LookupNode(&cache, h.id);
          if (again != nullptr && !same(*again, h.entries)) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  // Each round writes a new value for every key, reads the new version
  // (evicting the held leaves' entries), reads the held leaves back
  // into the cache as raw chunks while they still exist, and collects
  // everything but the new version.
  Status churn;
  for (int round = 1; round <= kRounds && churn.ok(); round++) {
    churn = build(round, &root);
    for (int i = 0; i < kKeys && churn.ok(); i++) {
      std::string value;
      churn = tree.Get(root, key_of(i), &value, nullptr);
    }
    for (const Held& h : held) {
      std::shared_ptr<const Chunk> raw;
      store->Get(h.id, &raw);  // NotFound once collected
    }
    std::unordered_set<Hash256, Hash256Hasher> live;
    const uint64_t mark = store->BeginGc();
    if (churn.ok()) churn = tree.CollectChunks(root, &live);
    ChunkGcStats stats;
    if (churn.ok()) churn = store->RetainLive(live, mark, &stats);
    cache.Clear();
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_TRUE(churn.ok()) << churn.ToString();
  EXPECT_EQ(mismatches.load(), 0u);
  for (const Held& h : held) {
    std::shared_ptr<const Chunk> raw;
    EXPECT_TRUE(store->Get(h.id, &raw).IsNotFound());
  }
  store.reset();
  std::filesystem::remove_all(dir);
}

// Readers Get records still sitting in the segment log's buffer while
// one thread appends (each chunk a patch on the one before it) and
// another syncs. The cache is too small to hold a single chunk, so
// every read is served by the store's unflushed map or a pread.
TEST(ConcurrencyTest, ReadsOfUnflushedRecordsRaceAppendsAndSyncs) {
  const std::string dir = ::testing::TempDir() + "/spitz_unflushed_race";
  std::filesystem::remove_all(dir);
  constexpr int kChunks = 1500;
  BufferCache cache(/*capacity_bytes=*/1 << 10, /*shard_count=*/1);
  FileChunkStore::Options store_options;
  store_options.segment_bytes = 256 << 10;
  store_options.cache = &cache;
  std::unique_ptr<FileChunkStore> store;
  ASSERT_TRUE(
      FileChunkStore::Open(Env::Default(), dir, store_options, &store).ok());
  std::vector<Chunk> chunks;
  Random rnd(17);
  std::string payload(2048, 'x');
  for (int i = 0; i < kChunks; i++) {
    payload[rnd.Uniform(payload.size())] = static_cast<char>('a' + i % 26);
    chunks.emplace_back(ChunkType::kBlob, payload + std::to_string(i));
  }

  std::atomic<int> published{0};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> failures{0};
  std::thread writer([&] {
    for (int i = 0; i < kChunks; i++) {
      store->Put(chunks[i], i > 0 ? &chunks[i - 1] : nullptr);
      if (i % 64 == 63) store->OnBlockSealed();
      published.store(i + 1, std::memory_order_release);
    }
    done.store(true);
  });
  std::thread syncer([&] {
    while (!done.load()) {
      if (!store->Sync().ok()) failures.fetch_add(1);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; r++) {
    readers.emplace_back([&, r] {
      Random pick(100 + r);
      while (!done.load()) {
        const int n = published.load(std::memory_order_acquire);
        if (n == 0) continue;
        // Mostly the newest records, the ones likeliest unflushed.
        const int i = pick.OneIn(2) ? n - 1 : static_cast<int>(pick.Uniform(n));
        std::shared_ptr<const Chunk> got;
        if (!store->Get(chunks[i].id(), &got).ok() ||
            got->payload() != chunks[i].payload()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  writer.join();
  syncer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_TRUE(store->status().ok());
  EXPECT_EQ(cache.stats().entries(), 0u);
  store.reset();
  std::filesystem::remove_all(dir);
}

// A writer overwrites one chunk version after version, so every eighth
// version rebases onto the full record its chain starts from, while GC
// passes keep only the newest versions and so collect each chain's full
// record, flattening the deltas on it, and readers Get the newest
// versions. Each rebase either names a full record the pass then keeps
// or finds it gone and writes in full: every retained version reads
// back exactly, before and after a reopen.
TEST(ConcurrencyTest, RebasesRaceGcPassesCollectingTheirFullRecord) {
  const std::string dir = ::testing::TempDir() + "/spitz_rebase_gc_race";
  std::filesystem::remove_all(dir);
  constexpr int kVersions = 600;
  constexpr size_t kRetain = 3;
  // Too small to hold a version: a rebase reads its full record from
  // the unflushed map or a segment a pass may be collecting.
  BufferCache cache(/*capacity_bytes=*/1 << 10, /*shard_count=*/1);
  FileChunkStore::Options store_options;
  store_options.segment_bytes = 8 << 10;
  store_options.cache = &cache;
  std::unique_ptr<FileChunkStore> store;
  ASSERT_TRUE(
      FileChunkStore::Open(Env::Default(), dir, store_options, &store).ok());
  std::vector<Chunk> versions;
  Random rnd(23);
  std::string payload(2048, 'x');
  for (int i = 0; i < kVersions; i++) {
    payload[rnd.Uniform(payload.size())] = static_cast<char>('a' + i % 26);
    versions.emplace_back(ChunkType::kBlob, payload + std::to_string(i));
  }

  // A pass snapshots the retained versions and calls BeginGc under mu,
  // and the writer puts and publishes a version under it, so no version
  // is written between a pass's snapshot and its mark.
  std::mutex mu;
  std::atomic<int> published{0};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> passes{0};
  std::thread writer([&] {
    for (int i = 0; i < kVersions; i++) {
      // A pass at least every two chains' length of versions: chains
      // reach the cap between passes, and the passes overlap rebases.
      if (i % (2 * FileChunkStore::kMaxChainDepth) == 0) {
        const uint64_t seen = passes.load();
        while (passes.load() == seen) std::this_thread::yield();
      }
      std::lock_guard<std::mutex> lock(mu);
      store->Put(versions[i], i > 0 ? &versions[i - 1] : nullptr);
      store->OnBlockSealed();
      published.store(i + 1, std::memory_order_release);
    }
    done.store(true);
  });
  std::thread collector([&] {
    while (!done.load()) {
      std::unordered_set<Hash256, Hash256Hasher> live;
      uint64_t mark = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        const int n = published.load(std::memory_order_relaxed);
        for (int i = std::max(0, n - static_cast<int>(kRetain)); i < n; i++) {
          live.insert(versions[i].id());
        }
        mark = store->BeginGc();
      }
      ChunkGcStats stats;
      if (!store->RetainLive(live, mark, &stats).ok()) failures.fetch_add(1);
      passes.fetch_add(1);
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; r++) {
    readers.emplace_back([&] {
      while (!done.load()) {
        const int n = published.load(std::memory_order_acquire);
        if (n == 0) continue;
        // The newest version: collected only once a pass that began
        // after kRetain later versions ran, and then NotFound.
        std::shared_ptr<const Chunk> got;
        Status s = store->Get(versions[n - 1].id(), &got);
        if (s.ok() ? got->payload() != versions[n - 1].payload()
                   : !s.IsNotFound()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  writer.join();
  collector.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(passes.load(), 0u);
  MetricsRegistry registry;
  store->ExportMetrics(&registry);
  EXPECT_GT(registry.Snapshot().CounterValue("chunk.file.delta_rebases"), 0u);
  ASSERT_TRUE(store->Sync().ok());

  const auto expect_retained = [&](FileChunkStore* s) {
    for (int i = kVersions - static_cast<int>(kRetain); i < kVersions; i++) {
      cache.Clear();
      std::shared_ptr<const Chunk> got;
      ASSERT_TRUE(s->Get(versions[i].id(), &got).ok()) << i;
      EXPECT_EQ(got->payload(), versions[i].payload());
    }
  };
  expect_retained(store.get());
  store.reset();
  ASSERT_TRUE(
      FileChunkStore::Open(Env::Default(), dir, store_options, &store).ok());
  expect_retained(store.get());
  store.reset();
  std::filesystem::remove_all(dir);
}

// Readers pinned to versions inside and outside the retain_versions
// window race a writer whose every block retires the index nodes that
// the block leaving the window replaced: every read returns the value
// of its version and verifies against it, whether its nodes come from
// the cache or, once retired, from the store.
TEST(ConcurrencyTest, PinnedReadersRaceRetirementOfReplacedNodes) {
  const std::string dir = ::testing::TempDir() + "/spitz_retire_race";
  std::filesystem::remove_all(dir);
  SpitzOptions options;
  options.data_dir = dir;
  options.block_size = 1;
  options.retain_versions = 4;
  std::unique_ptr<SpitzDb> db;
  ASSERT_TRUE(SpitzDb::Open(options, &db).ok());
  // Write i puts "v<i>" under key i % kKeys, so in the version after
  // write i, key k holds the value of the last write j <= i on it.
  constexpr int kKeys = 32;
  constexpr int kWrites = 1500;
  const auto key_of = [](int i) { return "hot" + std::to_string(i % kKeys); };
  std::vector<Hash256> roots(kWrites);
  std::atomic<int> published{0};
  std::atomic<uint64_t> failures{0};
  std::thread writer([&] {
    for (int i = 0; i < kWrites; i++) {
      if (!db->Put(key_of(i), "v" + std::to_string(i)).ok()) {
        failures.fetch_add(1);
      }
      if (i % 64 == 63 && !db->SyncStorage().ok()) failures.fetch_add(1);
      roots[i] = db->Digest().index_root;
      published.store(i + 1, std::memory_order_release);
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; r++) {
    readers.emplace_back([&, r] {
      Random pick(300 + r);
      for (;;) {
        const int n = published.load(std::memory_order_acquire);
        if (n == kWrites) break;
        if (n < kKeys) continue;
        // Half inside the window, half anywhere in the history.
        const int lo = pick.OneIn(2) ? std::max(kKeys - 1, n - 4) : kKeys - 1;
        const int i = lo + static_cast<int>(pick.Uniform(n - lo));
        const int k = static_cast<int>(pick.Uniform(kKeys));
        const int last = i - ((i - k) % kKeys);
        SpitzDigest pinned;
        pinned.index_root = roots[i];
        std::string value;
        ReadProof proof;
        if (!db->Read(pinned.index_root, key_of(k), &value, &proof).ok() ||
            value != "v" + std::to_string(last) ||
            !VerifyRead(pinned, key_of(k), value, proof).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(db->Metrics().CounterValue("index.cache.erases"), 0u);
  db.reset();
  std::filesystem::remove_all(dir);
}

TEST(ConcurrencyTest, CachedAndUncachedTreesAgreeOnRootsAndProofs) {
  SpitzOptions cached_opts;
  cached_opts.buffer_cache_bytes = 4 << 20;
  SpitzOptions uncached_opts;
  uncached_opts.buffer_cache_bytes = 4096;  // effectively cacheless
  SpitzDb cached(cached_opts);
  SpitzDb uncached(uncached_opts);
  for (int i = 0; i < 500; i++) {
    std::string key = "agree" + std::to_string(i);
    ASSERT_TRUE(cached.Put(key, "v" + std::to_string(i)).ok());
    ASSERT_TRUE(uncached.Put(key, "v" + std::to_string(i)).ok());
  }
  // Structural invariance + cache transparency: identical data ⇒
  // identical roots, and proofs from the cached tree verify.
  EXPECT_EQ(cached.Digest().index_root, uncached.Digest().index_root);
  std::string value;
  ReadProof proof;
  ASSERT_TRUE(cached.Read(kCurrentVersion, "agree123", &value, &proof).ok());
  EXPECT_TRUE(VerifyRead(uncached.Digest(), "agree123", value, proof)
                  .ok());
}

// --- Group commit ----------------------------------------------------------

TEST(ConcurrencyTest, GroupCommitManyWritersMatchSerial) {
  // Eight writers over disjoint key ranges racing through the commit
  // queue must leave exactly the state a serial execution leaves: same
  // key count, same index root, and proofs from the concurrent tree
  // verify against the serial tree's root (and vice versa).
  constexpr int kWriters = 8;
  constexpr int kPerWriter = 200;
  SpitzOptions options;
  options.block_size = 16;
  SpitzDb concurrent(options);
  SpitzDb serial(options);

  std::vector<std::thread> pool;
  std::atomic<uint64_t> put_errors{0};
  for (int w = 0; w < kWriters; w++) {
    pool.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; i++) {
        std::string key = "gw" + std::to_string(w) + "k" + std::to_string(i);
        if (!concurrent.Put(key, "v" + std::to_string(i)).ok()) {
          put_errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(put_errors.load(), 0u);

  for (int w = 0; w < kWriters; w++) {
    for (int i = 0; i < kPerWriter; i++) {
      std::string key = "gw" + std::to_string(w) + "k" + std::to_string(i);
      ASSERT_TRUE(serial.Put(key, "v" + std::to_string(i)).ok());
    }
  }

  EXPECT_EQ(concurrent.key_count(), serial.key_count());
  EXPECT_EQ(concurrent.Digest().index_root, serial.Digest().index_root)
      << "group-commit interleaving changed the authenticated state";

  // Cross-verification: a proof minted by either tree convinces a
  // verifier holding the other tree's root.
  std::string value;
  ReadProof proof;
  ASSERT_TRUE(concurrent.Read(kCurrentVersion, "gw3k77", &value, &proof).ok());
  EXPECT_TRUE(proof.index_proof.Verify(serial.Digest().index_root, "gw3k77",
                                       value)
                  .ok());
  ReadProof back;
  ASSERT_TRUE(serial.Read(kCurrentVersion, "gw5k123", &value, &back).ok());
  EXPECT_TRUE(back.index_proof.Verify(concurrent.Digest().index_root,
                                      "gw5k123", value)
                  .ok());
}

TEST(ConcurrencyTest, GroupCommitSyncWritersAmortizeFsyncs) {
  // Durable database, every writer demanding sync: the leader must
  // batch their journal appends and share fsyncs across the group, and
  // every acknowledged write must be readable afterwards.
  std::string dir = ::testing::TempDir() + "/spitz_group_sync_stress";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    SpitzOptions options;
    options.block_size = 16;
    options.data_dir = dir;
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(options, &db).ok());

    constexpr int kWriters = 8;
    constexpr int kPerWriter = 50;
    std::atomic<uint64_t> put_errors{0};
    std::vector<std::thread> pool;
    for (int w = 0; w < kWriters; w++) {
      pool.emplace_back([&, w] {
        WriteOptions sync_opts;
        sync_opts.sync = true;
        for (int i = 0; i < kPerWriter; i++) {
          std::string key =
              "sw" + std::to_string(w) + "k" + std::to_string(i);
          if (!db->Put(sync_opts, key, "durable").ok()) {
            put_errors.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : pool) t.join();
    EXPECT_EQ(put_errors.load(), 0u);

    const uint64_t puts = uint64_t{kWriters} * kPerWriter;
    uint64_t fsyncs =
        db->Metrics().CounterValue("core.db.journal.fsyncs");
    EXPECT_GE(fsyncs, 1u);
    EXPECT_LT(fsyncs, puts)
        << "sync writers did not share any fsyncs — group commit is off";

    std::string value;
    for (int w = 0; w < kWriters; w++) {
      for (int i = 0; i < kPerWriter; i++) {
        std::string key = "sw" + std::to_string(w) + "k" + std::to_string(i);
        ASSERT_TRUE(db->Get(key, &value).ok()) << key;
      }
    }

    // The same writers without sync buffer their appends; one final
    // FlushBlock + SyncStorage makes the lot durable.
    pool.clear();
    for (int w = 0; w < kWriters; w++) {
      pool.emplace_back([&, w] {
        for (int i = 0; i < kPerWriter; i++) {
          std::string key =
              "aw" + std::to_string(w) + "k" + std::to_string(i);
          if (!db->Put(key, "buffered").ok()) put_errors.fetch_add(1);
        }
      });
    }
    for (auto& t : pool) t.join();
    EXPECT_EQ(put_errors.load(), 0u);
    ASSERT_TRUE(db->FlushBlock().ok());
    ASSERT_TRUE(db->SyncStorage().ok());
    EXPECT_EQ(db->key_count(), 2 * puts);
  }
  std::filesystem::remove_all(dir);
}

// --- Sealed-block readers vs flushes that page blocks out -----------------

// Every sync write seals, flushes and so releases the journal's resident
// tail under the writer lock, while readers locate blocks under it and
// read them back (resident copy or journal.log) outside it. KeyHistory,
// SealedBlock and the last-block audit must stay correct and TSan-clean
// throughout.
TEST(ConcurrencyTest, SealedBlockReadersRaceFlushesThatPageBlocksOut) {
  std::string dir = ::testing::TempDir() + "/spitz_paged_block_race";
  std::filesystem::remove_all(dir);
  {
    SpitzOptions options;
    options.block_size = 4;
    options.data_dir = dir;
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(options, &db).ok());
    constexpr int kWriters = 2;
    constexpr int kPerWriter = 150;
    ASSERT_TRUE(db->Put("seed", "0").ok());
    ASSERT_TRUE(db->FlushBlock().ok());

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> reads{0};
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; w++) {
      writers.emplace_back([&, w] {
        WriteOptions sync;
        sync.sync = true;
        for (int i = 0; i < kPerWriter; i++) {
          // Each writer rewrites a few keys, so histories grow.
          std::string key = "w" + std::to_string(w) + "k" +
                            std::to_string(i % 5);
          if (!db->Put(sync, key, std::to_string(i)).ok()) errors++;
        }
      });
    }
    std::vector<std::thread> readers;
    readers.emplace_back([&] {
      Random rng(5);
      while (!stop.load()) {
        std::string key = "w" + std::to_string(rng.Uniform(kWriters)) + "k" +
                          std::to_string(rng.Uniform(5));
        std::vector<SpitzDb::HistoricalWrite> history;
        Status s = db->ledger()->KeyHistory(key, &history);
        if (!s.ok() && !s.IsNotFound()) errors++;
        for (const SpitzDb::HistoricalWrite& write : history) {
          if (write.entry.key != key) errors++;
        }
        reads++;
      }
    });
    readers.emplace_back([&] {
      Random rng(6);
      while (!stop.load()) {
        const uint64_t blocks = db->Digest().journal.block_count;
        const uint64_t height = rng.Uniform(blocks);
        std::string serialized;
        Block block;
        if (!db->ledger()->SealedBlock(height, &serialized, &block).ok() ||
            block.height() != height) {
          errors++;
        }
        reads++;
      }
    });
    readers.emplace_back([&] {
      while (!stop.load()) {
        if (!db->auditor()->AuditLastBlock().ok()) errors++;
        reads++;
      }
    });
    for (auto& t : writers) t.join();
    stop.store(true);
    for (auto& t : readers) t.join();
    EXPECT_EQ(errors.load(), 0u);
    EXPECT_GT(reads.load(), 0u);
    EXPECT_TRUE(db->auditor()->Drain().ok());
    ASSERT_TRUE(db->SyncStorage().ok());
    EXPECT_EQ(db->Metrics().GaugeValue("core.db.journal.resident_bytes"), 0u);
    std::vector<SpitzDb::HistoricalWrite> history;
    ASSERT_TRUE(db->ledger()->KeyHistory("w1k3", &history).ok());
    EXPECT_EQ(history.size(), static_cast<size_t>(kPerWriter / 5));
  }
  std::filesystem::remove_all(dir);
}

// --- Version GC vs concurrent readers and auditors -------------------------

// The epoch-based GC must never disturb a retained-version read or an
// in-flight proof build: writers churn versions, readers run verified
// gets and scans against live snapshots, auditors re-derive proofs on
// background threads, and GC passes sweep dead versions the whole
// time. TSan-clean, zero verification failures, and every read of a
// retained version succeeds.
TEST(ConcurrencyTest, VersionGcRacesReadersWritersAndAuditors) {
  std::string dir = ::testing::TempDir() + "/spitz_gc_race";
  std::filesystem::remove_all(dir);
  {
    SpitzOptions options;
    options.block_size = 8;
    options.retain_versions = 2;
    options.chunk_segment_bytes = 16 << 10;  // many small segments
    options.buffer_cache_bytes = 256 << 10;
    options.data_dir = dir;
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(options, &db).ok());
    const int kKeys = 128;
    for (int i = 0; i < kKeys; i++) {
      ASSERT_TRUE(db->Put("gckey" + std::to_string(i), "v0").ok());
    }

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> read_errors{0};
    std::atomic<uint64_t> proof_failures{0};

    std::vector<std::thread> pool;
    // Writers: churn versions so dead chunks accumulate.
    for (int w = 0; w < 2; w++) {
      pool.emplace_back([&, w] {
        int round = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          std::string v = "w" + std::to_string(w) + "r" + std::to_string(round);
          for (int i = w; i < kKeys; i += 2) {
            db->Put("gckey" + std::to_string(i), v);
          }
          round++;
        }
      });
    }
    // Readers: verified point reads and scans of the live snapshot.
    for (int r = 0; r < 2; r++) {
      pool.emplace_back([&, r] {
        std::string value;
        int i = r;
        while (!stop.load(std::memory_order_relaxed)) {
          std::string key = "gckey" + std::to_string(i % kKeys);
          ReadProof proof;
          SpitzDigest digest = db->Digest();
          Status s = db->Read(kCurrentVersion, key, &value, &proof);
          if (!s.ok() && !s.IsNotFound()) {
            read_errors.fetch_add(1);
          } else if (s.ok() && proof.index_root == digest.index_root &&
                     !VerifyRead(digest, key, value, proof).ok()) {
            proof_failures.fetch_add(1);
          }
          std::vector<PosEntry> out;
          if (!db->Scan("gckey", "gckez", 32, &out).ok()) {
            read_errors.fetch_add(1);
          }
          i += 7;
        }
      });
    }
    // Auditor feed: integrity audits that re-build proofs on the
    // deferred-verifier threads while GC sweeps.
    pool.emplace_back([&] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        db->auditor()->AuditKey("gckey" + std::to_string(i % kKeys));
        i++;
      }
    });
    // Collector: continuous GC passes.
    pool.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        db->FlushBlock();
        ChunkGcStats stats;
        Status s = db->gc()->Collect(&stats);
        if (!s.ok()) read_errors.fetch_add(1);
      }
    });

    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    stop.store(true);
    for (auto& t : pool) t.join();

    EXPECT_EQ(read_errors.load(), 0u);
    EXPECT_EQ(proof_failures.load(), 0u);
    // Audits of the live version must all have verified. (An audit can
    // legally observe NotFound only if its root was collected first —
    // retain_versions=2 plus the audit's epoch pin prevents that for
    // roots captured at submit time.)
    EXPECT_TRUE(db->auditor()->Drain().ok());
    EXPECT_GE(db->Metrics().CounterValue("gc.runs"), 1u);

    // Every key still reads back with a verifying proof after the dust
    // settles.
    std::string value;
    for (int i = 0; i < kKeys; i++) {
      std::string key = "gckey" + std::to_string(i);
      ReadProof proof;
      ASSERT_TRUE(db->Read(kCurrentVersion, key, &value, &proof).ok()) << key;
      EXPECT_TRUE(
          VerifyRead(db->Digest(), key, value, proof).ok());
    }
  }
  std::filesystem::remove_all(dir);
}

// A ReadRange at an old version that races the GC pass collecting that
// version returns either exactly that version's rows or a clean error,
// never wrong rows: the read pins its epoch for the whole traversal, so
// the pass either waits for it or unpublishes the version before it
// starts.
TEST(ConcurrencyTest, ReadRangeRacingGcOfItsVersionIsExactOrFails) {
  std::string dir = ::testing::TempDir() + "/spitz_scan_gc_race";
  std::filesystem::remove_all(dir);
  SpitzOptions options;
  options.block_size = 4;
  options.retain_versions = 1;
  options.chunk_segment_bytes = 16 << 10;
  options.data_dir = dir;
  std::unique_ptr<SpitzDb> opened;
  ASSERT_TRUE(SpitzDb::Open(options, &opened).ok());
  SpitzDb& db = *opened;
  auto key = [](int i) {
    return "it" + std::to_string(i / 10) + std::to_string(i % 10);
  };
  for (int round = 0; round < 4; round++) {
    SCOPED_TRACE(round);
    const std::string old_value = "v" + std::to_string(round);
    std::vector<PosEntry> expected;
    for (int i = 0; i < 64; i++) {
      ASSERT_TRUE(db.Put(key(i), old_value).ok());
      expected.push_back({key(i), old_value});
    }
    ASSERT_TRUE(db.FlushBlock().ok());
    const Hash256 old_root = db.Digest().index_root;

    std::atomic<bool> collected{false};
    std::thread churn([&] {
      // Overwrite everything (a new version) and collect the old one.
      for (int i = 0; i < 64; i++) db.Put(key(i), "next");
      db.FlushBlock();
      db.gc()->Collect(nullptr);
      collected.store(true);
    });
    size_t exact = 0;
    size_t failed = 0;
    size_t wrong = 0;
    do {
      std::vector<PosEntry> rows;
      Status s = db.ReadRange(old_root, "", "", 0, &rows, nullptr);
      if (!s.ok()) {
        failed++;
      } else if (rows == expected) {
        exact++;
      } else {
        wrong++;
      }
    } while (!collected.load());
    churn.join();
    EXPECT_EQ(wrong, 0u) << exact << " exact, " << failed << " failed";
    EXPECT_GT(exact + failed, 0u);

    // The pass did collect the old version, and a read of it now fails.
    EXPECT_TRUE(db.gc()->Collected(old_root));
    std::vector<PosEntry> rows;
    EXPECT_FALSE(db.ReadRange(old_root, "", "", 0, &rows, nullptr).ok());
  }
  opened.reset();
  std::filesystem::remove_all(dir);
}

// Runs EpochManager::WaitForQuiescence on a thread of its own while
// `held` is live and `churn` takes and releases guards on held's slot,
// then releases `held`. Returns whether the wait ended before that.
bool WaitEndedWhileHeld(EpochManager* epochs, EpochManager::Guard held,
                        const std::function<void()>& churn) {
  std::atomic<bool> waited{false};
  std::thread waiter([&] {
    epochs->WaitForQuiescence();
    waited.store(true);
  });
  churn();
  const bool early = waited.load();
  held = EpochManager::Guard();
  waiter.join();
  return early;
}

// A guard taken and released inside another on one thread (SpitzDb's
// read pin around VersionedIndex's) does not end a wait the outer
// guard must hold.
TEST(ConcurrencyTest, EpochWaitOutlastsANestedGuard) {
  EpochManager epochs;
  EpochManager::Guard outer = epochs.Enter();
  EXPECT_FALSE(WaitEndedWhileHeld(&epochs, std::move(outer), [&] {
    for (int i = 0; i < 100; i++) {
      { EpochManager::Guard inner = epochs.Enter(); }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }));
}

// Nor does a guard of another thread that shares the outer guard's
// slot. Slots go to threads round-robin, process-wide, so of 64 new
// threads some share it.
TEST(ConcurrencyTest, EpochWaitOutlastsAGuardSharingItsSlot) {
  EpochManager epochs;
  EpochManager::Guard outer = epochs.Enter();
  EXPECT_FALSE(WaitEndedWhileHeld(&epochs, std::move(outer), [&] {
    std::vector<std::thread> threads;
    for (int t = 0; t < 64; t++) {
      threads.emplace_back([&] {
        for (int i = 0; i < 100; i++) {
          { EpochManager::Guard guard = epochs.Enter(); }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
    }
    for (auto& t : threads) t.join();
  }));
}

}  // namespace
}  // namespace spitz
