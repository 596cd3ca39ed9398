#include "common/metrics.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "chunk/file_chunk_store.h"
#include "core/json.h"
#include "core/spitz_db.h"

namespace spitz {
namespace {

// --- Instruments ------------------------------------------------------------

TEST(CounterTest, IncrementsAccumulate) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, MovesBothWays) {
  Gauge g;
  g.Set(10);
  g.Add(5);
  g.Sub(3);
  EXPECT_EQ(g.value(), 12u);
}

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 holds zeros; bucket i >= 1 holds [2^(i-1), 2^i - 1].
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 1u);
  EXPECT_EQ(Histogram::BucketOf(2), 2u);
  EXPECT_EQ(Histogram::BucketOf(3), 2u);
  EXPECT_EQ(Histogram::BucketOf(4), 3u);
  EXPECT_EQ(Histogram::BucketOf(1023), 10u);
  EXPECT_EQ(Histogram::BucketOf(1024), 11u);
  EXPECT_EQ(Histogram::BucketOf(UINT64_MAX), HistogramSnapshot::kBuckets - 1);
}

TEST(HistogramTest, SnapshotAggregates) {
  Histogram h;
  h.Record(0);
  h.Record(100);
  h.Record(200);
  h.Record(1000);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.sum, 1300u);
  EXPECT_EQ(snap.max, 1000u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[Histogram::BucketOf(100)], 1u);
}

TEST(HistogramTest, PercentilesAreOrderedAndClamped) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; v++) h.Record(v);
  HistogramSnapshot snap = h.Snapshot();
  double p50 = snap.p50(), p95 = snap.p95(), p99 = snap.p99();
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Log-scale buckets promise at most one power-of-two of error.
  EXPECT_GE(p50, 250.0);
  EXPECT_LE(p50, 1024.0);
  // No percentile exceeds the observed maximum.
  EXPECT_LE(p99, 1000.0);
  EXPECT_EQ(HistogramSnapshot().Percentile(0.99), 0.0);
}

TEST(ScopedTimerTest, RecordsElapsedAndToleratesNull) {
  Histogram h;
  { ScopedTimer timer(&h); }
  EXPECT_EQ(h.count(), 1u);
  { ScopedTimer timer(nullptr); }  // must not crash
}

// --- Concurrency ------------------------------------------------------------

TEST(MetricsConcurrencyTest, CountersAndHistogramsUnderConcurrentWriters) {
  // Exercised under TSan by ci/check.sh: relaxed atomics must be exact
  // in totals and race-free.
  MetricsRegistry registry;
  Counter* counter = registry.counter("test.ops");
  Histogram* histogram = registry.histogram("test.latency");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        counter->Increment();
        histogram->Record(static_cast<uint64_t>(t * kPerThread + i));
      }
    });
  }
  // Snapshots race the writers by design; they must be safe (the totals
  // they observe are merely monotone, checked after the join).
  for (int i = 0; i < 10; i++) registry.Snapshot();
  for (auto& t : threads) t.join();
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterValue("test.ops"), uint64_t{kThreads} * kPerThread);
  const HistogramSnapshot* h = snap.FindHistogram("test.latency");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(h->max, uint64_t{kThreads} * kPerThread - 1);
}

// --- Registry ---------------------------------------------------------------

TEST(MetricsRegistryTest, GetOrCreateReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* a = registry.counter("x");
  EXPECT_EQ(a, registry.counter("x"));
  EXPECT_NE(a, registry.counter("y"));
  Histogram* h = registry.histogram("h");
  EXPECT_EQ(h, registry.histogram("h"));
}

TEST(MetricsRegistryTest, ExternalAndCallbackRegistrations) {
  MetricsRegistry registry;
  Counter external;
  external.Increment(7);
  registry.RegisterCounter("ext.counter", &external);
  Histogram external_h;
  external_h.Record(5);
  registry.RegisterHistogram("ext.histogram", &external_h);
  uint64_t sampled = 0;
  registry.RegisterCounterFn("fn.counter", [&] { return sampled; });
  registry.RegisterGaugeFn("fn.gauge", [&] { return sampled * 2; });

  sampled = 21;  // callbacks sample at snapshot time, not registration
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterValue("ext.counter"), 7u);
  EXPECT_EQ(snap.CounterValue("fn.counter"), 21u);
  EXPECT_EQ(snap.GaugeValue("fn.gauge"), 42u);
  ASSERT_NE(snap.FindHistogram("ext.histogram"), nullptr);
  EXPECT_EQ(snap.FindHistogram("ext.histogram")->count, 1u);
}

TEST(MetricsSnapshotTest, MergeCombinesHistogramsBucketwise) {
  Histogram a, b;
  a.Record(10);
  b.Record(1000);
  MetricsSnapshot left, right;
  left.histograms["h"] = a.Snapshot();
  left.counters["c"] = 1;
  right.histograms["h"] = b.Snapshot();
  right.counters["d"] = 2;
  left.MergeFrom(right);
  EXPECT_EQ(left.CounterValue("c"), 1u);
  EXPECT_EQ(left.CounterValue("d"), 2u);
  const HistogramSnapshot* h = left.FindHistogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_EQ(h->sum, 1010u);
  EXPECT_EQ(h->max, 1000u);
}

// --- JSON round trip --------------------------------------------------------

TEST(MetricsSnapshotTest, JsonRoundTripIsExact) {
  MetricsRegistry registry;
  registry.counter("chunk.store.puts")->Increment(123456789);
  registry.gauge("index.cache.entries")->Set(42);
  Histogram* h = registry.histogram("core.db.write_latency_ns");
  h->Record(0);
  h->Record(999);
  h->Record(1 << 20);
  MetricsSnapshot original = registry.Snapshot();

  std::string text = original.ToJsonString();
  JsonValue parsed;
  ASSERT_TRUE(JsonValue::Parse(text, &parsed).ok());
  MetricsSnapshot decoded;
  ASSERT_TRUE(MetricsSnapshot::FromJson(parsed, &decoded).ok());

  EXPECT_EQ(decoded.counters, original.counters);
  EXPECT_EQ(decoded.gauges, original.gauges);
  ASSERT_EQ(decoded.histograms.size(), original.histograms.size());
  const HistogramSnapshot* dh =
      decoded.FindHistogram("core.db.write_latency_ns");
  ASSERT_NE(dh, nullptr);
  const HistogramSnapshot* oh =
      original.FindHistogram("core.db.write_latency_ns");
  EXPECT_EQ(dh->count, oh->count);
  EXPECT_EQ(dh->sum, oh->sum);
  EXPECT_EQ(dh->max, oh->max);
  EXPECT_EQ(dh->buckets, oh->buckets);
}

TEST(MetricsSnapshotTest, FromJsonRejectsMalformedInput) {
  JsonValue parsed;
  MetricsSnapshot out;
  ASSERT_TRUE(JsonValue::Parse("[1,2,3]", &parsed).ok());
  EXPECT_FALSE(MetricsSnapshot::FromJson(parsed, &out).ok());
  // A bucket index outside the histogram's range must be rejected.
  ASSERT_TRUE(JsonValue::Parse(R"({"histograms":{"h":{"count":1,"sum":1,)"
                               R"("max":1,"buckets":[[99,1]]}}})",
                               &parsed)
                  .ok());
  EXPECT_FALSE(MetricsSnapshot::FromJson(parsed, &out).ok());
}

// --- End to end through SpitzDb ---------------------------------------------

TEST(MetricsEndToEndTest, ProofAndLatencyHistogramsPerBackend) {
  for (SiriBackend backend : {SiriBackend::kPosTree, SiriBackend::kMerklePatriciaTrie,
                              SiriBackend::kMerkleBucketTree}) {
    SCOPED_TRACE(SiriBackendName(backend));
    SpitzOptions options;
    options.index_backend = backend;
    options.block_size = 8;
    options.audit_batch_size = 4;
    options.audit_workers = 2;
    SpitzDb db(options);
    for (int i = 0; i < 32; i++) {
      std::string key = "key" + std::to_string(i);
      ASSERT_TRUE(db.Put(key, "value").ok());
      ASSERT_TRUE(db.auditor()->AuditKey(key).ok());
    }
    std::string value;
    ReadProof proof;
    for (int i = 0; i < 32; i++) {
      ASSERT_TRUE(db.Get("key" + std::to_string(i), &value).ok());
      ASSERT_TRUE(db.Read(kCurrentVersion, "key" + std::to_string(i), &value,
                          &proof)
                      .ok());
    }
    ASSERT_TRUE(db.auditor()->Drain().ok());

    MetricsSnapshot snap = db.Metrics();
    const std::string backend_name = SiriBackendName(backend);
    for (const std::string& name :
         {std::string("core.db.write_latency_ns"),
          std::string("core.db.read_latency_ns"),
          std::string("core.db.seal_latency_ns"),
          std::string("core.db.proof_build_latency_ns"),
          std::string("core.db.proof_verify_latency_ns"),
          "index.siri.proof_bytes." + backend_name}) {
      const HistogramSnapshot* h = snap.FindHistogram(name);
      ASSERT_NE(h, nullptr) << name;
      EXPECT_GT(h->count, 0u) << name;
      EXPECT_GT(h->sum, 0u) << name;
    }
    // The verifier pipeline's accounting rides along in the same snapshot.
    EXPECT_EQ(snap.CounterValue("txn.verifier.verified"), 32u);
    EXPECT_EQ(snap.CounterValue("txn.verifier.failures"), 0u);
    EXPECT_GT(snap.CounterValue("chunk.store.puts"), 0u);
    const HistogramSnapshot* wait =
        snap.FindHistogram("txn.verifier.queue_wait_ns");
    ASSERT_NE(wait, nullptr);
    EXPECT_EQ(wait->count, 32u);
  }
}

TEST(MetricsEndToEndTest, PagedStoreGcAndCacheMetricsRoundTripThroughJson) {
  std::string dir = ::testing::TempDir() + "/spitz_metrics_paged";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  SpitzOptions options;
  options.block_size = 8;
  options.data_dir = dir;
  options.chunk_segment_bytes = 4 << 10;
  options.retain_versions = 1;
  options.buffer_cache_bytes = 256 << 10;
  std::unique_ptr<SpitzDb> db;
  ASSERT_TRUE(SpitzDb::Open(options, &db).ok());
  // Three rounds of overwrites: the older rounds' chunks go dead, and
  // the tiny segment budget forces the store through several rolls.
  for (int round = 0; round < 3; round++) {
    for (int i = 0; i < 64; i++) {
      ASSERT_TRUE(db->Put("key" + std::to_string(i),
                          "round" + std::to_string(round) + "-" +
                              std::to_string(i))
                      .ok());
    }
  }
  ASSERT_TRUE(db->FlushBlock().ok());
  ChunkGcStats stats;
  ASSERT_TRUE(db->gc()->Collect(&stats).ok());
  EXPECT_GT(stats.dead_chunks, 0u);

  MetricsSnapshot snap = db->Metrics();
  EXPECT_EQ(snap.CounterValue("gc.runs"), 1u);
  EXPECT_GT(snap.CounterValue("gc.dead_chunks"), 0u);
  EXPECT_GT(snap.CounterValue("gc.reclaimed_bytes"), 0u);
  EXPECT_GT(snap.GaugeValue("gc.live_chunks"), 0u);
  EXPECT_GT(snap.CounterValue("chunk.segment.rolls"), 0u);
  EXPECT_GT(snap.GaugeValue("chunk.segment.count"), 0u);
  EXPECT_GT(snap.CounterValue("cache.hits") + snap.CounterValue("cache.misses"),
            0u);
  EXPECT_GT(snap.GaugeValue("cache.bytes"), 0u);
  EXPECT_EQ(snap.GaugeValue("cache.capacity_bytes"),
            uint64_t{256} << 10);

  // The new families survive the JSON wire format exactly.
  JsonValue parsed;
  ASSERT_TRUE(JsonValue::Parse(snap.ToJsonString(), &parsed).ok());
  MetricsSnapshot decoded;
  ASSERT_TRUE(MetricsSnapshot::FromJson(parsed, &decoded).ok());
  EXPECT_EQ(decoded.counters, snap.counters);
  EXPECT_EQ(decoded.gauges, snap.gauges);

  db.reset();
  std::filesystem::remove_all(dir);
}

// chunk.file.index_entries counts the locations the paged store keeps
// resident, one per stored chunk, and chunk.file.index_bytes what they
// cost: 56 B records in pages and the table finding them. A GC pass
// frees slots for reuse but keeps the pages, so the entries fall and
// the bytes hold; a reopen builds the index for the survivors alone.
TEST(MetricsEndToEndTest, PagedStoreIndexGaugesCountEntriesAndBytes) {
  const std::string dir = ::testing::TempDir() + "/spitz_metrics_index";
  std::filesystem::remove_all(dir);
  SpitzOptions options;
  options.block_size = 8;
  options.data_dir = dir;
  options.retain_versions = 1;
  std::unique_ptr<SpitzDb> db;
  ASSERT_TRUE(SpitzDb::Open(options, &db).ok());
  std::vector<PosEntry> entries;
  for (int i = 0; i < 20000; i++) {
    entries.push_back(
        {"key" + std::to_string(100000 + i), std::string(40, 'v')});
  }
  ASSERT_TRUE(db->BulkLoad(std::move(entries)).ok());
  for (int round = 0; round < 4; round++) {
    for (int i = 0; i < 2000; i += 7) {
      ASSERT_TRUE(db->Put("key" + std::to_string(100000 + i),
                          "round" + std::to_string(round))
                      .ok());
    }
  }
  ASSERT_TRUE(db->FlushBlock().ok());
  MetricsSnapshot snap = db->Metrics();
  const uint64_t entries_before = snap.GaugeValue("chunk.file.index_entries");
  const uint64_t bytes_before = snap.GaugeValue("chunk.file.index_bytes");
  EXPECT_EQ(entries_before, snap.GaugeValue("chunk.store.chunk_count"));
  EXPECT_GE(bytes_before, entries_before * sizeof(ChunkIndex::Record));
  // Sixteen shards each hold a page of 64 records at least.
  EXPECT_LE(bytes_before, entries_before * 72 +
                              16 * ChunkIndex::kPageRecords *
                                  sizeof(ChunkIndex::Record));

  ChunkGcStats stats;
  ASSERT_TRUE(db->gc()->Collect(&stats).ok());
  ASSERT_GT(stats.dead_chunks, 0u);
  snap = db->Metrics();
  EXPECT_EQ(snap.GaugeValue("chunk.file.index_entries"),
            entries_before - stats.dead_chunks);
  EXPECT_EQ(snap.GaugeValue("chunk.file.index_entries"),
            snap.GaugeValue("chunk.store.chunk_count"));
  EXPECT_EQ(snap.GaugeValue("chunk.file.index_bytes"), bytes_before);

  const uint64_t survivors = snap.GaugeValue("chunk.file.index_entries");
  ASSERT_TRUE(db->SyncStorage().ok());
  db.reset();
  ASSERT_TRUE(SpitzDb::Open(options, &db).ok());
  snap = db->Metrics();
  EXPECT_EQ(snap.GaugeValue("chunk.file.index_entries"), survivors);
  EXPECT_LE(snap.GaugeValue("chunk.file.index_bytes"), bytes_before);
  db.reset();
  std::filesystem::remove_all(dir);
}

// cache.erases and index.cache.erases count entries Erase retired
// apart from the ones budget pressure evicted: overwrites behind a
// cache far larger than the data evict nothing, yet every block past
// the retain_versions window erases the index nodes its writes
// replaced, raw and decoded.
TEST(MetricsEndToEndTest, CacheErasesCountRetirementApartFromEvictions) {
  std::string dir = ::testing::TempDir() + "/spitz_metrics_erases";
  std::filesystem::remove_all(dir);
  SpitzOptions options;
  options.block_size = 1;
  options.data_dir = dir;
  options.retain_versions = 2;
  std::unique_ptr<SpitzDb> db;
  ASSERT_TRUE(SpitzDb::Open(options, &db).ok());
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(db->Put("key" + std::to_string(i % 16),
                        "value" + std::to_string(i))
                    .ok());
  }
  const MetricsSnapshot snap = db->Metrics();
  EXPECT_EQ(snap.CounterValue("cache.evictions"), 0u);
  EXPECT_EQ(snap.CounterValue("index.cache.evictions"), 0u);
  const uint64_t node_erases = snap.CounterValue("index.cache.erases");
  EXPECT_GT(node_erases, 0u);
  // The raw copies of the same nodes are erased beside them.
  EXPECT_GT(snap.CounterValue("cache.erases"), node_erases);

  JsonValue parsed;
  ASSERT_TRUE(JsonValue::Parse(snap.ToJsonString(), &parsed).ok());
  MetricsSnapshot decoded;
  ASSERT_TRUE(MetricsSnapshot::FromJson(parsed, &decoded).ok());
  EXPECT_EQ(decoded.CounterValue("cache.erases"),
            snap.CounterValue("cache.erases"));
  EXPECT_EQ(decoded.CounterValue("index.cache.erases"), node_erases);

  db.reset();
  std::filesystem::remove_all(dir);
}

// Every GC pass times its mark and its sweep: gc.mark_latency_ns and
// gc.sweep_latency_ns hold one sample per pass and survive the JSON
// wire format.
TEST(MetricsEndToEndTest, GcMarkAndSweepLatencyRoundTripThroughJson) {
  std::string dir = ::testing::TempDir() + "/spitz_metrics_gc_phases";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  SpitzOptions options;
  options.block_size = 8;
  options.data_dir = dir;
  options.chunk_segment_bytes = 4 << 10;
  options.retain_versions = 1;
  std::unique_ptr<SpitzDb> db;
  ASSERT_TRUE(SpitzDb::Open(options, &db).ok());
  for (int pass = 0; pass < 2; pass++) {
    for (int i = 0; i < 64; i++) {
      ASSERT_TRUE(db->Put("key" + std::to_string(i),
                          "pass" + std::to_string(pass) + "-" +
                              std::to_string(i))
                      .ok());
    }
    ASSERT_TRUE(db->FlushBlock().ok());
    ASSERT_TRUE(db->gc()->Collect().ok());
  }

  MetricsSnapshot snap = db->Metrics();
  JsonValue parsed;
  ASSERT_TRUE(JsonValue::Parse(snap.ToJsonString(), &parsed).ok());
  MetricsSnapshot decoded;
  ASSERT_TRUE(MetricsSnapshot::FromJson(parsed, &decoded).ok());
  for (const char* name : {"gc.mark_latency_ns", "gc.sweep_latency_ns"}) {
    SCOPED_TRACE(name);
    const HistogramSnapshot* h = snap.FindHistogram(name);
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 2u);
    EXPECT_GT(h->sum, 0u);
    const HistogramSnapshot* back = decoded.FindHistogram(name);
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(back->count, h->count);
    EXPECT_EQ(back->sum, h->sum);
    EXPECT_EQ(back->max, h->max);
    EXPECT_EQ(back->buckets, h->buckets);
  }

  db.reset();
  std::filesystem::remove_all(dir);
}

// A durable node's overwrites append delta records, and its cold reads
// of them read their bases: chunk.file.delta_records, delta_bytes and
// chain_reads count both.
TEST(MetricsEndToEndTest, PagedStoreCountsDeltaRecordsAndChainReads) {
  std::string dir = ::testing::TempDir() + "/spitz_metrics_delta";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  SpitzOptions options;
  options.block_size = 8;
  options.data_dir = dir;
  // Smaller than the data, so a cold read finds no base cached.
  options.buffer_cache_bytes = 4 << 10;
  for (int reopen = 0; reopen < 2; reopen++) {
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(options, &db).ok());
    if (reopen == 0) {
      // Nodes of 32 entries of ~100 B: a delta is far shorter than one.
      for (int i = 0; i < 60; i++) {
        ASSERT_TRUE(db->Put("key" + std::to_string(i % 32),
                            std::string(100, 'a' + i % 26))
                        .ok());
      }
      ASSERT_TRUE(db->FlushBlock().ok());
      ASSERT_TRUE(db->SyncStorage().ok());
      JsonValue json;
      ASSERT_TRUE(JsonValue::Parse(db->Metrics().ToJsonString(), &json).ok());
      MetricsSnapshot snap;
      ASSERT_TRUE(MetricsSnapshot::FromJson(json, &snap).ok());
      const uint64_t records = snap.CounterValue("chunk.file.delta_records");
      const uint64_t bytes = snap.CounterValue("chunk.file.delta_bytes");
      EXPECT_GT(records, 0u);
      EXPECT_GT(bytes, records * 2 * Hash256::kSize);
      EXPECT_LT(bytes, snap.CounterValue("chunk.file.appended_bytes"));
      EXPECT_EQ(snap.CounterValue("chunk.file.chain_reads"), 0u);
    } else {
      // A fresh cache: reading the newest version rebuilds its deltas.
      std::string value;
      for (int i = 0; i < 32; i++) {
        ASSERT_TRUE(db->Get("key" + std::to_string(i), &value).ok());
        EXPECT_EQ(value, std::string(100, 'a' + (i < 28 ? 32 + i : i) % 26));
      }
      EXPECT_GT(db->Metrics().CounterValue("chunk.file.chain_reads"), 0u);
    }
  }
  std::filesystem::remove_all(dir);
}

// Overwrites of one key past the chain cap write the leaf's next
// version as a delta on the full record its chain starts from, which
// the cache no longer holds once its block left the retain_versions
// window: chunk.file.delta_rebases counts those deltas and rebase_reads
// the full records read back for them, while chain_reads, the bases
// read to rebuild a delta, stays 0 on a run that only writes.
TEST(MetricsEndToEndTest, PagedStoreCountsRebasesApartFromChainReads) {
  std::string dir = ::testing::TempDir() + "/spitz_metrics_rebase";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  SpitzOptions options;
  options.block_size = 1;
  options.retain_versions = 2;
  options.data_dir = dir;
  {
    std::unique_ptr<SpitzDb> db;
    ASSERT_TRUE(SpitzDb::Open(options, &db).ok());
    std::vector<PosEntry> entries;
    for (int i = 0; i < 32; i++) {
      entries.push_back({"key" + std::to_string(i), std::string(100, 'a')});
    }
    ASSERT_TRUE(db->BulkLoad(entries).ok());
    ASSERT_TRUE(db->SyncStorage().ok());
    for (int v = 1; v <= 2 * FileChunkStore::kMaxChainDepth + 1; v++) {
      ASSERT_TRUE(db->Put("key7", std::string(100, 'a' + v % 26)).ok());
    }
    JsonValue json;
    ASSERT_TRUE(JsonValue::Parse(db->Metrics().ToJsonString(), &json).ok());
    MetricsSnapshot snap;
    ASSERT_TRUE(MetricsSnapshot::FromJson(json, &snap).ok());
    const uint64_t rebases = snap.CounterValue("chunk.file.delta_rebases");
    EXPECT_GE(rebases, 2u);
    EXPECT_LT(rebases, snap.CounterValue("chunk.file.delta_records"));
    EXPECT_GE(snap.CounterValue("chunk.file.rebase_reads"), 1u);
    EXPECT_LE(snap.CounterValue("chunk.file.rebase_reads"), rebases);
    EXPECT_EQ(snap.CounterValue("chunk.file.chain_reads"), 0u);
  }
  std::filesystem::remove_all(dir);
}

TEST(MetricsEndToEndTest, RangeProofBytesRecordedForScans) {
  SpitzOptions options;
  options.block_size = 8;
  SpitzDb db(options);
  for (int i = 0; i < 64; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%06d", i);
    ASSERT_TRUE(db.Put(key, "v").ok());
  }
  std::vector<PosEntry> rows;
  ScanProof proof;
  ASSERT_TRUE(db.ReadRange(kCurrentVersion, "k000010", "k000030", 0, &rows,
                           &proof)
                  .ok());
  MetricsSnapshot snap = db.Metrics();
  const HistogramSnapshot* bytes =
      snap.FindHistogram("index.siri.range_proof_bytes.pos-tree");
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(bytes->count, 1u);
  EXPECT_GE(bytes->max, proof.index_proof.ByteSize());
  EXPECT_NE(snap.FindHistogram("core.db.scan_latency_ns"), nullptr);
}

TEST(MetricsEndToEndTest, DisabledMetricsLeaveHistogramsEmpty) {
  SpitzOptions options;
  options.enable_metrics = false;
  SpitzDb db(options);
  ASSERT_TRUE(db.Put("k", "v").ok());
  std::string value;
  ASSERT_TRUE(db.Get("k", &value).ok());
  MetricsSnapshot snap = db.Metrics();
  // No latency/proof histograms are wired; component counters are also
  // unregistered (the components still count internally, but the
  // snapshot is empty).
  EXPECT_TRUE(snap.histograms.empty());
  EXPECT_EQ(snap.FindHistogram("core.db.write_latency_ns"), nullptr);
}

TEST(MetricsEndToEndTest, ClientSideVerifyLatencyLandsInGlobalRegistry) {
  SpitzDb db;
  ASSERT_TRUE(db.Put("k", "v").ok());
  std::string value;
  ReadProof proof;
  ASSERT_TRUE(db.Read(kCurrentVersion, "k", &value, &proof).ok());
  MetricsSnapshot baseline = MetricsRegistry::Global()->Snapshot();
  const HistogramSnapshot* prior =
      baseline.FindHistogram("client.db.verify_read_latency_ns");
  uint64_t before = prior == nullptr ? 0 : prior->count;
  ASSERT_TRUE(VerifyRead(db.Digest(), "k", value, proof).ok());
  MetricsSnapshot global = MetricsRegistry::Global()->Snapshot();
  const HistogramSnapshot* h =
      global.FindHistogram("client.db.verify_read_latency_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, before + 1);
}

}  // namespace
}  // namespace spitz
