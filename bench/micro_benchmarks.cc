// Microbenchmarks (google-benchmark) for the primitive layers: the
// costs these report explain the system-level numbers of the figure
// benchmarks (e.g. SHA-256 throughput bounds every verified operation).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <malloc.h>
#include <map>
#include <memory>
#include <unordered_set>

#include "chunk/buffer_cache.h"
#include "chunk/chunk_store.h"
#include "chunk/chunker.h"
#include "chunk/file_chunk_store.h"
#include "chunk/segment_gc.h"
#include "cluster/local_fleet.h"
#include "bench/alloc_counter.h"
#include "common/crc32c.h"
#include "common/metrics.h"
#include "common/random.h"
#include "core/spitz_db.h"
#include "core/table.h"
#include "crypto/sha256.h"
#include "index/pos_tree.h"
#include "ledger/merkle_tree.h"
#include "spitzbench/workload_keys.h"
#include "txn/batch_verifier.h"

namespace spitz {
namespace {

void BM_Sha256(benchmark::State& state) {
  Random rng(1);
  std::string data = rng.Bytes(static_cast<size_t>(state.range(0)));
  uint8_t out[Sha256::kDigestSize];
  for (auto _ : state) {
    Sha256::Digest(data, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

// 13 KiB is the size of a typical point-proof reply frame, which is
// CRC'd on both ends of the connection.
void BM_Crc32c(benchmark::State& state) {
  Random rng(1);
  std::string data = rng.Bytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::Value(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(13 * 1024);

void BM_ContentDefinedChunking(benchmark::State& state) {
  Random rng(2);
  std::string data = rng.Bytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto extents = ChunkData(data);
    benchmark::DoNotOptimize(extents);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ContentDefinedChunking)->Arg(16384)->Arg(262144);

void BM_PosTreeGet(benchmark::State& state) {
  ChunkStore store;
  PosTree tree(&store);
  Random rng(3);
  std::vector<PosEntry> entries;
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; i++) {
    entries.push_back({"key" + std::to_string(i), rng.Bytes(20)});
  }
  Hash256 root;
  if (!tree.Build(entries, &root).ok()) abort();
  std::string value;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.Get(root, entries[i % entries.size()].key, &value, nullptr));
    i += 7919;
  }
}
BENCHMARK(BM_PosTreeGet)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_PosTreePut(benchmark::State& state) {
  ChunkStore store;
  PosTree tree(&store);
  Random rng(4);
  std::vector<PosEntry> entries;
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; i++) {
    entries.push_back({"key" + std::to_string(i), rng.Bytes(20)});
  }
  Hash256 root;
  if (!tree.Build(entries, &root).ok()) abort();
  size_t i = 0;
  for (auto _ : state) {
    if (!tree.Put(root, entries[i % entries.size()].key,
                  "updated" + std::to_string(i), &root)
             .ok()) {
      abort();
    }
    i++;
  }
}
BENCHMARK(BM_PosTreePut)->Arg(10000)->Arg(100000);

void BM_PosTreeVerifiedGet(benchmark::State& state) {
  ChunkStore store;
  PosTree tree(&store);
  Random rng(5);
  std::vector<PosEntry> entries;
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; i++) {
    entries.push_back({"key" + std::to_string(i), rng.Bytes(20)});
  }
  Hash256 root;
  if (!tree.Build(entries, &root).ok()) abort();
  std::string value;
  size_t i = 0;
  for (auto _ : state) {
    PosProof proof;
    const std::string& key = entries[i % entries.size()].key;
    if (!tree.Get(root, key, &value, &proof).ok()) abort();
    if (!PosTree::VerifyProof(root, key, value, proof).ok()) abort();
    i += 104729;
  }
}
BENCHMARK(BM_PosTreeVerifiedGet)->Arg(100000);

// A node-cache miss: a point read of a tree that is one 32-entry leaf
// (16 B keys, 100 B values), with the node cache cleared before every
// read, so each iteration fetches the chunk and decodes the leaf. The
// in-memory store serves the chunk, so no file read is timed; the
// clear is.
void BM_PosTreeLoadNodeMiss(benchmark::State& state) {
  ChunkStore store;
  PosTreeOptions options;
  options.leaf_pattern_bits = 30;  // no pattern boundary: one leaf
  PosTree tree(&store, options);
  BufferCache cache(/*capacity_bytes=*/1 << 20, /*shard_count=*/1);
  tree.SetNodeCache(&cache);
  Random rng(6);
  std::vector<PosEntry> entries;
  for (int i = 0; i < 32; i++) {
    char key[24];
    snprintf(key, sizeof(key), "user%012d", i);
    entries.push_back({key, rng.Bytes(100)});
  }
  Hash256 root;
  uint32_t height = 0;
  if (!tree.Build(entries, &root).ok() || !tree.Height(root, &height).ok() ||
      height != 1) {
    abort();
  }
  std::string value;
  size_t i = 0;
  for (auto _ : state) {
    cache.Clear();
    benchmark::DoNotOptimize(
        tree.Get(root, entries[i % entries.size()].key, &value, nullptr));
    i += 7;
  }
  if (cache.stats().kind[BufferCache::kPosNode].hits != 0) abort();
}
BENCHMARK(BM_PosTreeLoadNodeMiss);

// What a decoded, cached index node costs beyond its bytes: every node
// of a 200k-record tree (16 B keys, 100 B values) decoded from the
// in-memory store, which already holds the chunks, and cached under
// kPosNode as PosTree::LoadNode caches it. heap_bytes_per_node is the
// growth of glibc's in-use heap (mallinfo2, chunk headers included)
// per cached node: the decoded node, its offsets and its cache entry.
// payload_bytes_per_node is the mean serialized node beside it, and
// charge_bytes_per_node the mean cache charge (PosNode::ByteSize, which
// counts the chunk the node keeps alive).
void BM_NodeCacheBytesPerNode(benchmark::State& state) {
  constexpr uint64_t kKeys = 200000;
  ChunkStore store;
  PosTree tree(&store);
  Random rng(12);
  std::vector<PosEntry> entries;
  for (uint64_t i = 0; i < kKeys; i++) {
    entries.push_back({bench::RecordKey(i), rng.Bytes(100)});
  }
  Hash256 root;
  if (!tree.Build(std::move(entries), &root).ok()) abort();
  std::vector<Hash256> ids;
  {
    std::unordered_set<Hash256, Hash256Hasher> live;
    if (!tree.CollectChunks(root, &live).ok()) abort();
    ids.assign(live.begin(), live.end());
  }
  BufferCache cache(/*capacity_bytes=*/size_t{1} << 30);
  size_t heap_bytes = 0, payload_bytes = 0, charge_bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    cache.Clear();
    malloc_trim(0);
    const struct mallinfo2 before = mallinfo2();
    payload_bytes = 0;
    state.ResumeTiming();
    for (const Hash256& id : ids) {
      std::shared_ptr<const Chunk> chunk;
      std::shared_ptr<const PosNode> node;
      if (!store.Get(id, &chunk).ok() ||
          !PosNode::Decode(std::move(chunk), &node).ok()) {
        abort();
      }
      payload_bytes += node->payload().size();
      const size_t charge = node->ByteSize();
      cache.Insert(BufferCache::kPosNode, id, std::move(node), charge);
    }
    state.PauseTiming();
    const struct mallinfo2 after = mallinfo2();
    heap_bytes = (after.uordblks + after.hblkhd) -
                 (before.uordblks + before.hblkhd);
    charge_bytes = cache.stats().kind[BufferCache::kPosNode].bytes;
    if (cache.stats().kind[BufferCache::kPosNode].entries != ids.size()) {
      abort();
    }
    state.ResumeTiming();
  }
  const double nodes = static_cast<double>(ids.size());
  state.counters["nodes"] = nodes;
  state.counters["heap_bytes_per_node"] =
      static_cast<double>(heap_bytes) / nodes;
  state.counters["payload_bytes_per_node"] =
      static_cast<double>(payload_bytes) / nodes;
  state.counters["charge_bytes_per_node"] =
      static_cast<double>(charge_bytes) / nodes;
}
BENCHMARK(BM_NodeCacheBytesPerNode)
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond);

// What the paged store's resident index costs per chunk: 135k chunks of
// 256 B put across six stores (the three primaries and three backups
// of a three-shard replicated fleet) and synced. heap_bytes_per_entry
// is the growth of glibc's in-use heap (mallinfo2, chunk headers
// included) per location, counting the bucket arrays the stores' maps
// of unflushed chunks keep once emptied (~2 B a chunk here);
// index_bytes_per_entry is what chunk.file.index_bytes counts.
void BM_ChunkIndexBytesPerChunk(benchmark::State& state) {
  constexpr size_t kStores = 6;
  constexpr size_t kEntries = 135000;
  const std::string dir =
      (std::filesystem::temp_directory_path() / "spitz_bench_chunk_index")
          .string();
  size_t heap_bytes = 0, index_bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::vector<std::unique_ptr<FileChunkStore>> stores(kStores);
    for (size_t i = 0; i < kStores; i++) {
      if (!FileChunkStore::Open(dir + "/" + std::to_string(i), &stores[i])
               .ok()) {
        abort();
      }
    }
    Random rng(13);
    malloc_trim(0);
    const struct mallinfo2 before = mallinfo2();
    state.ResumeTiming();
    for (size_t i = 0; i < kEntries; i++) {
      stores[i % kStores]->Put(Chunk(ChunkType::kIndexLeaf, rng.Bytes(256)));
    }
    for (const auto& store : stores) {
      if (!store->Sync().ok()) abort();
    }
    state.PauseTiming();
    const struct mallinfo2 after = mallinfo2();
    heap_bytes = (after.uordblks + after.hblkhd) -
                 (before.uordblks + before.hblkhd);
    index_bytes = 0;
    for (const auto& store : stores) {
      MetricsRegistry registry;
      store->ExportMetrics(&registry);
      index_bytes += registry.Snapshot().GaugeValue("chunk.file.index_bytes");
    }
    stores.clear();
    std::filesystem::remove_all(dir);
    state.ResumeTiming();
  }
  state.counters["entries"] = static_cast<double>(kEntries);
  state.counters["heap_bytes_per_entry"] =
      static_cast<double>(heap_bytes) / kEntries;
  state.counters["index_bytes_per_entry"] =
      static_cast<double>(index_bytes) / kEntries;
}
BENCHMARK(BM_ChunkIndexBytesPerChunk)
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond);

// Verified reads through the full database stack, with the unified
// buffer cache sized generously (arg1 = cache bytes; the small setting
// is a thrash ablation — zero is rejected since the paged store pins
// unflushed chunks in the cache). Reports the pipeline counters new
// BENCH_*.json files track: node-cache hit rate and the deferred
// verifier's queue depth/backlog.
void BM_SpitzDbVerifiedGet(benchmark::State& state) {
  SpitzOptions options;
  options.buffer_cache_bytes = static_cast<size_t>(state.range(1));
  SpitzDb db(options);
  Random rng(11);
  const int n = static_cast<int>(state.range(0));
  std::vector<PosEntry> entries;
  for (int i = 0; i < n; i++) {
    entries.push_back({"key" + std::to_string(i), rng.Bytes(20)});
  }
  if (!db.BulkLoad(entries).ok()) abort();
  SpitzDigest digest = db.Digest();
  MetricsSnapshot before = db.Metrics();
  std::string value;
  size_t i = 0;
  for (auto _ : state) {
    ReadProof proof;
    const std::string& key = entries[i % entries.size()].key;
    if (!db.Read(kCurrentVersion, key, &value, &proof).ok()) abort();
    if (!SpitzDb::VerifyRead(digest, key, value, proof).ok()) abort();
    // Every read is also audited in the background — keeps a realistic
    // deferred-verification load on the pipeline.
    if (!db.auditor()->AuditKey(key).ok()) abort();
    i += 104729;
  }
  MetricsSnapshot snap = db.Metrics();
  state.counters["verifier_queue_depth"] =
      static_cast<double>(snap.GaugeValue("txn.verifier.queue_depth"));
  state.counters["verifier_workers"] =
      static_cast<double>(snap.GaugeValue("txn.verifier.workers"));
  if (!db.auditor()->Drain().ok()) abort();
  snap = db.Metrics();
  uint64_t hits = snap.CounterValue("index.cache.hits") -
                  before.CounterValue("index.cache.hits");
  uint64_t lookups = hits + snap.CounterValue("index.cache.misses") -
                     before.CounterValue("index.cache.misses");
  state.counters["node_cache_hit_rate"] =
      lookups == 0
          ? 0.0
          : static_cast<double>(hits) / static_cast<double>(lookups);
  state.counters["node_cache_bytes"] =
      static_cast<double>(snap.GaugeValue("index.cache.bytes"));
}
BENCHMARK(BM_SpitzDbVerifiedGet)
    ->Args({100000, 32 << 20})
    ->Args({100000, 64 << 10});

// Write path with the metrics registry on (arg = 1) vs. off (arg = 0).
// Comparing the two rates bounds the instrumentation overhead on the
// hottest path — the registry's design target is < 5%.
void BM_SpitzDbPut(benchmark::State& state) {
  SpitzOptions options;
  options.enable_metrics = state.range(0) != 0;
  options.block_size = 64;
  SpitzDb db(options);
  Random rng(13);
  std::vector<std::string> values;
  for (int i = 0; i < 64; i++) values.push_back(rng.Bytes(20));
  size_t i = 0;
  for (auto _ : state) {
    if (!db.Put("key" + std::to_string(i % 100000), values[i % values.size()])
             .ok()) {
      abort();
    }
    i++;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetLabel(options.enable_metrics ? "metrics_on" : "metrics_off");
}
BENCHMARK(BM_SpitzDbPut)->Arg(1)->Arg(0);

// Provenance lookups: KeyHistory (every sealed write of one key, each
// with its journal inclusion proof) for random keys of a bulk-loaded
// database (arg = keys, one write each, 64 per block). Reports the
// key-history index's resident bytes per indexed write.
void RunKeyHistory(benchmark::State& state, SpitzDb* db) {
  Random rng(17);
  const int n = static_cast<int>(state.range(0));
  std::vector<std::string> keys;
  std::vector<PosEntry> entries;
  for (int i = 0; i < n; i++) {
    keys.push_back("key" + std::to_string(i));
    entries.push_back({keys.back(), rng.Bytes(20)});
  }
  if (!db->BulkLoad(std::move(entries)).ok()) abort();
  if (!db->FlushBlock().ok()) abort();
  if (!db->SyncStorage().ok()) abort();
  std::vector<SpitzDb::HistoricalWrite> history;
  for (auto _ : state) {
    const std::string& key = keys[rng.Uniform(keys.size())];
    if (!db->ledger()->KeyHistory(key, &history).ok()) {
      abort();
    }
    benchmark::DoNotOptimize(history.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  MetricsSnapshot snap = db->Metrics();
  const uint64_t writes = snap.GaugeValue("core.db.history.writes");
  state.counters["history_bytes_per_write"] =
      writes == 0 ? 0.0
                  : static_cast<double>(
                        snap.GaugeValue("core.db.history.bytes")) /
                        static_cast<double>(writes);
}

// In memory: every sealed block stays resident.
void BM_SpitzDbKeyHistory(benchmark::State& state) {
  SpitzDb db;
  RunKeyHistory(state, &db);
}
BENCHMARK(BM_SpitzDbKeyHistory)->Arg(200000);

// Durable and synced: every block is read back from journal.log (one
// pread, frame CRC and block-hash check per lookup).
void BM_SpitzDbKeyHistoryPaged(benchmark::State& state) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "spitz_bench_key_history")
          .string();
  std::filesystem::remove_all(dir);
  {
    SpitzOptions options;
    options.data_dir = dir;
    std::unique_ptr<SpitzDb> db;
    if (!SpitzDb::Open(options, &db).ok()) abort();
    RunKeyHistory(state, db.get());
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_SpitzDbKeyHistoryPaged)->Arg(200000);

// `n` records of `value_bytes` each, in key order; the values are
// distinct windows of one random pool, which is quick to make.
std::vector<PosEntry> LoadEntries(size_t n, size_t value_bytes) {
  Random rng(29);
  const std::string pool = rng.Bytes(2 * value_bytes);
  std::vector<PosEntry> entries(n);
  for (size_t i = 0; i < n; i++) {
    char key[24];
    snprintf(key, sizeof(key), "user%012zu", i);
    entries[i].key = key;
    entries[i].value = pool.substr(i % value_bytes, value_bytes);
  }
  return entries;
}

std::string BenchDir(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// Bytes a durable store appends per overwrite: a FileChunkStore under a
// 66.7k-key tree (16 B keys, 100 B values; one cluster-rmw shard), each
// overwrite's key from `next_key`. Each overwrite path-copies a leaf and
// its metas, which the store writes as delta records on the nodes they
// replace where that is shorter, and at the chain cap as deltas on the
// chain's full record (see file_chunk_store.h).
void OverwriteAppendedBytes(benchmark::State& state, const char* name,
                            const std::function<uint64_t(Random*)>& next_key) {
  constexpr uint64_t kKeys = 66667;
  const std::string dir = BenchDir(name);
  std::filesystem::remove_all(dir);
  {
    std::unique_ptr<FileChunkStore> store;
    if (!FileChunkStore::Open(dir, &store).ok()) abort();
    PosTree tree(store.get());
    BufferCache node_cache(64 << 20);
    tree.SetNodeCache(&node_cache);
    Random rng(8);
    std::vector<PosEntry> entries;
    for (uint64_t i = 0; i < kKeys; i++) {
      entries.push_back({bench::RecordKey(i), rng.Bytes(100)});
    }
    Hash256 root;
    if (!tree.Build(std::move(entries), &root).ok()) abort();
    MetricsRegistry registry;
    store->ExportMetrics(&registry);
    const MetricsSnapshot before = registry.Snapshot();
    for (auto _ : state) {
      if (!tree.Put(root, bench::RecordKey(next_key(&rng)), rng.Bytes(100),
                    &root)
               .ok()) {
        abort();
      }
    }
    const MetricsSnapshot after = registry.Snapshot();
    const auto delta = [&](const char* counter) {
      return static_cast<double>(after.CounterValue(counter) -
                                 before.CounterValue(counter));
    };
    const double n = static_cast<double>(state.iterations());
    state.counters["appended_bytes_per_overwrite"] =
        delta("chunk.file.appended_bytes") / n;
    state.counters["full_bytes_per_overwrite"] =
        (delta("chunk.file.appended_bytes") - delta("chunk.file.delta_bytes")) /
        n;
    state.counters["delta_records_per_overwrite"] =
        delta("chunk.file.delta_records") / n;
    state.counters["rebases_per_overwrite"] =
        delta("chunk.file.delta_rebases") / n;
    state.counters["records_per_overwrite"] = delta("chunk.store.puts") / n;
  }
  std::filesystem::remove_all(dir);
}

// Scrambled zipfian (theta 0.99) overwrites.
void BM_PosTreeOverwriteAppendedBytes(benchmark::State& state) {
  const bench::KeyChooser keys(66667, /*zipfian=*/true);
  OverwriteAppendedBytes(state, "spitz_bench_overwrite_bytes",
                         [&](Random* rng) { return keys.Next(rng); });
}
BENCHMARK(BM_PosTreeOverwriteAppendedBytes)->Iterations(4000);

// Every overwrite on one key, so the leaf and the metas above it are
// path-copied every time and their chains reach
// FileChunkStore::kMaxChainDepth.
void BM_FileChunkStoreHotOverwriteBytes(benchmark::State& state) {
  OverwriteAppendedBytes(state, "spitz_bench_hot_overwrite_bytes",
                         [](Random*) { return uint64_t{66667 / 2}; });
}
BENCHMARK(BM_FileChunkStoreHotOverwriteBytes)->Iterations(1000);

// A cache-miss Get of a chunk stored at delta-chain depth arg (0 = a
// full record): one positional read of its record plus one per base
// below it, then the rebuild and one SHA-256 of the ~7 KB result. The
// read-side price of FileChunkStore::kMaxChainDepth.
void BM_FileChunkStoreMissAtDepth(benchmark::State& state) {
  const std::string dir = BenchDir("spitz_bench_miss_at_depth");
  std::filesystem::remove_all(dir);
  {
    BufferCache cache(1 << 20);
    FileChunkStore::Options options;
    options.cache = &cache;
    std::unique_ptr<FileChunkStore> store;
    if (!FileChunkStore::Open(Env::Default(), dir, options, &store).ok()) {
      abort();
    }
    Random rng(9);
    Chunk chunk(ChunkType::kIndexLeaf, rng.Bytes(7000));
    store->Put(chunk);
    for (int64_t d = 0; d < state.range(0); d++) {
      std::string payload = chunk.payload();
      payload.replace(rng.Uniform(payload.size() - 100), 100, rng.Bytes(100));
      Chunk next(ChunkType::kIndexLeaf, std::move(payload));
      store->Put(next, &chunk);
      chunk = std::move(next);
    }
    if (!store->Sync().ok()) abort();
    cache.Clear();  // the appends cached every chunk of the chain
    MetricsRegistry registry;
    store->ExportMetrics(&registry);
    const uint64_t before =
        registry.Snapshot().CounterValue("chunk.file.chain_reads");
    std::shared_ptr<const Chunk> read;
    for (auto _ : state) {
      cache.Erase(chunk.id());
      if (!store->Get(chunk.id(), &read).ok()) abort();
      benchmark::DoNotOptimize(read.get());
    }
    state.counters["chain_reads_per_get"] =
        static_cast<double>(
            registry.Snapshot().CounterValue("chunk.file.chain_reads") -
            before) /
        static_cast<double>(state.iterations());
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_FileChunkStoreMissAtDepth)->Arg(0)->Arg(4)->Arg(8);

// One version-GC mark (PosTree::CollectChunks, the walk VersionGc runs
// over each retained root) of a durable 200k-record tree (16 B keys,
// 100 B values) from a cold cache: the mark's time, and the positional
// reads it issues (chunk_reads_per_mark) for the live_chunks it finds.
void BM_VersionGcMark(benchmark::State& state) {
  constexpr uint64_t kKeys = 200000;
  const std::string dir = BenchDir("spitz_bench_gc_mark");
  std::filesystem::remove_all(dir);
  {
    BufferCache cache(64 << 20);
    FileChunkStore::Options options;
    options.cache = &cache;
    std::unique_ptr<FileChunkStore> store;
    if (!FileChunkStore::Open(Env::Default(), dir, options, &store).ok()) {
      abort();
    }
    PosTree tree(store.get());
    tree.SetNodeCache(&cache);
    Random rng(10);
    std::vector<PosEntry> entries;
    for (uint64_t i = 0; i < kKeys; i++) {
      entries.push_back({bench::RecordKey(i), rng.Bytes(100)});
    }
    Hash256 root;
    if (!tree.Build(std::move(entries), &root).ok()) abort();
    if (!store->Sync().ok()) abort();
    MetricsRegistry registry;
    store->ExportMetrics(&registry);
    const uint64_t before = registry.Snapshot().CounterValue("chunk.file.reads");
    size_t live_chunks = 0;
    for (auto _ : state) {
      state.PauseTiming();
      cache.Clear();
      std::unordered_set<Hash256, Hash256Hasher> live;
      state.ResumeTiming();
      if (!tree.CollectChunks(root, &live).ok()) abort();
      live_chunks = live.size();
      benchmark::DoNotOptimize(live_chunks);
    }
    state.counters["chunk_reads_per_mark"] =
        static_cast<double>(registry.Snapshot().CounterValue("chunk.file.reads") -
                            before) /
        static_cast<double>(state.iterations());
    state.counters["live_chunks"] = static_cast<double>(live_chunks);
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_VersionGcMark)->Unit(benchmark::kMillisecond);

// One GC plan (PlanSegmentGc, chunk/segment_gc.h) over a snapshot of
// arg0 location records, with no disk: records spread over segments of
// ~1 000, a third of them deltas on an earlier record (chains up to
// kMaxChainDepth), and a quarter of the records in the older half of
// the segments dead, so half the segments are victims and the deltas
// outside them on a dead base are flattened.
void BM_SegmentGcPlan(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const uint32_t segments = static_cast<uint32_t>(n / 1000);
  Random rng(29);
  std::vector<GcRow> rows(n);
  std::vector<uint32_t> ends(segments + 1, 0);
  for (size_t i = 0; i < n; i++) {
    GcRow& row = rows[i];
    row.ref = static_cast<uint32_t>(i);
    row.segment = static_cast<uint32_t>(1 + rng.Uniform(segments));
    row.offset = ends[row.segment];
    ends[row.segment] += 256;
    if (i > 0 && rng.OneIn(3)) {
      const GcRow& base = rows[rng.Uniform(i)];
      if (base.depth < FileChunkStore::kMaxChainDepth) {
        row.base = base.ref;
        row.depth = static_cast<uint8_t>(base.depth + 1);
      }
    }
    row.dead = row.segment <= segments / 2 && rng.OneIn(4);
  }
  GcPlan plan;
  for (auto _ : state) {
    plan = PlanSegmentGc(rows, {}, segments + 1);
    benchmark::DoNotOptimize(plan.rewrites.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
  state.counters["victims"] = static_cast<double>(plan.victims.size());
  state.counters["rewrites"] = static_cast<double>(plan.rewrites.size());
  state.counters["flattened_segments"] =
      static_cast<double>(plan.condemned.size());
  state.counters["dead"] = static_cast<double>(plan.dead.size());
}
BENCHMARK(BM_SegmentGcPlan)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

// journal.log's size (core.db.journal.file_bytes, header included) per
// ledger entry it holds.
double JournalBytesPerEntry(const SpitzDb& db, uint64_t entries) {
  return static_cast<double>(
             db.Metrics().GaugeValue("core.db.journal.file_bytes")) /
         static_cast<double>(entries);
}

// A durable bulk load into a fresh data directory, as a spitzbench
// set-up does it (arg0 = records, arg1 = value bytes): BulkLoad, the
// tail block sealed and both files synced. Reports one load's time and
// journal_bytes_per_entry; making the records and opening the empty
// database are not timed.
void BM_SpitzDbBulkLoad(benchmark::State& state) {
  const std::string dir = BenchDir("spitz_bench_bulk_load");
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(dir);
    std::vector<PosEntry> entries =
        LoadEntries(static_cast<size_t>(state.range(0)),
                    static_cast<size_t>(state.range(1)));
    SpitzOptions options;
    options.data_dir = dir;
    std::unique_ptr<SpitzDb> db;
    if (!SpitzDb::Open(options, &db).ok()) abort();
    state.ResumeTiming();
    if (!db->BulkLoad(std::move(entries)).ok() || !db->FlushBlock().ok() ||
        !db->SyncStorage().ok()) {
      abort();
    }
    state.PauseTiming();
    state.counters["journal_bytes_per_entry"] = JournalBytesPerEntry(
        *db, static_cast<uint64_t>(state.range(0)));
    db.reset();
    state.ResumeTiming();
  }
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SpitzDbBulkLoad)
    ->Args({200000, 100})
    ->Args({200000, 512})
    ->Unit(benchmark::kMillisecond);

// Recovery: SpitzDb::Open of a data directory holding a durable bulk
// load (arg = records of 100 B), which replays every chunk segment and
// the journal, recomputing every chunk id and block hash; reports
// journal_bytes_per_entry of the recovered journal. Closing is not
// timed.
void BM_SpitzDbReopen(benchmark::State& state) {
  const std::string dir = BenchDir("spitz_bench_reopen");
  std::filesystem::remove_all(dir);
  SpitzOptions options;
  options.data_dir = dir;
  {
    std::unique_ptr<SpitzDb> db;
    if (!SpitzDb::Open(options, &db).ok() ||
        !db->BulkLoad(LoadEntries(static_cast<size_t>(state.range(0)), 100))
             .ok() ||
        !db->FlushBlock().ok() || !db->SyncStorage().ok()) {
      abort();
    }
  }
  for (auto _ : state) {
    std::unique_ptr<SpitzDb> db;
    if (!SpitzDb::Open(options, &db).ok()) abort();
    state.PauseTiming();
    state.counters["journal_bytes_per_entry"] = JournalBytesPerEntry(
        *db, static_cast<uint64_t>(state.range(0)));
    db.reset();
    state.ResumeTiming();
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_SpitzDbReopen)->Arg(200000)->Unit(benchmark::kMillisecond);

// Durable Puts with WriteOptions::sync from 1 and 8 threads on one fresh
// durable database: the write pipeline end to end — group formation,
// seal, journal append and the chunk + journal barrier. Reports journal
// fsyncs per put (core.db.journal.fsyncs), which group commit keeps
// below 1 once writers overlap.
void BM_SpitzDbSyncPut(benchmark::State& state) {
  static std::unique_ptr<SpitzDb> db;
  const std::string dir = BenchDir("spitz_bench_sync_put");
  if (state.thread_index() == 0) {
    std::filesystem::remove_all(dir);
    SpitzOptions options;
    options.data_dir = dir;
    if (!SpitzDb::Open(options, &db).ok()) abort();
  }
  WriteOptions sync;
  sync.sync = true;
  const std::string prefix = "t" + std::to_string(state.thread_index()) + "-";
  const std::string value(100, 'v');
  uint64_t i = 0;
  for (auto _ : state) {
    if (!db->Put(sync, prefix + std::to_string(i++ % 1000), value).ok()) {
      abort();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  if (state.thread_index() == 0) {
    // Past the loop's closing barrier every thread's puts have returned,
    // each timed in core.db.write_latency_ns.
    const MetricsSnapshot snap = db->Metrics();
    const HistogramSnapshot* writes =
        snap.FindHistogram("core.db.write_latency_ns");
    state.counters["fsyncs_per_put"] =
        static_cast<double>(snap.CounterValue("core.db.journal.fsyncs")) /
        static_cast<double>(std::max<uint64_t>(writes->count, 1));
    db.reset();
    std::filesystem::remove_all(dir);
  }
}
BENCHMARK(BM_SpitzDbSyncPut)->Threads(1)->Threads(8)->UseRealTime();

// One served in-memory node and a client connected to it.
struct ServedNode {
  std::unique_ptr<LocalFleet> fleet;
  std::unique_ptr<SpitzClient> client;

  ServedNode() {
    if (!LocalFleet::Open(LocalFleet::Options(), &fleet).ok() ||
        !SpitzClient::Open(fleet->ClientOptions(0), &client).ok()) {
      abort();
    }
  }
};

// The hand-off floor of a round trip: a kDigest call, whose request is
// empty and whose reply is ~110 bytes, so the time is the network hop
// and its thread wake-ups rather than bytes or work.
void BM_DigestRoundTrip(benchmark::State& state) {
  ServedNode node;
  SpitzDigest digest;
  for (auto _ : state) {
    if (!node.client->Digest(&digest).ok()) abort();
  }
}
BENCHMARK(BM_DigestRoundTrip)->UseRealTime();

// A verified get over the wire (arg = records of 100 B): the server
// builds and encodes the proof, the client decodes and verifies it.
// Reports the bytes allocated per operation, server and client
// together.
void BM_VerifiedGetRoundTrip(benchmark::State& state) {
  ServedNode node;
  const size_t n = static_cast<size_t>(state.range(0));
  if (!node.fleet->db(0)->BulkLoad(LoadEntries(n, 100)).ok()) abort();
  std::vector<std::string> keys(n);
  for (size_t i = 0; i < n; i++) {
    char key[24];
    snprintf(key, sizeof(key), "user%012zu", i);
    keys[i] = key;
  }
  std::string value;
  size_t i = 0;
  const uint64_t allocated = alloc_counter::BytesAllocatedBy([&] {
    for (auto _ : state) {
      if (!node.client->VerifiedGet(keys[i % n], &value).ok()) abort();
      i += 104729;
    }
  });
  if (alloc_counter::kEnabled) {
    state.counters["bytes_allocated_per_op"] =
        static_cast<double>(allocated) / state.iterations();
  }
}
BENCHMARK(BM_VerifiedGetRoundTrip)->Arg(200000)->UseRealTime();

// Drain rate of the deferred-verification worker pool on a CPU-bound
// check, reporting the backlog the producer saw (arg = workers).
void BM_DeferredVerifierDrain(benchmark::State& state) {
  const size_t workers = static_cast<size_t>(state.range(0));
  Random rng(12);
  std::string data = rng.Bytes(1024);
  for (auto _ : state) {
    state.PauseTiming();
    DeferredVerifier verifier(DeferredVerifier::Options(64, workers));
    state.ResumeTiming();
    for (int i = 0; i < 4096; i++) {
      verifier.Submit([&data] {
        uint8_t out[Sha256::kDigestSize];
        Sha256::Digest(data, out);
        benchmark::DoNotOptimize(out);
        return Status::OK();
      });
    }
    state.counters["verifier_queue_depth"] =
        static_cast<double>(verifier.queue_depth());
    verifier.Flush();
    if (verifier.verified_count() != 4096) abort();
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_DeferredVerifierDrain)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// The table layer's write and verified row read (paper section 5): a
// three-column table of 1000 rows on an in-memory database.
TableSchema BenchTableSchema() {
  TableSchema schema;
  schema.name = "bench";
  schema.primary_key_column = "id";
  schema.columns = {{"id", ColumnSpec::Type::kString, false},
                    {"owner", ColumnSpec::Type::kString, true},
                    {"balance", ColumnSpec::Type::kNumeric, true}};
  return schema;
}

std::string BenchRowKey(size_t i) {
  char pk[16];
  snprintf(pk, sizeof(pk), "r%06zu", i % 1000);
  return pk;
}

void FillBenchTable(Table* table) {
  for (size_t i = 0; i < 1000; i++) {
    if (!table
             ->Upsert({{"id", BenchRowKey(i)},
                       {"owner", "owner" + std::to_string(i % 7)},
                       {"balance", std::to_string(i)}})
             .ok()) {
      abort();
    }
  }
}

void BM_TableUpsert(benchmark::State& state) {
  SpitzDb db;
  Table table(&db, BenchTableSchema(), 1);
  FillBenchTable(&table);
  size_t i = 0;
  for (auto _ : state) {
    if (!table
             .Upsert({{"id", BenchRowKey(i)},
                      {"balance", std::to_string(i)}})
             .ok()) {
      abort();
    }
    i += 7919;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TableUpsert);

void BM_TableGetRowVerified(benchmark::State& state) {
  SpitzDb db;
  Table table(&db, BenchTableSchema(), 1);
  FillBenchTable(&table);
  size_t i = 0;
  for (auto _ : state) {
    Row row;
    if (!table.GetRowVerified(BenchRowKey(i), &row).ok()) abort();
    benchmark::DoNotOptimize(row);
    i += 7919;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TableGetRowVerified);

void BM_MerkleInclusionProof(benchmark::State& state) {
  MerkleTree tree;
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; i++) {
    tree.AppendLeafHash(Hash256::OfLeaf("leaf" + std::to_string(i)));
  }
  Hash256 root = tree.Root();
  size_t i = 0;
  for (auto _ : state) {
    MerkleInclusionProof proof;
    if (!tree.InclusionProof(i % n, &proof).ok()) abort();
    if (!MerkleTree::VerifyInclusion(
            Hash256::OfLeaf("leaf" + std::to_string(i % n)), proof, root)) {
      abort();
    }
    i += 7919;
  }
}
BENCHMARK(BM_MerkleInclusionProof)->Arg(4096)->Arg(1048576);

// The paged store's delta counters (chunk.file.delta_records,
// delta_bytes and chain_reads), summed over two sessions of a durable
// database: one whose overwrites append delta records, then one, with a
// cache smaller than its data, whose reads rebuild them from their
// bases.
std::map<std::string, uint64_t> DurableStoreDeltaCounters() {
  const std::string dir = BenchDir("spitz_bench_metrics_smoke");
  std::filesystem::remove_all(dir);
  SpitzOptions options;
  options.data_dir = dir;
  options.buffer_cache_bytes = 4 << 10;
  std::map<std::string, uint64_t> counters;
  for (int reopen = 0; reopen < 2; reopen++) {
    std::unique_ptr<SpitzDb> db;
    if (!SpitzDb::Open(options, &db).ok()) abort();
    std::string value;
    for (int i = 0; i < 60; i++) {
      const std::string key = "k" + std::to_string(i % 32);
      if (reopen == 0) {
        if (!db->Put(key, std::string(100, static_cast<char>('a' + i % 26)))
                 .ok()) {
          abort();
        }
      } else if (!db->Get(key, &value).ok()) {
        abort();
      }
    }
    if (!db->FlushBlock().ok() || !db->SyncStorage().ok()) abort();
    const MetricsSnapshot snap = db->Metrics();
    for (const char* name : {"chunk.file.delta_records",
                             "chunk.file.delta_bytes",
                             "chunk.file.chain_reads"}) {
      counters[name] += snap.CounterValue(name);
    }
  }
  std::filesystem::remove_all(dir);
  return counters;
}

// Runs a small but complete workload (writes, sealed blocks, reads,
// proofs, scans, audits, client-side verification) and prints the
// resulting MetricsSnapshot JSON between marker lines — the artifact
// ci/check.sh's metrics smoke leg parses and validates. Also written to
// $SPITZ_METRICS_OUT when set.
void EmitMetricsSnapshot() {
  SpitzOptions options;
  options.block_size = 16;
  options.audit_batch_size = 8;
  options.audit_workers = 2;
  SpitzDb db(options);
  Random rng(17);
  for (int i = 0; i < 256; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%06d", i);
    if (!db.Put(key, rng.Bytes(20)).ok()) abort();
    if (!db.auditor()->AuditKey(key).ok()) abort();
  }
  SpitzDigest digest = db.Digest();
  std::string value;
  for (int i = 0; i < 256; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%06d", i);
    ReadProof proof;
    if (!db.Get(key, &value).ok()) abort();
    if (!db.Read(kCurrentVersion, key, &value, &proof).ok()) abort();
    if (!SpitzDb::VerifyRead(digest, key, value, proof).ok()) abort();
  }
  std::vector<PosEntry> rows;
  ScanProof scan_proof;
  if (!db.ReadRange(kCurrentVersion, "k000010", "k000200", 0, &rows,
                    &scan_proof)
           .ok()) {
    abort();
  }
  if (!SpitzDb::VerifyScan(digest, "k000010", "k000200", 0, rows, scan_proof)
           .ok()) {
    abort();
  }
  if (!db.auditor()->Drain().ok()) abort();

  MetricsSnapshot snap = db.Metrics();
  // Client-side verification latencies live in the process-wide
  // registry; one merged snapshot tells the whole story.
  snap.MergeFrom(MetricsRegistry::Global()->Snapshot());
  for (const auto& [name, value] : DurableStoreDeltaCounters()) {
    snap.counters[name] = value;
  }
  std::string json = snap.ToJsonString();
  printf("METRICS_SNAPSHOT_BEGIN\n%s\nMETRICS_SNAPSHOT_END\n", json.c_str());
  if (const char* path = getenv("SPITZ_METRICS_OUT")) {
    FILE* f = fopen(path, "w");
    if (f == nullptr) abort();
    fwrite(json.data(), 1, json.size(), f);
    fputc('\n', f);
    fclose(f);
  }
}

}  // namespace
}  // namespace spitz

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  spitz::EmitMetricsSnapshot();
  return 0;
}
