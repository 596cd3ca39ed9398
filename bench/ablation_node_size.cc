// Ablation A3 (DESIGN.md): POS-tree split-pattern sweep.
//
// The pattern width (DESIGN.md section 5 / PosTreeOptions) sets the
// expected node size: k pattern bits => ~2^k entries per node. Small
// nodes mean deep trees (more hops per query, longer proofs in node
// count); large nodes mean shallow trees but more bytes hashed per
// node on updates and verification. This sweep quantifies the tradeoff
// that the default (5 bits, ~32 entries) balances.
//
// Two sweeps: in memory (pure CPU/hashing cost) and on the paged
// file-backed store with a cache far smaller than the node set, where
// every extra tree level is an extra pread — the regime in which the
// paper claims the balance shifts toward larger nodes.

#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>

#include "bench/bench_util.h"
#include "chunk/buffer_cache.h"
#include "chunk/chunk_store.h"
#include "chunk/file_chunk_store.h"
#include "index/pos_tree.h"

namespace spitz {
namespace bench {
namespace {

constexpr size_t kRecords = 200000;
constexpr size_t kReadOps = 20000;
constexpr size_t kWriteOps = 3000;
constexpr size_t kProofOps = 3000;

// Measures one pattern width against `store`. `after_build` is the
// durability barrier for file-backed runs: it pushes the freshly built
// node set out of the cache's pinned set so reads actually page.
void RunOne(uint32_t bits, ChunkStore& store, BufferCache* node_cache,
            const std::function<void()>& after_build) {
  PosTreeOptions options;
  options.leaf_pattern_bits = bits;
  options.meta_pattern_bits = bits;
  PosTree tree(&store, options);
  if (node_cache != nullptr) tree.SetNodeCache(node_cache);
  std::vector<PosEntry> data = MakeRecords(kRecords);
  Hash256 root;
  if (!tree.Build(data, &root).ok()) abort();
  after_build();
  uint32_t height = 0;
  if (!tree.Height(root, &height).ok()) abort();

  Random rng(9);
  auto random_key = [&]() -> const std::string& {
    return data[rng.Uniform(data.size())].key;
  };

  std::string value;
  double get_kops = MeasureOpsPerSec(kReadOps, [&](size_t) {
    if (!tree.Get(root, random_key(), &value, nullptr).ok()) abort();
  }) / 1000.0;

  uint64_t chunks_before = store.stats().chunk_count;
  uint64_t bytes_before = store.stats().physical_bytes;
  Random value_rng(10);
  Hash256 w = root;
  double put_kops = MeasureOpsPerSec(kWriteOps, [&](size_t) {
    if (!tree.Put(w, random_key(), value_rng.Bytes(20), &w).ok()) abort();
  }) / 1000.0;
  double bytes_per_update =
      static_cast<double>(store.stats().physical_bytes - bytes_before) /
      kWriteOps;
  double chunks_per_update =
      static_cast<double>(store.stats().chunk_count - chunks_before) /
      kWriteOps;

  double total_proof_bytes = 0;
  double verify_kops = MeasureOpsPerSec(kProofOps, [&](size_t) {
    const std::string& key = random_key();
    PosProof proof;
    if (!tree.Get(w, key, &value, &proof).ok()) abort();
    total_proof_bytes += proof.ByteSize();
    if (!VerifyPosProof(w, key, value, proof).ok()) abort();
  }) / 1000.0;

  printf("%-6u  %-7u  %12.1f  %12.1f  %14.1f  %13.0f  %12.0f  %13.1f\n",
         bits, height, get_kops, put_kops, verify_kops,
         total_proof_bytes / kProofOps, bytes_per_update, chunks_per_update);
}

void PrintSweepHeader(const char* title) {
  printf("\n%s\n", title);
  printf("%-6s  %-7s  %12s  %12s  %14s  %13s  %12s  %13s\n", "bits",
         "height", "get Kops/s", "put Kops/s", "verify Kops/s",
         "proof bytes", "bytes/update", "chunks/update");
}

void Run() {
  printf("Ablation A3: POS-tree split-pattern sweep at %zu records\n",
         kRecords);
  PrintSweepHeader("in-memory chunk store");
  for (uint32_t bits : {3u, 4u, 5u, 6u, 7u, 8u}) {
    ChunkStore store;
    RunOne(bits, store, nullptr, [] {});
  }

  // File-backed: the same sweep through the paged store, with a buffer
  // cache an order of magnitude smaller than the node set so descents
  // pay for their depth in positional reads.
  const std::string dir =
      std::filesystem::temp_directory_path() / "spitz_a3_file";
  PrintSweepHeader("file-backed paged store (2 MiB unified cache)");
  for (uint32_t bits : {3u, 4u, 5u, 6u, 7u, 8u}) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    BufferCache cache(2 << 20);
    FileChunkStore::Options fopts;
    fopts.cache = &cache;
    std::unique_ptr<FileChunkStore> store;
    if (!FileChunkStore::Open(Env::Default(), dir, fopts, &store).ok()) {
      abort();
    }
    RunOne(bits, *store, &cache, [&] {
      if (!store->Sync().ok()) abort();
    });
  }
  std::filesystem::remove_all(dir);
  printf(
      "\nexpected: small nodes -> deep tree, fast updates, small write "
      "amplification but more hops; large nodes -> shallow tree, "
      "cheaper reads, larger per-update hashing and proofs. The default "
      "(5 bits) sits at the knee in memory; on the paged store every "
      "hop is a pread, which moves the read-side knee toward larger "
      "nodes.\n");
}

}  // namespace
}  // namespace bench
}  // namespace spitz

int main() {
  spitz::bench::Run();
  return 0;
}
