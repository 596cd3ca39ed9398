// Reproduces paper Figure 1: "Data storage improved by deduplication."
//
// Workload (section 1): "an immutable database stores 10 WIKI pages of
// 16 KB each initially. We create a new version when updating a page,
// while keeping the previous versions." Each update applies a localized
// edit; the naive storage keeps a full copy per version while the
// ForkBase-style storage deduplicates unchanged content-defined chunks.
//
// Output: storage in KB at 10..60 versions for both strategies (the two
// lines of Figure 1). Both ranks are checked (RankChecks, margins in
// EXPERIMENTS.md); the binary exits non-zero when one inverts.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "chunk/blob_store.h"
#include "chunk/chunk_store.h"
#include "common/random.h"

namespace spitz {
namespace {

constexpr int kPages = 10;
constexpr size_t kPageSize = 16 * 1024;
constexpr int kMaxVersions = 60;

// A localized edit: overwrite a small random region and insert a few
// bytes, as wiki edits do.
std::string EditPage(const std::string& page, Random* rng) {
  std::string edited = page;
  size_t offset = rng->Uniform(edited.size() - 200);
  std::string patch = rng->Bytes(rng->Range(20, 120));
  edited.replace(offset, patch.size(), patch);
  // Occasionally insert new content (pages grow over time).
  if (rng->OneIn(3)) {
    size_t pos = rng->Uniform(edited.size());
    edited.insert(pos, rng->Bytes(rng->Range(16, 64)));
  }
  return edited;
}

}  // namespace
}  // namespace spitz

int main() {
  using namespace spitz;

  Random rng(2020);
  ChunkStore chunks;
  BlobStore blobs(&chunks);

  std::vector<std::string> pages;
  uint64_t naive_bytes = 0;
  for (int p = 0; p < kPages; p++) {
    pages.push_back(rng.Bytes(kPageSize));
  }

  printf("Figure 1: data storage vs number of versions (10 pages x 16KB)\n");
  printf("%-12s  %20s  %20s\n", "#versions", "Storage (KB)",
         "Storage-ForkBase (KB)");

  // Version 1 = the initial pages.
  for (const std::string& page : pages) {
    blobs.Put(page);
    naive_bytes += page.size();
  }

  // Both lines at 10 versions, where the table starts.
  uint64_t naive_at_10 = 0, dedup_at_10 = 0;
  for (int version = 2; version <= kMaxVersions; version++) {
    // One page is updated per version step (a new snapshot of the
    // database is appended).
    int p = static_cast<int>(rng.Uniform(kPages));
    pages[p] = EditPage(pages[p], &rng);
    blobs.Put(pages[p]);
    naive_bytes += pages[p].size();

    if (version == 10) {
      naive_at_10 = naive_bytes;
      dedup_at_10 = chunks.stats().physical_bytes;
    }
    if (version % 10 == 0) {
      printf("%-12d  %20.1f  %20.1f\n", version,
             static_cast<double>(naive_bytes) / 1024.0,
             static_cast<double>(chunks.stats().physical_bytes) / 1024.0);
    }
  }

  printf(
      "\nshape: the deduplicated line grows far slower than the naive "
      "line; at 60 versions the gap is several-fold\n");
  const uint64_t dedup_bytes = chunks.stats().physical_bytes;
  bench::RankChecks ranks("versions");
  ranks.AtLeast("naive / dedup storage", kMaxVersions,
                static_cast<double>(naive_bytes),
                static_cast<double>(dedup_bytes), 2);
  ranks.AtLeast("naive / dedup growth since 10 versions", kMaxVersions,
                static_cast<double>(naive_bytes - naive_at_10),
                static_cast<double>(dedup_bytes - dedup_at_10), 2);
  return ranks.ExitCode();
}
