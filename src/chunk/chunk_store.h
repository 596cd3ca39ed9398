#ifndef SPITZ_CHUNK_CHUNK_STORE_H_
#define SPITZ_CHUNK_CHUNK_STORE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "chunk/chunk.h"
#include "chunk/epoch.h"
#include "common/metrics.h"
#include "common/status.h"
#include "crypto/hash.h"

namespace spitz {

// Storage accounting counters exposed by the chunk store. physical_bytes
// grows only when a previously unseen chunk is inserted, so the gap
// between logical_bytes and physical_bytes is exactly the space saved by
// content-based deduplication (the effect shown in paper Fig. 1).
// chunk_count and physical_bytes shrink again when the version GC
// (RetainLive) collects chunks unreachable from the retained roots.
//
// The component-level API: tests and benches that drive a bare
// ChunkStore (no owning database, so no registry) read it here. Code
// holding a SpitzDb reads the same numbers as chunk.store.* metrics.
struct ChunkStoreStats {
  uint64_t puts = 0;           // total Put calls
  uint64_t dedup_hits = 0;     // Puts that found an existing chunk
  uint64_t chunk_count = 0;    // distinct chunks stored
  uint64_t physical_bytes = 0; // bytes actually stored
  uint64_t logical_bytes = 0;  // bytes offered across all Puts
};

// The result of one RetainLive (GC) pass.
struct ChunkGcStats {
  uint64_t live_chunks = 0;       // chunks in the survivor set
  uint64_t dead_chunks = 0;       // chunks removed
  uint64_t reclaimed_bytes = 0;   // stored bytes freed (memory or disk)
  uint64_t rewritten_bytes = 0;   // live bytes copied to fresh segments
  uint64_t segments_deleted = 0;  // victim segment files unlinked
};

// A content-addressed store for immutable chunks. This is the bottom of
// the storage layer: SIRI index nodes, cell values, blob segments and
// ledger blocks all live here. Thread-safe; the map is sharded by chunk
// id so that background auditors and concurrent readers do not serialize
// against the write path. The base class is the in-memory store;
// FileChunkStore (file_chunk_store.h) is the paged, durable store whose
// resident index holds only chunk locations.
class ChunkStore {
 public:
  ChunkStore() = default;
  virtual ~ChunkStore() = default;

  ChunkStore(const ChunkStore&) = delete;
  ChunkStore& operator=(const ChunkStore&) = delete;

  // Stores the chunk (no-op if an identical chunk exists) and returns its
  // content id. A non-null `base` is a stored chunk this one replaces
  // (the node a write rewrites), held by the caller for the call. A
  // durable store may then record the new chunk as a patch on it, and
  // caches the new chunk, which the next operation reads, until a later
  // write replaces it and that write's block leaves the retain_versions
  // window (SpitzDb then erases it) or budget pressure evicts it; a
  // chunk put with no base (a bulk build's, a blob's) is not cached.
  // The in-memory store ignores it.
  virtual Hash256 Put(Chunk chunk, const Chunk* base = nullptr);

  // Looks up a chunk by id. The returned shared_ptr is the caller's
  // hold on the bytes: keep it for as long as the chunk is in use. A
  // chunk can disappear from the *store* once the version GC
  // (RetainLive) proves it unreachable from every retained root — a
  // held shared_ptr stays valid through that, but re-Getting the same
  // id later may return NotFound. Callers that traverse many chunks
  // (proof builds, scans, auditors) additionally bracket the whole
  // traversal with PinReads() so a concurrent GC pass cannot collect
  // the version out from under them mid-walk.
  virtual Status Get(const Hash256& id,
                     std::shared_ptr<const Chunk>* chunk) const;

  virtual bool Contains(const Hash256& id) const;

  // Makes every chunk stored so far crash-safe. The in-memory base
  // store has nothing to persist, so this is a no-op; FileChunkStore
  // overrides it with a flush + fsync of the segment log. The
  // durability barrier (GroupCommit::Sync) calls this through the
  // interface instead of probing for the durable subclass.
  virtual Status Sync() { return Status::OK(); }

  // Hook called by the database right after a block seals, so a paged
  // store can align segment switches with sealed-block boundaries.
  // No-op for the in-memory store.
  virtual void OnBlockSealed() {}

  // --- Version GC (DESIGN.md section 12) ----------------------------------
  //
  // Protocol: the collector calls BeginGc() *before* the newest chunk
  // that its retained-roots snapshot might not cover can be inserted
  // (SpitzDb holds the writer lock across the roots snapshot and
  // BeginGc, so every later commit's chunks carry a later sequence).
  // It then marks the live set by walking the retained roots, and calls
  // RetainLive(live, mark_seq): every chunk whose sequence is below
  // mark_seq and that is not in `live` is collected. A write that
  // re-references a stored chunk (a dedup hit, or naming it as a delta
  // base) renews the chunk's sequence, so a chunk the mark could not
  // see being re-referenced stays. One GC pass at a time; RetainLive
  // serializes internally.

  // The mark sequence: every chunk stored or re-referenced from here on
  // carries this sequence or a later one.
  uint64_t BeginGc() const {
    return insert_seq_.load(std::memory_order_acquire);
  }

  // Collects every dead chunk (see protocol above). Reads that began
  // before the call — under a PinReads() guard — finish first; reads of
  // collected versions that begin afterwards fail with NotFound.
  virtual Status RetainLive(
      const std::unordered_set<Hash256, Hash256Hasher>& live,
      uint64_t mark_seq, ChunkGcStats* stats);

  // Brackets a multi-chunk read (proof build, scan, audit):
  // RetainLive waits for every guard taken before its removal phase, so
  // a traversal that could still resolve ids into condemned chunks
  // completes before they go away. Guards nest. Cheap (an atomic add
  // and a load on a striped slot); safe from any thread.
  EpochManager::Guard PinReads() const { return epochs_.Enter(); }

  ChunkStoreStats stats() const;

  // Registers this store's accounting under `chunk.store.*` (and, for
  // durable stores, `chunk.file.*` / `chunk.segment.*`). The store must
  // outlive the registry's use.
  virtual void ExportMetrics(MetricsRegistry* registry) const;

 protected:
  // Next insertion sequence number (monotonic across the store; the GC
  // compares entry sequences against its mark sequence). Call under the
  // shard lock that publishes or re-references the entry, so no
  // published entry can carry a sequence later than one handed out
  // after it.
  uint64_t NextInsertSeq() {
    return insert_seq_.fetch_add(1, std::memory_order_acq_rel);
  }

  EpochManager& epochs() const { return epochs_; }

  // Accounting instruments (relaxed atomics); the same counters back
  // both stats() and the metrics-registry export. Protected so the
  // durable subclass, which keeps its own resident index, shares one set
  // of books with the base. chunk_count_/physical_bytes_ are gauges:
  // the GC shrinks them.
  Counter puts_;
  Counter dedup_hits_;
  Gauge chunk_count_;
  Gauge physical_bytes_;
  Counter logical_bytes_;

 private:
  static constexpr size_t kShardCount = 16;

  struct Resident {
    std::shared_ptr<const Chunk> chunk;
    uint64_t seq = 0;  // insertion sequence (GC mark comparison)
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Hash256, Resident, Hash256Hasher> chunks;
  };

  // Digest bytes are uniform; any byte selects a shard evenly.
  static size_t ShardOf(const Hash256& id) {
    return id.data()[7] % kShardCount;
  }

  Shard shards_[kShardCount];
  std::atomic<uint64_t> insert_seq_{0};
  mutable EpochManager epochs_;
};

// The status of a write whose path names a node the store cannot
// return: the store's NotFound becomes Corruption, because the version
// is damaged, and a delete must not take that for an absent key.
inline Status WritePathStatus(Status s) {
  if (!s.IsNotFound()) return s;
  return Status::Corruption("a write's path names a missing node: " +
                            s.message());
}

}  // namespace spitz

#endif  // SPITZ_CHUNK_CHUNK_STORE_H_
