#ifndef SPITZ_CHUNK_BUFFER_CACHE_H_
#define SPITZ_CHUNK_BUFFER_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "crypto/hash.h"

namespace spitz {

// The unified buffer cache of the paged storage stack (DESIGN.md
// section 12): one byte budget fronting both raw chunk bytes read back
// from segment files and decoded POS-tree nodes, so the two working
// sets compete for the same memory instead of each holding a private
// allowance. Entries are type-erased (shared_ptr<const void> plus an
// explicit charge); the Kind tag keeps the two populations distinct in
// the key space and in the per-kind accounting.
//
// Coherence is trivial: keys are content hashes of immutable data, so a
// cached value can never be stale — there is no invalidation path, only
// eviction (the no-invalidation property the whole read path is built
// on). Erase retires entries that no longer earn their budget — not
// because they are stale — and has two callers: the GC, which removes
// every entry of a chunk whose backing record it is about to delete,
// and SpitzDb, which removes the index nodes a write replaced once its
// block leaves the retain_versions window, so the cache holds the
// retained versions rather than the write history. Nor does any reader
// depend on an entry staying: the durable store holds its own unflushed
// chunks, so every entry can be evicted or erased and read back.
//
// Footprint: an entry is one heap node, the map's, which carries the
// entry's links in its shard's LRU list; a value an eviction, Erase or
// Clear drops is freed after the shard lock is released, so freeing a
// decoded node and its chunk never holds up the shard's other callers.
//
// Thread safety: fully thread-safe; sharded by a key byte like the
// chunk store's resident index.
class BufferCache {
 public:
  enum Kind : uint8_t { kRawChunk = 0, kPosNode = 1 };
  static constexpr size_t kKindCount = 2;

  struct KindStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;  // dropped under budget pressure
    uint64_t erases = 0;     // dropped by Erase
    uint64_t entries = 0;    // currently resident
    uint64_t bytes = 0;      // resident charge
  };

  struct Stats {
    KindStats kind[kKindCount];
    uint64_t capacity_bytes = 0;

    uint64_t hits() const { return Total(&KindStats::hits); }
    uint64_t misses() const { return Total(&KindStats::misses); }
    uint64_t inserts() const { return Total(&KindStats::inserts); }
    uint64_t evictions() const { return Total(&KindStats::evictions); }
    uint64_t erases() const { return Total(&KindStats::erases); }
    uint64_t entries() const { return Total(&KindStats::entries); }
    uint64_t bytes() const { return Total(&KindStats::bytes); }

   private:
    uint64_t Total(uint64_t KindStats::* field) const {
      uint64_t n = 0;
      for (size_t k = 0; k < kKindCount; k++) n += kind[k].*field;
      return n;
    }
  };

  explicit BufferCache(size_t capacity_bytes, size_t shard_count = 16);

  BufferCache(const BufferCache&) = delete;
  BufferCache& operator=(const BufferCache&) = delete;

  static constexpr size_t kDefaultCapacityBytes = 64 << 20;

  // Returns the cached value (promoted to most-recently-used) or
  // nullptr on a miss.
  std::shared_ptr<const void> Lookup(Kind kind, const Hash256& id);

  // Inserts (or refreshes) an entry. `charge` is its budget footprint.
  // Entries larger than a whole shard's budget are not cached; least-
  // recently-used entries are evicted until the shard is back under
  // budget.
  void Insert(Kind kind, const Hash256& id, std::shared_ptr<const void> value,
              size_t charge);

  // Drops every entry cached under `id`, of any kind, so a chunk no
  // longer worth its budget (dead to the GC, or replaced by a write
  // older than the retained window) stops occupying it, raw and decoded.
  void Erase(const Hash256& id);

  // Drops every entry (counters are retained).
  void Clear();

  Stats stats() const;
  size_t capacity_bytes() const { return capacity_bytes_; }

  // Registers the whole-budget accounting under `cache.*`. The cache
  // must outlive the registry's use.
  void ExportMetrics(MetricsRegistry* registry) const;

 private:
  struct Key {
    Hash256 id;
    uint8_t kind;
    bool operator==(const Key& other) const {
      return kind == other.kind && id == other.id;
    }
  };
  struct KeyHasher {
    // noexcept, so the map does not store each node's hash beside it.
    size_t operator()(const Key& key) const noexcept {
      return Hash256Hasher()(key.id) ^ (static_cast<size_t>(key.kind) << 1);
    }
  };

  // A map node's value: the cached value, its charge and the entry's
  // links in its shard's LRU list.
  struct Entry;
  using Slot = std::pair<const Key, Entry>;  // a map node's value
  struct Entry {
    std::shared_ptr<const void> value;
    size_t charge = 0;
    Slot* prev = nullptr;  // toward the most recently used
    Slot* next = nullptr;  // toward the least recently used
  };

  using Map = std::unordered_map<Key, Entry, KeyHasher>;

  struct Shard {
    mutable std::mutex mu;
    Map map;
    Slot* head = nullptr;  // most recently used
    Slot* tail = nullptr;  // least recently used: the next victim
    size_t bytes[kKindCount] = {0, 0};
    size_t entries[kKindCount] = {0, 0};
    uint64_t evictions[kKindCount] = {0, 0};
    uint64_t erases[kKindCount] = {0, 0};

    void Unlink(Slot* slot);
    void PushFront(Slot* slot);
    // Unlinks and erases the entry at `it`, moving its value to
    // *dropped so the caller frees it after releasing mu.
    void Remove(Map::iterator it, std::shared_ptr<const void>* dropped);
  };

  Shard* ShardOf(const Hash256& id) {
    // Digest bytes are uniform; byte 9 decorrelates from the chunk
    // store's shard byte (7) so the two stripings do not align.
    return &shards_[id.data()[9] % shard_count_];
  }
  const Shard* ShardOf(const Hash256& id) const {
    return &shards_[id.data()[9] % shard_count_];
  }

  // Evicts LRU entries until the shard is within budget, appending
  // their values to *dropped for the caller to free after it releases
  // shard->mu, which it holds.
  void EvictLocked(Shard* shard,
                   std::vector<std::shared_ptr<const void>>* dropped);

  static size_t ShardBytes(const Shard& shard) {
    size_t n = 0;
    for (size_t k = 0; k < kKindCount; k++) n += shard.bytes[k];
    return n;
  }

  const size_t capacity_bytes_;
  const size_t shard_count_;
  const size_t shard_budget_;  // capacity_bytes_ / shard_count_
  std::unique_ptr<Shard[]> shards_;
  Counter hits_[kKindCount];
  Counter misses_[kKindCount];
  Counter inserts_[kKindCount];
};

}  // namespace spitz

#endif  // SPITZ_CHUNK_BUFFER_CACHE_H_
