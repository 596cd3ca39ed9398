#include "chunk/buffer_cache.h"

#include <algorithm>

namespace spitz {

BufferCache::BufferCache(size_t capacity_bytes, size_t shard_count)
    : capacity_bytes_(capacity_bytes),
      shard_count_(std::max<size_t>(1, shard_count)),
      shard_budget_(std::max<size_t>(1, capacity_bytes / shard_count_)),
      shards_(new Shard[shard_count_]) {}

std::shared_ptr<const void> BufferCache::Lookup(Kind kind, const Hash256& id) {
  Shard* shard = ShardOf(id);
  std::lock_guard<std::mutex> lock(shard->mu);
  auto it = shard->map.find(Key{id, static_cast<uint8_t>(kind)});
  if (it == shard->map.end()) {
    misses_[kind].Increment();
    return nullptr;
  }
  hits_[kind].Increment();
  // Promote to most-recently-used.
  shard->lru.splice(shard->lru.begin(), shard->lru, it->second);
  return it->second->value;
}

void BufferCache::Insert(Kind kind, const Hash256& id,
                         std::shared_ptr<const void> value, size_t charge,
                         bool pin) {
  if (value == nullptr) return;
  if (!pin && charge > shard_budget_) return;  // would evict a whole shard
  Shard* shard = ShardOf(id);
  Key key{id, static_cast<uint8_t>(kind)};
  std::lock_guard<std::mutex> lock(shard->mu);
  auto it = shard->map.find(key);
  if (it != shard->map.end()) {
    // Same id ⇒ same content; refresh recency, and take the pin if
    // asked (the caller's Unpin will balance it on this entry).
    shard->lru.splice(shard->lru.begin(), shard->lru, it->second);
    if (pin) {
      if (it->second->pins++ == 0) shard->pinned++;
    }
    return;
  }
  inserts_[kind].Increment();
  shard->lru.push_front(Entry{key, std::move(value), charge, pin ? 1u : 0u});
  shard->map.emplace(key, shard->lru.begin());
  shard->bytes[kind] += charge;
  shard->entries[kind]++;
  if (pin) shard->pinned++;
  EvictLocked(shard);
}

void BufferCache::EvictLocked(Shard* shard) {
  // Pinned tail entries rotate to the front (they are in active use by
  // definition); the scan gives up once it has cycled past every entry
  // without getting under budget — only pinned bytes remain then, and
  // the overshoot drains when they unpin.
  size_t rotations = 0;
  while (ShardBytes(*shard) > shard_budget_ && shard->lru.size() > 1 &&
         rotations < shard->lru.size()) {
    auto victim = std::prev(shard->lru.end());
    if (victim->pins > 0) {
      shard->lru.splice(shard->lru.begin(), shard->lru, victim);
      rotations++;
      continue;
    }
    Kind kind = static_cast<Kind>(victim->key.kind);
    shard->bytes[kind] -= victim->charge;
    shard->entries[kind]--;
    shard->evictions[kind]++;
    shard->map.erase(victim->key);
    shard->lru.erase(victim);
  }
}

void BufferCache::Unpin(Kind kind, const Hash256& id) {
  Shard* shard = ShardOf(id);
  std::lock_guard<std::mutex> lock(shard->mu);
  auto it = shard->map.find(Key{id, static_cast<uint8_t>(kind)});
  if (it == shard->map.end() || it->second->pins == 0) return;
  if (--it->second->pins == 0) {
    shard->pinned--;
    // The shard may have been held over budget by this pin; settle now
    // rather than waiting for the next insert.
    EvictLocked(shard);
  }
}

void BufferCache::Erase(const Hash256& id) {
  Shard* shard = ShardOf(id);  // every kind of `id` lives in one shard
  std::lock_guard<std::mutex> lock(shard->mu);
  for (uint8_t kind = 0; kind < kKindCount; kind++) {
    auto it = shard->map.find(Key{id, kind});
    if (it == shard->map.end() || it->second->pins > 0) continue;
    shard->bytes[kind] -= it->second->charge;
    shard->entries[kind]--;
    shard->lru.erase(it->second);
    shard->map.erase(it);
  }
}

void BufferCache::Clear() {
  for (size_t i = 0; i < shard_count_; i++) {
    Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (it->pins > 0) {
        ++it;
        continue;
      }
      Kind kind = static_cast<Kind>(it->key.kind);
      shard.bytes[kind] -= it->charge;
      shard.entries[kind]--;
      shard.map.erase(it->key);
      it = shard.lru.erase(it);
    }
  }
}

BufferCache::Stats BufferCache::stats() const {
  Stats s;
  s.capacity_bytes = capacity_bytes_;
  for (size_t k = 0; k < kKindCount; k++) {
    s.kind[k].hits = hits_[k].value();
    s.kind[k].misses = misses_[k].value();
    s.kind[k].inserts = inserts_[k].value();
  }
  for (size_t i = 0; i < shard_count_; i++) {
    const Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (size_t k = 0; k < kKindCount; k++) {
      s.kind[k].entries += shard.entries[k];
      s.kind[k].bytes += shard.bytes[k];
      s.kind[k].evictions += shard.evictions[k];
    }
    s.pinned_entries += shard.pinned;
  }
  return s;
}

void BufferCache::ExportMetrics(MetricsRegistry* registry) const {
  registry->RegisterCounterFn("cache.hits", [this] { return stats().hits(); });
  registry->RegisterCounterFn("cache.misses",
                              [this] { return stats().misses(); });
  registry->RegisterCounterFn("cache.inserts",
                              [this] { return stats().inserts(); });
  registry->RegisterCounterFn("cache.evictions",
                              [this] { return stats().evictions(); });
  registry->RegisterGaugeFn("cache.entries",
                            [this] { return stats().entries(); });
  registry->RegisterGaugeFn("cache.bytes", [this] { return stats().bytes(); });
  registry->RegisterGaugeFn("cache.pinned_entries",
                            [this] { return stats().pinned_entries; });
  registry->RegisterGaugeFn("cache.capacity_bytes", [this] {
    return static_cast<uint64_t>(capacity_bytes_);
  });
}

}  // namespace spitz
