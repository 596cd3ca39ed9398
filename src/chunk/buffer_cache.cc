#include "chunk/buffer_cache.h"

#include <algorithm>

namespace spitz {

BufferCache::BufferCache(size_t capacity_bytes, size_t shard_count)
    : capacity_bytes_(capacity_bytes),
      shard_count_(std::max<size_t>(1, shard_count)),
      shard_budget_(std::max<size_t>(1, capacity_bytes / shard_count_)),
      shards_(new Shard[shard_count_]) {}

void BufferCache::Shard::Unlink(Slot* slot) {
  Entry& e = slot->second;
  (e.prev != nullptr ? e.prev->second.next : head) = e.next;
  (e.next != nullptr ? e.next->second.prev : tail) = e.prev;
  e.prev = e.next = nullptr;
}

void BufferCache::Shard::PushFront(Slot* slot) {
  slot->second.next = head;
  (head != nullptr ? head->second.prev : tail) = slot;
  head = slot;
}

void BufferCache::Shard::Remove(Map::iterator it,
                                std::shared_ptr<const void>* dropped) {
  const uint8_t kind = it->first.kind;
  bytes[kind] -= it->second.charge;
  entries[kind]--;
  *dropped = std::move(it->second.value);
  Unlink(&*it);
  map.erase(it);
}

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
  shard->Unlink(&*it);
  shard->PushFront(&*it);
  return it->second.value;
}

void BufferCache::Insert(Kind kind, const Hash256& id,
                         std::shared_ptr<const void> value, size_t charge) {
  if (value == nullptr) return;
  if (charge > shard_budget_) return;  // would evict a whole shard
  Shard* shard = ShardOf(id);
  std::vector<std::shared_ptr<const void>> dropped;  // freed after unlock
  std::lock_guard<std::mutex> lock(shard->mu);
  auto [it, inserted] =
      shard->map.try_emplace(Key{id, static_cast<uint8_t>(kind)});
  if (!inserted) {
    // Same id ⇒ same content; refresh recency only.
    shard->Unlink(&*it);
    shard->PushFront(&*it);
    return;
  }
  inserts_[kind].Increment();
  it->second.value = std::move(value);
  it->second.charge = charge;
  shard->PushFront(&*it);
  shard->bytes[kind] += charge;
  shard->entries[kind]++;
  EvictLocked(shard, &dropped);
}

void BufferCache::EvictLocked(
    Shard* shard, std::vector<std::shared_ptr<const void>>* dropped) {
  // The entry just inserted fits the budget alone, so this stops
  // before reaching it.
  while (ShardBytes(*shard) > shard_budget_) {
    auto victim = shard->map.find(shard->tail->first);
    shard->evictions[victim->first.kind]++;
    shard->Remove(victim, &dropped->emplace_back());
  }
}

void BufferCache::Erase(const Hash256& id) {
  Shard* shard = ShardOf(id);  // every kind of `id` lives in one shard
  std::shared_ptr<const void> dropped[kKindCount];  // freed after unlock
  std::lock_guard<std::mutex> lock(shard->mu);
  for (uint8_t kind = 0; kind < kKindCount; kind++) {
    auto it = shard->map.find(Key{id, kind});
    if (it == shard->map.end()) continue;
    shard->erases[kind]++;
    shard->Remove(it, &dropped[kind]);
  }
}

void BufferCache::Clear() {
  for (size_t i = 0; i < shard_count_; i++) {
    Shard& shard = shards_[i];
    Map dropped;  // freed after unlock
    std::lock_guard<std::mutex> lock(shard.mu);
    dropped.swap(shard.map);
    shard.head = shard.tail = nullptr;
    for (size_t k = 0; k < kKindCount; k++) {
      shard.bytes[k] = 0;
      shard.entries[k] = 0;
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
      s.kind[k].erases += shard.erases[k];
    }
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
  registry->RegisterCounterFn("cache.erases",
                              [this] { return stats().erases(); });
  registry->RegisterGaugeFn("cache.entries",
                            [this] { return stats().entries(); });
  registry->RegisterGaugeFn("cache.bytes", [this] { return stats().bytes(); });
  registry->RegisterGaugeFn("cache.capacity_bytes", [this] {
    return static_cast<uint64_t>(capacity_bytes_);
  });
}

}  // namespace spitz
