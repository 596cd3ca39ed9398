#include "chunk/chunk_store.h"

namespace spitz {

bool ChunkStore::InsertInMemory(Chunk chunk, Hash256* id) {
  *id = chunk.id();
  const size_t size = chunk.stored_size();
  puts_.Increment();
  logical_bytes_.Increment(size);
  Shard& shard = shards_[ShardOf(*id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.chunks.find(*id);
  if (it != shard.chunks.end()) {
    dedup_hits_.Increment();
    NoteDedupResurrection(*id);
    return false;
  }
  chunk_count_.Add(1);
  physical_bytes_.Add(size);
  shard.chunks.emplace(
      *id, Resident{std::make_shared<const Chunk>(std::move(chunk)),
                    NextInsertSeq()});
  return true;
}

Hash256 ChunkStore::Put(Chunk chunk, const Chunk* /*base*/) {
  Hash256 id;
  InsertInMemory(std::move(chunk), &id);
  return id;
}

Status ChunkStore::Get(const Hash256& id,
                       std::shared_ptr<const Chunk>* chunk) const {
  const Shard& shard = shards_[ShardOf(id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.chunks.find(id);
  if (it == shard.chunks.end()) {
    return Status::NotFound("chunk " + id.ToHex());
  }
  *chunk = it->second.chunk;
  return Status::OK();
}

bool ChunkStore::Contains(const Hash256& id) const {
  const Shard& shard = shards_[ShardOf(id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.chunks.find(id) != shard.chunks.end();
}

uint64_t ChunkStore::BeginGc() {
  std::lock_guard<std::mutex> lock(gc_mu_);
  gc_active_ = true;
  resurrected_.clear();
  return insert_seq_.load(std::memory_order_acquire);
}

void ChunkStore::AbortGc() { EndGc(); }

void ChunkStore::EndGc() {
  std::lock_guard<std::mutex> lock(gc_mu_);
  gc_active_ = false;
  resurrected_.clear();
}

void ChunkStore::NoteDedupResurrection(const Hash256& id) {
  std::lock_guard<std::mutex> lock(gc_mu_);
  if (gc_active_) resurrected_.insert(id);
}

bool ChunkStore::WasResurrected(const Hash256& id) const {
  std::lock_guard<std::mutex> lock(gc_mu_);
  return resurrected_.find(id) != resurrected_.end();
}

Status ChunkStore::RetainLive(
    const std::unordered_set<Hash256, Hash256Hasher>& live, uint64_t mark_seq,
    ChunkGcStats* stats) {
  // Let every traversal that may still be resolving ids in a condemned
  // version finish before its chunks disappear; readers arriving later
  // see either the pruned map (NotFound for dead ids) or, transiently,
  // a dead chunk that is about to go — both are the documented contract
  // for reads of collected versions.
  epochs_.Advance();
  epochs_.WaitForQuiescence();

  ChunkGcStats result;
  for (size_t i = 0; i < kShardCount; i++) {
    Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.chunks.begin(); it != shard.chunks.end();) {
      const bool dead = it->second.seq < mark_seq &&
                        live.find(it->first) == live.end() &&
                        !WasResurrected(it->first);
      if (!dead) {
        result.live_chunks++;
        ++it;
        continue;
      }
      const size_t size = it->second.chunk->stored_size();
      result.dead_chunks++;
      result.reclaimed_bytes += size;
      chunk_count_.Sub(1);
      physical_bytes_.Sub(size);
      it = shard.chunks.erase(it);
    }
  }
  EndGc();
  if (stats != nullptr) *stats = result;
  return Status::OK();
}

ChunkStoreStats ChunkStore::stats() const {
  ChunkStoreStats stats;
  stats.puts = puts_.value();
  stats.dedup_hits = dedup_hits_.value();
  stats.chunk_count = chunk_count_.value();
  stats.physical_bytes = physical_bytes_.value();
  stats.logical_bytes = logical_bytes_.value();
  return stats;
}

void ChunkStore::ExportMetrics(MetricsRegistry* registry) const {
  registry->RegisterCounter("chunk.store.puts", &puts_);
  registry->RegisterCounter("chunk.store.dedup_hits", &dedup_hits_);
  // physical_bytes moves both ways now (the GC reclaims); it stays in
  // the counter namespace for continuity with existing dashboards.
  registry->RegisterCounterFn("chunk.store.physical_bytes",
                              [this] { return physical_bytes_.value(); });
  registry->RegisterCounter("chunk.store.logical_bytes", &logical_bytes_);
  registry->RegisterGaugeFn("chunk.store.chunk_count",
                            [this] { return chunk_count_.value(); });
}

}  // namespace spitz
