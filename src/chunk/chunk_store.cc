#include "chunk/chunk_store.h"

namespace spitz {

Hash256 ChunkStore::Put(Chunk chunk, const Chunk* /*base*/) {
  const Hash256 id = chunk.id();
  const size_t size = chunk.stored_size();
  puts_.Increment();
  logical_bytes_.Increment(size);
  Shard& shard = shards_[ShardOf(id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.chunks.find(id);
  if (it != shard.chunks.end()) {
    // A hit re-references the chunk: a marking GC pass keeps it.
    dedup_hits_.Increment();
    it->second.seq = NextInsertSeq();
    return id;
  }
  chunk_count_.Add(1);
  physical_bytes_.Add(size);
  shard.chunks.emplace(
      id, Resident{std::make_shared<const Chunk>(std::move(chunk)),
                   NextInsertSeq()});
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

Status ChunkStore::RetainLive(
    const std::unordered_set<Hash256, Hash256Hasher>& live, uint64_t mark_seq,
    ChunkGcStats* stats) {
  // Let every traversal that may still be resolving ids in a condemned
  // version finish before its chunks disappear; readers arriving later
  // see either the pruned map (NotFound for dead ids) or, transiently,
  // a dead chunk that is about to go — both are the documented contract
  // for reads of collected versions.
  epochs_.WaitForQuiescence();

  ChunkGcStats result;
  for (size_t i = 0; i < kShardCount; i++) {
    Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.chunks.begin(); it != shard.chunks.end();) {
      const bool dead = it->second.seq < mark_seq &&
                        live.find(it->first) == live.end();
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
