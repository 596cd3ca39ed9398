#include "index/versioned_index.h"

namespace spitz {

VersionedIndex::VersionedIndex(SiriBackend backend, ChunkStore* chunks,
                               BufferCache* cache,
                               const SiriIndexOptions& options,
                               size_t retain_versions,
                               MetricsRegistry* registry,
                               const std::string& metric_prefix)
    : chunks_(chunks),
      cache_(cache),
      index_(MakeSiriIndex(backend, chunks, options)),
      retain_versions_(retain_versions) {
  index_->SetNodeCache(cache);
  if (registry == nullptr) return;
  read_ns_ = registry->histogram(metric_prefix + ".read_latency_ns");
  scan_ns_ = registry->histogram(metric_prefix + ".scan_latency_ns");
  proof_build_ns_ =
      registry->histogram(metric_prefix + ".proof_build_latency_ns");
  // Proof sizes are tagged with the backend that produced them, so an
  // ablation run comparing backends yields distinct series.
  const std::string name = SiriBackendName(backend);
  proof_bytes_ = registry->histogram("index.siri.proof_bytes." + name);
  range_proof_bytes_ =
      registry->histogram("index.siri.range_proof_bytes." + name);
  // The decoded-node share of the unified cache, under index.cache.*.
  using KindStats = BufferCache::KindStats;
  auto node_stat = [cache](uint64_t KindStats::*field) {
    return [cache, field] {
      return cache->stats().kind[BufferCache::kPosNode].*field;
    };
  };
  registry->RegisterCounterFn("index.cache.hits", node_stat(&KindStats::hits));
  registry->RegisterCounterFn("index.cache.misses",
                              node_stat(&KindStats::misses));
  registry->RegisterCounterFn("index.cache.inserts",
                              node_stat(&KindStats::inserts));
  registry->RegisterCounterFn("index.cache.evictions",
                              node_stat(&KindStats::evictions));
  registry->RegisterCounterFn("index.cache.erases",
                              node_stat(&KindStats::erases));
  registry->RegisterGaugeFn("index.cache.entries",
                            node_stat(&KindStats::entries));
  registry->RegisterGaugeFn("index.cache.bytes", node_stat(&KindStats::bytes));
  registry->RegisterGaugeFn("index.cache.capacity_bytes", [cache] {
    return static_cast<uint64_t>(cache->capacity_bytes());
  });
}

Status VersionedIndex::Apply(const WriteBatch& batch) {
  return ApplyTo(batch, &root_, &replaced_);
}

Status VersionedIndex::ApplyTo(const WriteBatch& batch, Hash256* root,
                               std::vector<Hash256>* replaced) const {
  IndexWrites writes;
  for (const WriteBatch::Op& op : batch.ops()) {
    writes.entries.push_back({op.key, op.value});
    writes.erase.push_back(op.type == WriteBatch::OpType::kDelete);
  }
  return index_->Apply(*root, std::move(writes), root, replaced);
}

void VersionedIndex::Retire(std::vector<Hash256> replaced) {
  // A node version v replaced belongs to the versions before v, which
  // the GC keeps until v - 1 leaves its window; one version more keeps
  // every version a pinned read may still name cached.
  retiring_.push_back(std::move(replaced));
  if (retiring_.size() <= retain_versions_) return;
  {
    std::lock_guard<std::mutex> lock(expired_mu_);
    std::vector<Hash256>& front = retiring_.front();
    if (expired_.empty()) {
      expired_.swap(front);
    } else {
      expired_.insert(expired_.end(), front.begin(), front.end());
    }
  }
  retiring_.pop_front();
}

void VersionedIndex::EraseExpired() {
  std::vector<Hash256> expired;
  {
    std::lock_guard<std::mutex> lock(expired_mu_);
    expired.swap(expired_);
  }
  for (const Hash256& id : expired) cache_->Erase(id);
}

// A proof is produced for presence and (non-degenerate) absence alike;
// its wire size is what the client pays either way.
Status VersionedIndex::Read(const Hash256& root, const Slice& key,
                            std::string* value, ReadProof* proof) const {
  ScopedTimer timer(proof != nullptr ? proof_build_ns_ : read_ns_);
  auto pin = chunks_->PinReads();
  Status s = index_->Get(root, key, value,
                         proof != nullptr ? &proof->index_proof : nullptr);
  if (proof == nullptr) return s;
  proof->index_root = root;
  if (proof_bytes_ && (s.ok() || s.IsNotFound())) {
    proof_bytes_->Record(proof->index_proof.ByteSize());
  }
  return s;
}

Status VersionedIndex::ReadRange(const Hash256& root, const Slice& start,
                                 const Slice& end, size_t limit,
                                 std::vector<PosEntry>* rows,
                                 ScanProof* proof) const {
  ScopedTimer timer(proof != nullptr ? proof_build_ns_ : scan_ns_);
  auto pin = chunks_->PinReads();
  Status s = index_->Scan(root, start, end, limit, rows,
                          proof != nullptr ? &proof->index_proof : nullptr);
  if (proof == nullptr) return s;
  proof->index_root = root;
  if (range_proof_bytes_ && s.ok()) {
    range_proof_bytes_->Record(proof->index_proof.ByteSize());
  }
  return s;
}

uint64_t VersionedIndex::Count(const Hash256& root) const {
  auto pin = chunks_->PinReads();
  uint64_t count = 0;
  index_->Count(root, &count);
  return count;
}

}  // namespace spitz
