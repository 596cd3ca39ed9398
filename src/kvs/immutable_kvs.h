#ifndef SPITZ_KVS_IMMUTABLE_KVS_H_
#define SPITZ_KVS_IMMUTABLE_KVS_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "chunk/buffer_cache.h"
#include "chunk/chunk_store.h"
#include "common/metrics.h"
#include "common/status.h"
#include "index/versioned_index.h"
#include "txn/write_batch.h"

namespace spitz {

// The immutable key-value store of paper section 6.1: "the same as
// Spitz in terms of indexing, except that it does not maintain a ledger
// or provide verifiability." It is the no-verification upper bound in
// Figures 6 and 7, and the underlying database of the non-intrusive
// design in Figure 8.
//
// It is SpitzDb's versioned index, on the same kind of chunk store and
// node cache, with no ledger. Every old root stays readable (index()).
// Each write is a version, so the cache keeps the nodes of the last
// kRetainedVersions; older versions are read from the store.
class ImmutableKvs {
 public:
  // SpitzOptions::retain_versions' default.
  static constexpr size_t kRetainedVersions = 8;

  explicit ImmutableKvs(PosTreeOptions options = PosTreeOptions())
      : init_status_(options.Validate()),
        cache_(BufferCache::kDefaultCapacityBytes),
        index_(SiriBackend::kPosTree, &chunks_, &cache_, SiriOptions(options),
               kRetainedVersions, &registry_, "kvs.db") {
    write_ns_ = registry_.histogram("kvs.db.write_latency_ns");
    chunks_.ExportMetrics(&registry_);
    cache_.ExportMetrics(&registry_);
  }

  // Validating factory: fails (leaving *kvs untouched) when the tree
  // options are rejected. An instance constructed with bad options
  // returns the validation error from every write entry point.
  static Status Open(PosTreeOptions options, std::unique_ptr<ImmutableKvs>* kvs) {
    Status s = options.Validate();
    if (!s.ok()) return s;
    *kvs = std::make_unique<ImmutableKvs>(options);
    return Status::OK();
  }

  ImmutableKvs(const ImmutableKvs&) = delete;
  ImmutableKvs& operator=(const ImmutableKvs&) = delete;

  Status Put(const Slice& key, const Slice& value) {
    WriteBatch batch;
    batch.Put(key, value);
    return Apply(batch, nullptr);
  }

  // NotFound when `key` is absent (SpitzDb makes that delete a no-op).
  Status Delete(const Slice& key) {
    WriteBatch batch;
    batch.Delete(key);
    bool changed = false;
    Status s = Apply(batch, &changed);
    return s.ok() && !changed ? Status::NotFound("key not found") : s;
  }

  // Bulk ingestion for initial provisioning. Fails if non-empty.
  Status BulkLoad(std::vector<PosEntry> entries) {
    if (!init_status_.ok()) return init_status_;
    std::lock_guard<std::mutex> lock(mu_);
    if (!index_.root().IsZero()) {
      return Status::InvalidArgument("bulk load requires an empty store");
    }
    return index_.Build(std::move(entries));
  }

  Status Get(const Slice& key, std::string* value) const {
    return index_.Read(CurrentRoot(), key, value, nullptr);
  }

  Status Scan(const Slice& start, const Slice& end, size_t limit,
              std::vector<PosEntry>* out) const {
    return index_.ReadRange(CurrentRoot(), start, end, limit, out, nullptr);
  }

  Hash256 CurrentRoot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return index_.root();
  }

  // Reads at any root this store made.
  const VersionedIndex& index() const { return index_; }

  uint64_t key_count() const { return index_.Count(CurrentRoot()); }

  // kvs.db.* latencies, the node cache (index.cache.*, cache.*) and
  // the chunk store (chunk.*). Safe from any thread.
  MetricsSnapshot Metrics() const { return registry_.Snapshot(); }

 private:
  // Applies `batch` as one version; *changed (when non-null) receives
  // whether the root moved.
  Status Apply(const WriteBatch& batch, bool* changed) {
    if (!init_status_.ok()) return init_status_;
    ScopedTimer timer(write_ns_);
    Status s;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const Hash256 before = index_.root();
      s = index_.Apply(batch);
      index_.Seal();
      if (changed != nullptr) *changed = index_.root() != before;
    }
    index_.EraseExpired();
    return s;
  }

  static SiriIndexOptions SiriOptions(const PosTreeOptions& options) {
    SiriIndexOptions siri;
    siri.pos = options;
    return siri;
  }

  Status init_status_;  // the options' Validate()
  MetricsRegistry registry_;  // before the components it reads
  Histogram* write_ns_ = nullptr;
  ChunkStore chunks_;
  BufferCache cache_;
  VersionedIndex index_;
  // Serializes writers and guards the index's writer side.
  mutable std::mutex mu_;
};

}  // namespace spitz

#endif  // SPITZ_KVS_IMMUTABLE_KVS_H_
