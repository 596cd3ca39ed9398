#ifndef SPITZ_KVS_IMMUTABLE_KVS_H_
#define SPITZ_KVS_IMMUTABLE_KVS_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "chunk/chunk_store.h"
#include "common/metrics.h"
#include "common/status.h"
#include "index/pos_tree.h"

namespace spitz {

// The immutable key-value store of paper section 6.1: "the same as
// Spitz in terms of indexing, except that it does not maintain a ledger
// or provide verifiability." It is the no-verification upper bound in
// Figures 6 and 7, and the underlying database of the non-intrusive
// design in Figure 8.
//
// Storage is the same copy-on-write POS-tree over a chunk store, so old
// versions remain readable; only the ledger (and hence proofs and
// digests) is missing.
class ImmutableKvs {
 public:
  explicit ImmutableKvs(PosTreeOptions options = PosTreeOptions())
      : init_status_(options.Validate()), index_(&chunks_, options) {
    write_ns_ = registry_.histogram("kvs.db.write_latency_ns");
    read_ns_ = registry_.histogram("kvs.db.read_latency_ns");
    scan_ns_ = registry_.histogram("kvs.db.scan_latency_ns");
    chunks_.ExportMetrics(&registry_);
  }

  // Validating factory: fails (leaving *kvs untouched) when the tree
  // options are rejected. The plain constructor remains for callers
  // with known-good options; a constructed instance with bad options
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
    if (!init_status_.ok()) return init_status_;
    ScopedTimer timer(write_ns_);
    std::lock_guard<std::mutex> lock(mu_);
    return index_.Put(root_, key, value, &root_);
  }

  // Bulk ingestion for initial provisioning. Fails if non-empty.
  Status BulkLoad(std::vector<PosEntry> entries) {
    if (!init_status_.ok()) return init_status_;
    std::lock_guard<std::mutex> lock(mu_);
    if (!root_.IsZero()) {
      return Status::InvalidArgument("bulk load requires an empty store");
    }
    return index_.Build(std::move(entries), &root_);
  }

  Status Delete(const Slice& key) {
    if (!init_status_.ok()) return init_status_;
    ScopedTimer timer(write_ns_);
    std::lock_guard<std::mutex> lock(mu_);
    return index_.Delete(root_, key, &root_);
  }

  Status Get(const Slice& key, std::string* value) const {
    ScopedTimer timer(read_ns_);
    Hash256 root = CurrentRoot();
    return index_.Get(root, key, value, nullptr);
  }

  Status Scan(const Slice& start, const Slice& end, size_t limit,
              std::vector<PosEntry>* out) const {
    ScopedTimer timer(scan_ns_);
    Hash256 root = CurrentRoot();
    return index_.Scan(root, start, end, limit, out, nullptr);
  }

  Hash256 CurrentRoot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return root_;
  }

  uint64_t key_count() const {
    uint64_t count = 0;
    index_.Count(CurrentRoot(), &count);
    return count;
  }

  // The store's observability surface: write/read/scan latency
  // histograms (kvs.db.*) plus the chunk-storage counters (chunk.*).
  // Safe from any thread.
  MetricsSnapshot Metrics() const { return registry_.Snapshot(); }

 private:
  // InvalidArgument when the options failed Validate(); returned by
  // every write entry point.
  Status init_status_;
  MetricsRegistry registry_;
  Histogram* write_ns_ = nullptr;
  Histogram* read_ns_ = nullptr;
  Histogram* scan_ns_ = nullptr;
  ChunkStore chunks_;
  PosTree index_;
  mutable std::mutex mu_;
  Hash256 root_;
};

}  // namespace spitz

#endif  // SPITZ_KVS_IMMUTABLE_KVS_H_
