#ifndef SPITZ_INDEX_VERSIONED_INDEX_H_
#define SPITZ_INDEX_VERSIONED_INDEX_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "chunk/buffer_cache.h"
#include "chunk/chunk_store.h"
#include "common/metrics.h"
#include "common/status.h"
#include "crypto/hash.h"
#include "index/siri.h"
#include "txn/write_batch.h"

namespace spitz {

// A verified read's complete evidence: a backend-tagged SIRI proof
// envelope plus the index version it proves against. Serializable, so
// it can cross a process boundary and be verified from decoded bytes.
// A proof holds what it cites (ProofNode): the cached nodes on a
// server, the reply's frame buffer on a client.
struct ReadProof {
  SiriProof index_proof;  // path through the unified SIRI index
  Hash256 index_root;     // the version it proves against

  void EncodeTo(std::string* out) const;
  size_t EncodedSize() const { return Hash256::kSize + index_proof.EncodedSize(); }
  // Decodes views of *input, which `owner` keeps alive.
  static Status DecodeFrom(Slice* input, std::shared_ptr<const void> owner,
                           ReadProof* out);
  // Decodes into one copy of the proof's bytes that the proof owns.
  static Status DecodeFrom(Slice* input, ReadProof* out) {
    return DecodeOwnedCopy(input, out);
  }
};

struct ScanProof {
  SiriRangeProof index_proof;
  Hash256 index_root;

  void EncodeTo(std::string* out) const;
  size_t EncodedSize() const { return Hash256::kSize + index_proof.EncodedSize(); }
  static Status DecodeFrom(Slice* input, std::shared_ptr<const void> owner,
                           ScanProof* out);
  static Status DecodeFrom(Slice* input, ScanProof* out) {
    return DecodeOwnedCopy(input, out);
  }
};

// The version a read sees: an index root, or kCurrentVersion for the
// snapshot current when the read starts. A digest the client holds pins
// a read through its index_root.
using ReadVersion = std::optional<Hash256>;
inline constexpr std::nullopt_t kCurrentVersion = std::nullopt;

// The versions of one SIRI index (paper section 3.1): each write makes a
// new root by copying the path it changes, and every older root stays
// readable while its chunks are kept. It is SpitzDb's index, and the
// whole immutable KVS (paper section 6.1: Spitz without the ledger).
//
// It owns the backend and its node cache, the writer-side root, the
// batch apply, and the retire ring: the nodes each version's writes
// replaced leave the cache once that version leaves the retain_versions
// window. Reads take no lock; the owner serializes the writer side.
class VersionedIndex {
 public:
  // `chunks` and `cache` (the decoded-node cache) must outlive it. A
  // non-null `registry` receives <metric_prefix>.read_latency_ns,
  // .scan_latency_ns and .proof_build_latency_ns, the proof sizes
  // (index.siri.{proof,range_proof}_bytes.<backend>) and the cache's
  // decoded-node share (index.cache.*).
  VersionedIndex(SiriBackend backend, ChunkStore* chunks, BufferCache* cache,
                 const SiriIndexOptions& options, size_t retain_versions,
                 MetricsRegistry* registry, const std::string& metric_prefix);

  VersionedIndex(const VersionedIndex&) = delete;
  VersionedIndex& operator=(const VersionedIndex&) = delete;

  const SiriIndex* siri() const { return index_.get(); }

  // --- Writer side ----------------------------------------------------------

  // The current version: the root every write applies to.
  const Hash256& root() const { return root_; }
  // Makes `root`, a version already in the chunk store, current.
  void Adopt(const Hash256& root) { root_ = root; }
  // Builds the current version from `entries` (last write per key wins).
  Status Build(std::vector<PosEntry> entries) {
    return index_->Build(std::move(entries), &root_);
  }
  // Applies `batch` to the current version, atomically: on failure the
  // root and the replaced ids are untouched.
  Status Apply(const WriteBatch& batch);
  // `batch`'s ops, copy-on-write from *root, appending to *replaced the
  // ids of the index nodes they replaced. Deleting an absent key is a
  // no-op.
  Status ApplyTo(const WriteBatch& batch, Hash256* root,
                 std::vector<Hash256>* replaced) const;
  // The writes applied since the last Seal are a version: retires what
  // they replaced.
  void Seal() {
    Retire(std::move(replaced_));
    replaced_.clear();
  }
  // Files `replaced` as the newest version of the retain_versions
  // window; the ids of the version that leaves the window wait for
  // EraseExpired.
  void Retire(std::vector<Hash256> replaced);
  // Erases the expired ids from the cache, raw and decoded. Runs outside
  // the owner's writer lock, so writes do not wait on it.
  void EraseExpired();

  // --- Readers ---------------------------------------------------------------
  //
  // Each read pins the chunk store's epoch, so a GC pass cannot collect
  // the version mid-walk. A non-null proof comes from the same traversal
  // and names `root`. Timed in read_latency_ns (range: scan_latency_ns),
  // or proof_build_latency_ns with a proof.

  Status Read(const Hash256& root, const Slice& key, std::string* value,
              ReadProof* proof) const;
  // Range read of [start, end), at most `limit` rows (0 = no limit).
  Status ReadRange(const Hash256& root, const Slice& start, const Slice& end,
                   size_t limit, std::vector<PosEntry>* rows,
                   ScanProof* proof) const;
  uint64_t Count(const Hash256& root) const;

 private:
  ChunkStore* const chunks_;
  BufferCache* const cache_;
  const std::unique_ptr<SiriIndex> index_;
  const size_t retain_versions_;
  // All null without a registry (ScopedTimer tolerates null).
  Histogram* read_ns_ = nullptr;
  Histogram* scan_ns_ = nullptr;
  Histogram* proof_build_ns_ = nullptr;
  Histogram* proof_bytes_ = nullptr;
  Histogram* range_proof_bytes_ = nullptr;

  Hash256 root_;
  // Ids the writes since the last Seal replaced, then those of each of
  // the last retain_versions versions (oldest first).
  std::vector<Hash256> replaced_;
  std::deque<std::vector<Hash256>> retiring_;
  // Ids of the versions that left the window, for EraseExpired. Leaf
  // lock, taken under the owner's writer lock or alone.
  std::mutex expired_mu_;
  std::vector<Hash256> expired_;
};

}  // namespace spitz

#endif  // SPITZ_INDEX_VERSIONED_INDEX_H_
