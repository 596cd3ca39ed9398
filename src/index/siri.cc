#include "index/siri.h"

namespace spitz {

// --- SiriIndex defaults -----------------------------------------------------

Status SiriIndex::Scan(const Hash256&, const Slice&, const Slice&, size_t,
                       std::vector<PosEntry>* out, SiriRangeProof*) const {
  out->clear();
  return Status::NotSupported(std::string(name()) +
                              " does not support ordered scans");
}

// --- Backend adapters -------------------------------------------------------

namespace {

// One adapter per backend: `Tree` is the backend's tree, `Kind` its tag
// and `Body` the SiriProof member its point proofs fill.
template <typename Tree, SiriBackend Kind, auto Body>
class TreeSiriIndex : public SiriIndex {
 public:
  template <typename... Args>
  explicit TreeSiriIndex(ChunkStore* store, Args... args)
      : tree_(store, args...) {}

  SiriBackend kind() const override { return Kind; }

  Status Get(const Hash256& root, const Slice& key, std::string* value,
             SiriProof* proof) const override {
    if (proof == nullptr) return tree_.Get(root, key, value, nullptr);
    *proof = SiriProof();
    proof->kind = Kind;
    return tree_.Get(root, key, value, &(proof->*Body));
  }
  // One write at a time. A delete's NotFound is an absent key: a
  // missing node fails as Corruption (WritePathStatus).
  Status Apply(const Hash256& root, IndexWrites writes, Hash256* new_root,
               std::vector<Hash256>* /*replaced*/) const override {
    Hash256 r = root;
    for (size_t i = 0; i < writes.entries.size(); i++) {
      const PosEntry& e = writes.entries[i];
      Status s = writes.erases(i) ? tree_.Delete(r, e.key, &r)
                                  : tree_.Put(r, e.key, e.value, &r);
      if (!s.ok() && !(writes.erases(i) && s.IsNotFound())) return s;
    }
    *new_root = r;
    return Status::OK();
  }
  Status Count(const Hash256& root, uint64_t* count) const override {
    return tree_.Count(root, count);
  }
  Status CollectChunks(
      const Hash256& root,
      std::unordered_set<Hash256, Hash256Hasher>* live) const override {
    return tree_.CollectChunks(root, live);
  }

 protected:
  Tree tree_;
};

using MptSiriIndex = TreeSiriIndex<MerklePatriciaTrie,
                                   SiriBackend::kMerklePatriciaTrie,
                                   &SiriProof::mpt>;
using MbtSiriIndex = TreeSiriIndex<MerkleBucketTree,
                                   SiriBackend::kMerkleBucketTree,
                                   &SiriProof::mbt>;

// The POS-tree adds ordered scans, a one-pass batch and a node cache.
class PosSiriIndex
    : public TreeSiriIndex<PosTree, SiriBackend::kPosTree, &SiriProof::pos> {
 public:
  PosSiriIndex(ChunkStore* store, PosTreeOptions options)
      : TreeSiriIndex(store, options) {}

  bool SupportsScan() const override { return true; }
  void SetNodeCache(BufferCache* cache) override {
    tree_.SetNodeCache(cache);
  }
  Status Apply(const Hash256& root, IndexWrites writes, Hash256* new_root,
               std::vector<Hash256>* replaced) const override {
    return tree_.Apply(root, std::move(writes), new_root, replaced);
  }
  Status Scan(const Hash256& root, const Slice& start, const Slice& end,
              size_t limit, std::vector<PosEntry>* out,
              SiriRangeProof* proof) const override {
    if (proof == nullptr) {
      return tree_.Scan(root, start, end, limit, out, nullptr);
    }
    *proof = SiriRangeProof();
    proof->kind = SiriBackend::kPosTree;
    return tree_.Scan(root, start, end, limit, out, &proof->pos);
  }
};

}  // namespace

std::unique_ptr<SiriIndex> MakeSiriIndex(SiriBackend kind, ChunkStore* store,
                                         const SiriIndexOptions& options) {
  switch (kind) {
    case SiriBackend::kPosTree:
      return std::make_unique<PosSiriIndex>(store, options.pos);
    case SiriBackend::kMerklePatriciaTrie:
      return std::make_unique<MptSiriIndex>(store);
    case SiriBackend::kMerkleBucketTree:
      return std::make_unique<MbtSiriIndex>(
          store, MbtOptions(options.mbt_bucket_count == 0
                                               ? 256u
                                               : options.mbt_bucket_count));
  }
  return std::make_unique<PosSiriIndex>(store, options.pos);
}

}  // namespace spitz
