#include "index/siri.h"

#include "common/codec.h"

namespace spitz {

const char* SiriBackendName(SiriBackend kind) {
  switch (kind) {
    case SiriBackend::kPosTree:
      return "pos-tree";
    case SiriBackend::kMerklePatriciaTrie:
      return "mpt";
    case SiriBackend::kMerkleBucketTree:
      return "mbt";
  }
  return "unknown";
}

// --- SiriProof wire format --------------------------------------------------
//
//   [kind:1]
//   kPosTree:             varint n, then n x (type:1, lp payload)
//   kMerklePatriciaTrie:  varint n, then n x lp payload
//   kMerkleBucketTree:    varint bucket_index, lp directory, lp bucket
//
// ("lp" = varint-length-prefixed byte string.)

namespace {

// Reads one lp payload as a node of `type` viewing the input.
Status GetProofNode(Slice* input, uint8_t type,
                    const std::shared_ptr<const void>& owner,
                    ProofNode* node) {
  Slice payload;
  Status s = GetLengthPrefixedSlice(input, &payload);
  if (!s.ok()) return s;
  *node = ProofNode{type, payload, owner};
  return Status::OK();
}

}  // namespace

void SiriProof::EncodeTo(std::string* out) const {
  out->push_back(static_cast<char>(kind));
  switch (kind) {
    case SiriBackend::kPosTree: {
      PutVarint64(out, pos.nodes.size());
      for (const ProofNode& node : pos.nodes) {
        out->push_back(static_cast<char>(node.type));
        PutLengthPrefixedSlice(out, node.payload);
      }
      break;
    }
    case SiriBackend::kMerklePatriciaTrie: {
      PutVarint64(out, mpt.nodes.size());
      for (const ProofNode& node : mpt.nodes) {
        PutLengthPrefixedSlice(out, node.payload);
      }
      break;
    }
    case SiriBackend::kMerkleBucketTree: {
      PutVarint64(out, mbt.bucket_index);
      PutLengthPrefixedSlice(out, mbt.directory.payload);
      PutLengthPrefixedSlice(out, mbt.bucket.payload);
      break;
    }
  }
}

size_t SiriProof::EncodedSize() const {
  size_t n = 1;
  switch (kind) {
    case SiriBackend::kPosTree:
      n += VarintLength(pos.nodes.size());
      for (const ProofNode& node : pos.nodes) {
        n += 1 + LengthPrefixedSize(node.payload);
      }
      break;
    case SiriBackend::kMerklePatriciaTrie:
      n += VarintLength(mpt.nodes.size());
      for (const ProofNode& node : mpt.nodes) {
        n += LengthPrefixedSize(node.payload);
      }
      break;
    case SiriBackend::kMerkleBucketTree:
      n += VarintLength(mbt.bucket_index) +
           LengthPrefixedSize(mbt.directory.payload) +
           LengthPrefixedSize(mbt.bucket.payload);
      break;
  }
  return n;
}

Status SiriProof::DecodeFrom(Slice* input, std::shared_ptr<const void> owner,
                             SiriProof* out) {
  *out = SiriProof();
  uint8_t tag = 0;
  Status s = GetByte(input, &tag);
  if (!s.ok()) return s;
  if (tag > static_cast<uint8_t>(SiriBackend::kMerkleBucketTree)) {
    return Status::Corruption("unknown proof backend tag");
  }
  out->kind = static_cast<SiriBackend>(tag);
  uint64_t n = 0;
  switch (out->kind) {
    case SiriBackend::kPosTree: {
      // Every node takes at least its type byte and a length byte.
      s = GetCount(input, 2, &n);
      if (!s.ok()) return s;
      out->pos.nodes.resize(n);
      for (ProofNode& node : out->pos.nodes) {
        uint8_t type = 0;
        s = GetByte(input, &type);
        if (s.ok()) s = GetProofNode(input, type, owner, &node);
        if (!s.ok()) return s;
      }
      return Status::OK();
    }
    case SiriBackend::kMerklePatriciaTrie: {
      s = GetCount(input, 1, &n);
      if (!s.ok()) return s;
      out->mpt.nodes.resize(n);
      for (ProofNode& node : out->mpt.nodes) {
        s = GetProofNode(input, static_cast<uint8_t>(ChunkType::kTrieNode),
                         owner, &node);
        if (!s.ok()) return s;
      }
      return Status::OK();
    }
    case SiriBackend::kMerkleBucketTree: {
      s = GetVarint32(input, &out->mbt.bucket_index);
      if (!s.ok()) return s;
      const uint8_t type = static_cast<uint8_t>(ChunkType::kBucket);
      s = GetProofNode(input, type, owner, &out->mbt.directory);
      if (!s.ok()) return s;
      return GetProofNode(input, type, owner, &out->mbt.bucket);
    }
  }
  return Status::Corruption("unknown proof backend tag");
}

Status SiriProof::Verify(
    const Hash256& root, const Slice& key,
    const std::optional<std::string>& expected_value) const {
  if (root.IsZero()) {
    // The zero root is the empty tree in every backend; it needs no
    // node payloads to prove any key absent (a cluster shard that has
    // never been written answers verified reads this way).
    if (expected_value.has_value()) {
      return Status::VerificationFailed("value claimed from an empty tree");
    }
    return Status::OK();
  }
  switch (kind) {
    case SiriBackend::kPosTree:
      return PosTree::VerifyProof(root, key, expected_value, pos);
    case SiriBackend::kMerklePatriciaTrie:
      return MerklePatriciaTrie::VerifyProof(root, key, expected_value, mpt);
    case SiriBackend::kMerkleBucketTree: {
      // The directory is committed to by the root, so the bucket count
      // may be derived from its size once the binding is re-checked by
      // the backend verifier.
      size_t dir = mbt.directory.payload.size();
      if (dir == 0 || dir % Hash256::kSize != 0) {
        return Status::VerificationFailed("malformed MBT directory");
      }
      MerkleBucketTree::Options options(
          static_cast<uint32_t>(dir / Hash256::kSize));
      return MerkleBucketTree::VerifyProof(root, key, expected_value, mbt,
                                           options);
    }
  }
  return Status::VerificationFailed("unknown proof backend");
}

size_t SiriProof::ByteSize() const {
  switch (kind) {
    case SiriBackend::kPosTree:
      return 1 + pos.ByteSize();
    case SiriBackend::kMerklePatriciaTrie: {
      size_t n = 1;
      for (const ProofNode& node : mpt.nodes) n += node.payload.size() + 1;
      return n;
    }
    case SiriBackend::kMerkleBucketTree:
      return 1 + 4 + mbt.directory.payload.size() + mbt.bucket.payload.size();
  }
  return 0;
}

// --- SiriRangeProof wire format ---------------------------------------------
//
//   [kind:1]  (kPosTree only today)
//   varint n, then n x (id:32, type:1, lp payload)

void SiriRangeProof::EncodeTo(std::string* out) const {
  out->push_back(static_cast<char>(kind));
  PutVarint64(out, pos.nodes.size());
  for (const auto& [id, node] : pos.nodes) {
    out->append(id.slice().view());
    out->push_back(static_cast<char>(node.type));
    PutLengthPrefixedSlice(out, node.payload);
  }
}

size_t SiriRangeProof::EncodedSize() const {
  size_t n = 1 + VarintLength(pos.nodes.size());
  for (const auto& [id, node] : pos.nodes) {
    n += Hash256::kSize + 1 + LengthPrefixedSize(node.payload);
  }
  return n;
}

Status SiriRangeProof::DecodeFrom(Slice* input,
                                  std::shared_ptr<const void> owner,
                                  SiriRangeProof* out) {
  *out = SiriRangeProof();
  uint8_t tag = 0;
  Status s = GetByte(input, &tag);
  if (!s.ok()) return s;
  if (tag != static_cast<uint8_t>(SiriBackend::kPosTree)) {
    return Status::Corruption("range proofs require a scan-capable backend");
  }
  out->kind = static_cast<SiriBackend>(tag);
  // Every node takes at least its id, its type byte and a length byte.
  uint64_t n = 0;
  s = GetCount(input, Hash256::kSize + 2, &n);
  if (!s.ok()) return s;
  std::vector<std::pair<Hash256, ProofNode>>& nodes = out->pos.nodes;
  nodes.resize(n);
  for (size_t i = 0; i < nodes.size(); i++) {
    auto& [id, node] = nodes[i];
    uint8_t type = 0;
    s = GetHash256(input, &id);
    if (s.ok()) s = GetByte(input, &type);
    if (s.ok() && i > 0 && !(nodes[i - 1].first < id)) {
      s = Status::Corruption("range proof nodes out of id order");
    }
    if (s.ok()) s = GetProofNode(input, type, owner, &node);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status SiriRangeProof::Verify(const Hash256& root, const Slice& start,
                              const Slice& end, size_t limit,
                              const std::vector<PosEntry>& expected) const {
  if (kind != SiriBackend::kPosTree) {
    return Status::VerificationFailed(
        "range proof from a backend without verified scans");
  }
  return PosTree::VerifyRangeProof(root, start, end, limit, expected, pos);
}

size_t SiriRangeProof::ByteSize() const { return 1 + pos.ByteSize(); }

void ReadProof::EncodeTo(std::string* out) const {
  out->append(index_root.slice().view());
  index_proof.EncodeTo(out);
}

Status ReadProof::DecodeFrom(Slice* input, std::shared_ptr<const void> owner,
                             ReadProof* out) {
  Status s = GetHash256(input, &out->index_root);
  if (!s.ok()) return s;
  return SiriProof::DecodeFrom(input, std::move(owner), &out->index_proof);
}

void ScanProof::EncodeTo(std::string* out) const {
  out->append(index_root.slice().view());
  index_proof.EncodeTo(out);
}

Status ScanProof::DecodeFrom(Slice* input, std::shared_ptr<const void> owner,
                             ScanProof* out) {
  Status s = GetHash256(input, &out->index_root);
  if (!s.ok()) return s;
  return SiriRangeProof::DecodeFrom(input, std::move(owner),
                                    &out->index_proof);
}

// --- SiriIndex defaults -----------------------------------------------------

Status SiriIndex::Build(std::vector<PosEntry> entries, Hash256* root) const {
  Hash256 r = EmptyRoot();
  for (const PosEntry& e : entries) {
    Status s = Put(r, e.key, e.value, &r);
    if (!s.ok()) return s;
  }
  *root = r;
  return Status::OK();
}

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
  Status Put(const Hash256& root, const Slice& key, const Slice& value,
             Hash256* new_root,
             std::vector<Hash256>* replaced = nullptr) const override {
    if constexpr (Kind == SiriBackend::kPosTree) {
      return tree_.Put(root, key, value, new_root, replaced);
    } else {
      return tree_.Put(root, key, value, new_root);
    }
  }
  Status Delete(const Hash256& root, const Slice& key, Hash256* new_root,
                std::vector<Hash256>* replaced = nullptr) const override {
    if constexpr (Kind == SiriBackend::kPosTree) {
      return tree_.Delete(root, key, new_root, replaced);
    } else {
      return tree_.Delete(root, key, new_root);
    }
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

// The POS-tree adds ordered scans, a native bulk build and a node cache.
class PosSiriIndex
    : public TreeSiriIndex<PosTree, SiriBackend::kPosTree, &SiriProof::pos> {
 public:
  PosSiriIndex(ChunkStore* store, PosTreeOptions options)
      : TreeSiriIndex(store, options) {}

  bool SupportsScan() const override { return true; }
  void SetNodeCache(BufferCache* cache) override {
    tree_.SetNodeCache(cache);
  }
  Status Build(std::vector<PosEntry> entries, Hash256* root) const override {
    return tree_.Build(std::move(entries), root);
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
          store, MerkleBucketTree::Options(options.mbt_bucket_count == 0
                                               ? 256u
                                               : options.mbt_bucket_count));
  }
  return std::make_unique<PosSiriIndex>(store, options.pos);
}

}  // namespace spitz
