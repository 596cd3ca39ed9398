#include "proof/siri_proof.h"

#include <algorithm>

#include "chunk/chunk.h"
#include "common/codec.h"

namespace spitz {

// --- Merkle Patricia Trie ---------------------------------------------------

std::vector<uint8_t> MptNibbles(const Slice& key) {
  std::vector<uint8_t> nibbles;
  nibbles.reserve(key.size() * 2);
  for (size_t i = 0; i < key.size(); i++) {
    uint8_t b = static_cast<uint8_t>(key[i]);
    nibbles.push_back(b >> 4);
    nibbles.push_back(b & 0x0f);
  }
  return nibbles;
}

std::string EncodeMptNode(const MptNode& node) {
  std::string out;
  out.push_back(static_cast<char>(node.kind));
  const Slice path(reinterpret_cast<const char*>(node.path.data()),
                   node.path.size());
  switch (node.kind) {
    case MptNodeKind::kLeaf:
      PutLengthPrefixedSlice(&out, path);
      PutLengthPrefixedSlice(&out, node.value);
      break;
    case MptNodeKind::kExtension:
      PutLengthPrefixedSlice(&out, path);
      out.append(node.child.ToBytes());
      break;
    case MptNodeKind::kBranch: {
      uint16_t mask = 0;
      for (int i = 0; i < 16; i++) {
        if (!node.children[i].IsZero()) mask |= (1u << i);
      }
      PutFixed32(&out, mask);
      for (int i = 0; i < 16; i++) {
        if (!node.children[i].IsZero()) out.append(node.children[i].ToBytes());
      }
      out.push_back(node.has_value ? 1 : 0);
      if (node.has_value) PutLengthPrefixedSlice(&out, node.value);
      break;
    }
  }
  return out;
}

Status DecodeMptNode(const Slice& payload, MptNode* node) {
  Slice input = payload;
  uint8_t kind = 0;
  Slice path, value;
  Status s = GetByte(&input, &kind);
  if (!s.ok()) return s;
  node->kind = static_cast<MptNodeKind>(kind);
  switch (node->kind) {
    case MptNodeKind::kLeaf:
      s = GetLengthPrefixedSlice(&input, &path);
      if (s.ok()) s = GetLengthPrefixedSlice(&input, &value);
      break;
    case MptNodeKind::kExtension:
      s = GetLengthPrefixedSlice(&input, &path);
      if (s.ok()) s = GetHash256(&input, &node->child);
      break;
    case MptNodeKind::kBranch: {
      uint32_t mask = 0;
      s = GetFixed32(&input, &mask);
      if (s.ok() && mask > 0xffff) s = Status::Corruption("bad branch mask");
      // EncodeMptNode sets a mask bit for each non-zero child, and only
      // then.
      for (int i = 0; s.ok() && i < 16; i++) {
        node->children[i] = Hash256();
        if ((mask & (1u << i)) == 0) continue;
        s = GetHash256(&input, &node->children[i]);
        if (s.ok() && node->children[i].IsZero()) {
          s = Status::Corruption("zero branch child");
        }
      }
      if (s.ok()) s = GetBool(&input, &node->has_value);
      if (s.ok() && node->has_value) s = GetLengthPrefixedSlice(&input, &value);
      break;
    }
    default:
      return Status::Corruption("unknown trie node kind");
  }
  if (s.ok()) s = CheckConsumed(input, "trie node");
  if (!s.ok()) return s;
  node->path.assign(path.data(), path.data() + path.size());
  node->value = value.ToString();
  return Status::OK();
}

Status VerifyMptProof(const Hash256& root, const Slice& key,
                      const std::optional<std::string>& expected_value,
                      const MptProof& proof) {
  if (proof.nodes.empty()) {
    return Status::VerificationFailed("empty proof");
  }
  if (Chunk::IdOf(ChunkType::kTrieNode, proof.nodes[0].payload) != root) {
    return Status::VerificationFailed("proof root mismatch");
  }
  std::vector<uint8_t> nibbles = MptNibbles(key);
  size_t pos = 0;
  for (size_t i = 0; i < proof.nodes.size(); i++) {
    MptNode node;
    Status s = DecodeMptNode(proof.nodes[i].payload, &node);
    if (!s.ok()) return Status::VerificationFailed("bad proof node");
    bool last = (i + 1 == proof.nodes.size());
    switch (node.kind) {
      case MptNodeKind::kLeaf: {
        if (!last) return Status::VerificationFailed("leaf before proof end");
        bool match = nibbles.size() - pos == node.path.size() &&
                     std::equal(node.path.begin(), node.path.end(),
                                nibbles.begin() + pos);
        if (expected_value.has_value()) {
          if (!match || node.value != *expected_value) {
            return Status::VerificationFailed("value mismatch");
          }
        } else if (match) {
          return Status::VerificationFailed("proof shows key present");
        }
        return Status::OK();
      }
      case MptNodeKind::kExtension: {
        bool match = nibbles.size() - pos >= node.path.size() &&
                     std::equal(node.path.begin(), node.path.end(),
                                nibbles.begin() + pos);
        if (!match) {
          if (last && !expected_value.has_value()) return Status::OK();
          return Status::VerificationFailed("extension diverges");
        }
        pos += node.path.size();
        if (last) {
          if (!expected_value.has_value()) {
            return Status::VerificationFailed("proof truncated");
          }
          return Status::VerificationFailed("proof truncated");
        }
        Hash256 next =
            Chunk::IdOf(ChunkType::kTrieNode, proof.nodes[i + 1].payload);
        if (node.child != next) {
          return Status::VerificationFailed("broken hash link");
        }
        break;
      }
      case MptNodeKind::kBranch: {
        if (pos == nibbles.size()) {
          if (!last) {
            return Status::VerificationFailed("proof continues past key");
          }
          if (expected_value.has_value()) {
            if (!node.has_value || node.value != *expected_value) {
              return Status::VerificationFailed("value mismatch");
            }
          } else if (node.has_value) {
            return Status::VerificationFailed("proof shows key present");
          }
          return Status::OK();
        }
        uint8_t nib = nibbles[pos];
        if (node.children[nib].IsZero()) {
          if (last && !expected_value.has_value()) return Status::OK();
          return Status::VerificationFailed("branch has no such child");
        }
        if (last) {
          return Status::VerificationFailed("proof truncated");
        }
        Hash256 next =
            Chunk::IdOf(ChunkType::kTrieNode, proof.nodes[i + 1].payload);
        if (node.children[nib] != next) {
          return Status::VerificationFailed("broken hash link");
        }
        pos++;
        break;
      }
    }
  }
  return Status::VerificationFailed("malformed proof");
}

// --- Merkle Bucket Tree -----------------------------------------------------

uint32_t MbtBucketOf(const Slice& key, const MbtOptions& options) {
  Hash256 h = Hash256::Of(key);
  uint32_t prefix = (static_cast<uint32_t>(h.data()[0]) << 24) |
                    (static_cast<uint32_t>(h.data()[1]) << 16) |
                    (static_cast<uint32_t>(h.data()[2]) << 8) |
                    static_cast<uint32_t>(h.data()[3]);
  return prefix % options.bucket_count;
}

Status DecodeMbtBucket(Slice payload, std::vector<PosEntry>* entries) {
  Status s = GetEntryList(&payload, entries);
  return s.ok() ? CheckConsumed(payload, "MBT bucket") : s;
}

std::vector<PosEntry>::iterator MbtLowerBound(std::vector<PosEntry>& entries,
                                              const Slice& key) {
  return std::lower_bound(entries.begin(), entries.end(), key,
                          [](const PosEntry& e, const Slice& k) {
                            return Slice(e.key).compare(k) < 0;
                          });
}

std::string EncodeMbtDirectory(const std::vector<Hash256>& bucket_ids) {
  std::string payload;
  payload.reserve(bucket_ids.size() * Hash256::kSize);
  for (const Hash256& id : bucket_ids) payload.append(id.ToBytes());
  return payload;
}

Status DecodeMbtDirectory(const Slice& payload, const MbtOptions& options,
                          std::vector<Hash256>* bucket_ids) {
  if (payload.size() != options.bucket_count * Hash256::kSize) {
    return Status::Corruption("bad MBT directory size");
  }
  bucket_ids->clear();
  bucket_ids->reserve(options.bucket_count);
  for (uint32_t i = 0; i < options.bucket_count; i++) {
    bucket_ids->push_back(
        Hash256::FromBytes(Slice(payload.data() + i * Hash256::kSize,
                                 Hash256::kSize)));
  }
  return Status::OK();
}

Status VerifyMbtProof(const Hash256& root, const Slice& key,
                      const std::optional<std::string>& expected_value,
                      const MbtProof& proof, const MbtOptions& options) {
  // 1. The directory payload must hash to the trusted root.
  const Slice directory = proof.directory.payload;
  if (Chunk::IdOf(ChunkType::kBucket, directory) != root) {
    return Status::VerificationFailed("directory does not match root");
  }
  if (directory.size() !=
      static_cast<size_t>(options.bucket_count) * Hash256::kSize) {
    return Status::VerificationFailed("bad directory size");
  }
  // 2. The claimed bucket index must be the key's bucket.
  uint32_t b = MbtBucketOf(key, options);
  if (b != proof.bucket_index) {
    return Status::VerificationFailed("wrong bucket in proof");
  }
  Hash256 bucket_id = Hash256::FromBytes(
      Slice(directory.data() + b * Hash256::kSize,
            Hash256::kSize));
  // 3. Empty bucket: only non-membership can be shown.
  if (bucket_id.IsZero()) {
    if (expected_value.has_value()) {
      return Status::VerificationFailed("bucket empty but value expected");
    }
    return Status::OK();
  }
  // 4. The bucket payload must hash to the directory's id for it.
  if (Chunk::IdOf(ChunkType::kBucket, proof.bucket.payload) != bucket_id) {
    return Status::VerificationFailed("bucket payload mismatch");
  }
  std::vector<PosEntry> entries;
  if (!DecodeMbtBucket(proof.bucket.payload, &entries).ok()) {
    return Status::VerificationFailed("bad bucket payload");
  }
  auto it = MbtLowerBound(entries, key);
  bool present = it != entries.end() && Slice(it->key) == key;
  if (expected_value.has_value()) {
    if (!present || it->value != *expected_value) {
      return Status::VerificationFailed("value mismatch");
    }
  } else if (present) {
    return Status::VerificationFailed("proof shows key present");
  }
  return Status::OK();
}

// --- SIRI proof envelopes ---------------------------------------------------

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
      return VerifyPosProof(root, key, expected_value, pos);
    case SiriBackend::kMerklePatriciaTrie:
      return VerifyMptProof(root, key, expected_value, mpt);
    case SiriBackend::kMerkleBucketTree: {
      // The directory is committed to by the root, so the bucket count
      // may be derived from its size once the binding is re-checked by
      // the backend verifier.
      size_t dir = mbt.directory.payload.size();
      if (dir == 0 || dir % Hash256::kSize != 0) {
        return Status::VerificationFailed("malformed MBT directory");
      }
      MbtOptions options(static_cast<uint32_t>(dir / Hash256::kSize));
      return VerifyMbtProof(root, key, expected_value, mbt, options);
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
  return VerifyPosRangeProof(root, start, end, limit, expected, pos);
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

}  // namespace spitz
