#include "proof/pos_node.h"

#include <algorithm>
#include <limits>

#include "common/codec.h"

namespace spitz {

// --- Node serialization ----------------------------------------------------

size_t EntryListSize(std::span<const PosEntry> entries) {
  size_t size = VarintLength(entries.size());
  for (const PosEntry& e : entries) {
    size += LengthPrefixedSize(e.key) + LengthPrefixedSize(e.value);
  }
  return size;
}

void PutEntryList(std::string* dst, std::span<const PosEntry> entries) {
  PutVarint64(dst, entries.size());
  for (const PosEntry& e : entries) {
    PutLengthPrefixedSlice(dst, e.key);
    PutLengthPrefixedSlice(dst, e.value);
  }
}

Status GetEntryList(Slice* input, std::vector<PosEntry>* out) {
  out->clear();
  uint64_t n = 0;
  Status s = GetCount(input, 2, &n);  // two one-byte length prefixes
  if (!s.ok()) return s;
  out->reserve(n);
  for (uint64_t i = 0; i < n; i++) {
    Slice key, value;
    s = GetLengthPrefixedSlice(input, &key);
    if (s.ok()) s = GetLengthPrefixedSlice(input, &value);
    if (!s.ok()) return s;
    out->push_back(PosEntry{key.ToString(), value.ToString()});
  }
  return Status::OK();
}

std::string EncodePosMeta(const std::vector<PosChildRef>& children) {
  size_t size = VarintLength(children.size());
  for (const PosChildRef& c : children) {
    size += VarintLength(c.last_key.size()) + c.last_key.size() +
            Hash256::kSize + VarintLength(c.count);
  }
  std::string out;
  out.reserve(size);
  PutVarint64(&out, children.size());
  for (const PosChildRef& c : children) {
    PutLengthPrefixedSlice(&out, c.last_key);
    out.append(c.id.ToBytes());
    PutVarint64(&out, c.count);
  }
  return out;
}

Status PosNode::Decode(ChunkType type, const Slice& payload,
                       std::shared_ptr<const void> owner,
                       std::shared_ptr<const PosNode>* out) {
  return Parse(std::make_shared<PosNode>(Passkey(), type, payload,
                                         std::move(owner), payload.size(),
                                         /*from_chunk=*/false),
               out);
}

Status PosNode::Decode(std::shared_ptr<const Chunk> chunk,
                       std::shared_ptr<const PosNode>* out) {
  const ChunkType type = chunk->type();
  const Slice payload = chunk->data();
  const size_t owner_bytes = sizeof(Chunk) + chunk->payload().capacity();
  return Parse(std::make_shared<PosNode>(Passkey(), type, payload,
                                         std::move(chunk), owner_bytes,
                                         /*from_chunk=*/true),
               out);
}

Status PosNode::Parse(std::shared_ptr<PosNode> node,
                      std::shared_ptr<const PosNode>* out) {
  const ChunkType type = node->type_;
  if (type != ChunkType::kIndexLeaf && type != ChunkType::kIndexMeta) {
    return Status::Corruption("unexpected chunk type in tree");
  }
  if (node->payload_.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::Corruption("index node of 4 GiB or more");
  }
  const char* base = node->payload_.data();
  Slice input = node->payload_;
  const bool leaf = type == ChunkType::kIndexLeaf;
  // A leaf entry takes two one-byte length prefixes at least; a meta
  // child a one-byte key prefix, its id and a one-byte count.
  uint64_t n = 0;
  Status s = GetCount(&input, leaf ? 2 : 2 + Hash256::kSize, &n);
  if (!s.ok()) return s;
  if (!leaf && n == 0) return Status::Corruption("empty meta node");
  node->offsets_.reserve(n);
  for (uint64_t i = 0; i < n; i++) {
    node->offsets_.push_back(static_cast<uint32_t>(input.data() - base));
    Slice key;
    s = GetLengthPrefixedSlice(&input, &key);
    if (leaf) {
      Slice value;
      if (s.ok()) s = GetLengthPrefixedSlice(&input, &value);
    } else {
      Hash256 id;
      uint64_t count = 0;
      if (s.ok()) s = GetHash256(&input, &id);
      if (s.ok()) s = GetVarint64(&input, &count);
    }
    if (!s.ok()) return s;
  }
  s = CheckConsumed(input, "index node");
  if (s.ok()) *out = std::move(node);
  return s;
}

namespace {

// Readers of a node's fields at p, bytes PosNode::Parse has checked:
// each returns the byte past the field.
const char* ReadVarint(const char* p, uint64_t* value) {
  uint64_t result = 0;
  for (uint32_t shift = 0;; shift += 7) {
    const auto byte = static_cast<unsigned char>(*p++);
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
  }
  *value = result;
  return p;
}

const char* ReadPrefixed(const char* p, Slice* field) {
  uint64_t size = 0;
  p = ReadVarint(p, &size);
  *field = Slice(p, static_cast<size_t>(size));
  return p + size;
}

}  // namespace

Slice PosNode::key(size_t i) const {
  Slice key;
  ReadPrefixed(payload_.data() + offsets_[i], &key);
  return key;
}

Slice PosNode::value(size_t i) const {
  Slice key, value;
  ReadPrefixed(ReadPrefixed(payload_.data() + offsets_[i], &key), &value);
  return value;
}

PosEntry PosNode::entry(size_t i) const {
  return PosEntry{key(i).ToString(), value(i).ToString()};
}

size_t PosNode::LowerBound(const Slice& key) const {
  size_t lo = 0, hi = offsets_.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (this->key(mid).compare(key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// A meta's child ref starts with its last key, as a leaf entry starts
// with its key.
Slice PosNode::last_key(size_t i) const { return key(i); }

Hash256 PosNode::child_id(size_t i) const {
  Slice key;
  const char* id = ReadPrefixed(payload_.data() + offsets_[i], &key);
  return Hash256::FromBytes(Slice(id, Hash256::kSize));
}

PosChildRef PosNode::child(size_t i) const {
  PosChildRef ref;
  Slice key;
  const char* id = ReadPrefixed(payload_.data() + offsets_[i], &key);
  ref.last_key = key.ToString();
  ref.id = Hash256::FromBytes(Slice(id, Hash256::kSize));
  ReadVarint(id + Hash256::kSize, &ref.count);
  return ref;
}

std::vector<PosChildRef> PosNode::children() const {
  std::vector<PosChildRef> out;
  out.reserve(child_count());
  for (size_t i = 0; i < child_count(); i++) out.push_back(child(i));
  return out;
}

size_t PosNode::Route(const Slice& key) const {
  return std::min(LowerBound(key), child_count() - 1);
}

size_t PosNode::ByteSize() const {
  return sizeof(PosNode) + owner_bytes_ +
         offsets_.capacity() * sizeof(uint32_t);
}

// --- Verification ------------------------------------------------------

namespace {

bool IdBefore(const std::pair<Hash256, ProofNode>& entry, const Hash256& id) {
  return entry.first < id;
}

}  // namespace

void PosRangeProof::Add(const Hash256& id, ProofNode node) {
  auto it = std::lower_bound(nodes.begin(), nodes.end(), id, IdBefore);
  if (it != nodes.end() && it->first == id) return;
  nodes.emplace(it, id, std::move(node));
}

const ProofNode* PosRangeProof::Find(const Hash256& id) const {
  auto it = std::lower_bound(nodes.begin(), nodes.end(), id, IdBefore);
  return it != nodes.end() && it->first == id ? &it->second : nullptr;
}

namespace {

// Decodes one node a proof carries in place, after checking that it is
// the node `id` names: the proof's bytes are untrusted until they hash
// to it.
Status DecodeProofNode(const ProofNode& cited, const Hash256& id,
                       std::shared_ptr<const PosNode>* node) {
  const ChunkType type = static_cast<ChunkType>(cited.type);
  if (Chunk::IdOf(type, cited.payload) != id) {
    return Status::VerificationFailed("proof node hash mismatch");
  }
  if (!PosNode::Decode(type, cited.payload, cited.owner, node).ok()) {
    return Status::VerificationFailed("bad proof node payload");
  }
  return Status::OK();
}

}  // namespace

Status VerifyPosProof(const Hash256& root, const Slice& key,
                      const std::optional<std::string>& expected_value,
                      const PosProof& proof) {
  const size_t depth = proof.nodes.size();
  if (depth == 0) return Status::VerificationFailed("malformed proof");
  // Walk down from the root digest: each meta must route `key` to the
  // id the next node hashes to.
  Hash256 id = root;
  std::shared_ptr<const PosNode> node;
  for (size_t i = 0; i < depth; i++) {
    Status s = DecodeProofNode(proof.nodes[i], id, &node);
    if (!s.ok()) return s;
    if (i + 1 == depth) break;
    if (node->is_leaf()) {
      return Status::VerificationFailed("interior proof node is not meta");
    }
    id = node->child_id(node->Route(key));
  }
  if (!node->is_leaf()) {
    return Status::VerificationFailed("proof does not end at a leaf");
  }
  const size_t i = node->LowerBound(key);
  const bool present = i < node->entry_count() && node->key(i) == key;
  if (expected_value.has_value()) {
    if (!present) {
      return Status::VerificationFailed("proof shows key absent");
    }
    if (node->value(i) != Slice(*expected_value)) {
      return Status::VerificationFailed("value mismatch");
    }
  } else {
    if (present) {
      return Status::VerificationFailed("proof shows key present");
    }
  }
  return Status::OK();
}

Status VerifyPosRangeProof(const Hash256& root, const Slice& start,
                           const Slice& end, size_t limit,
                           const std::vector<PosEntry>& expected,
                           const PosRangeProof& proof) {
  if (root.IsZero()) {
    if (!expected.empty()) {
      return Status::VerificationFailed("results from an empty tree");
    }
    return Status::OK();
  }

  // Re-walk the proof from the root, recomputing every chunk id, and
  // match each entry the walk yields against the claimed results.
  size_t matched = 0;
  Status s = WalkRange(
      root, start, end, limit,
      [&](const Hash256& id, std::shared_ptr<const PosNode>* node) {
        const ProofNode* cited = proof.Find(id);
        if (cited == nullptr) {
          return Status::VerificationFailed("proof missing node " +
                                            id.ToHex());
        }
        return DecodeProofNode(*cited, id, node);
      },
      [&](const PosNode& leaf, size_t i) {
        if (matched == expected.size()) {
          return Status::VerificationFailed("result cardinality mismatch");
        }
        const PosEntry& e = expected[matched++];
        if (leaf.key(i) != Slice(e.key) || leaf.value(i) != Slice(e.value)) {
          return Status::VerificationFailed("result content mismatch");
        }
        return Status::OK();
      });
  if (!s.ok()) return s;
  if (matched != expected.size()) {
    return Status::VerificationFailed("result cardinality mismatch");
  }
  return Status::OK();
}

}  // namespace spitz
