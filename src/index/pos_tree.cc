#include "index/pos_tree.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "chunk/buffer_cache.h"
#include "common/codec.h"
#include "common/fork_join.h"

namespace spitz {

namespace {

// Bulk build: entries per piece when hashing, leaves encoded before any
// of them is stored (which bounds the encoded bytes in flight), and
// leaves per piece when encoding.
constexpr size_t kEntryHashGrain = 512;
constexpr size_t kLeafWindow = 512;
constexpr size_t kLeafGrain = 8;

// The one rule that closes a node, for bulk builds and updates alike: its
// last element matches the boundary pattern, or it reached the cap.
bool ClosesNode(bool boundary, size_t node_size, size_t max_elements) {
  return boundary || node_size >= max_elements;
}

uint32_t HashPrefix(const Hash256& h) {
  return (static_cast<uint32_t>(h.data()[0]) << 24) |
         (static_cast<uint32_t>(h.data()[1]) << 16) |
         (static_cast<uint32_t>(h.data()[2]) << 8) |
         static_cast<uint32_t>(h.data()[3]);
}

}  // namespace

bool PosTree::IsLeafBoundary(const Hash256& entry_hash) const {
  uint32_t mask = (1u << options_.leaf_pattern_bits) - 1;
  return (HashPrefix(entry_hash) & mask) == mask;
}

bool PosTree::IsMetaBoundary(const Hash256& child_id) const {
  uint32_t mask = (1u << options_.meta_pattern_bits) - 1;
  return (HashPrefix(child_id) & mask) == mask;
}

Hash256 PosTree::EntryHash(const PosEntry& e) {
  // SHA-256 of the length-prefixed key and value, streamed from the
  // entry rather than copied out.
  Sha256 h;
  char len[10];
  h.Update(len, EncodeVarint64(len, e.key.size()) - len);
  h.Update(e.key);
  h.Update(len, EncodeVarint64(len, e.value.size()) - len);
  h.Update(e.value);
  Hash256 out;
  h.Final(out.data());
  return out;
}

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

std::string PosTree::EncodeLeaf(std::span<const PosEntry> entries) {
  std::string out;
  out.reserve(EntryListSize(entries));  // the chunk keeps it: no slack
  PutEntryList(&out, entries);
  return out;
}

std::string PosTree::EncodeMeta(const std::vector<ChildRef>& children) {
  size_t size = VarintLength(children.size());
  for (const ChildRef& c : children) {
    size += VarintLength(c.last_key.size()) + c.last_key.size() +
            Hash256::kSize + VarintLength(c.count);
  }
  std::string out;
  out.reserve(size);
  PutVarint64(&out, children.size());
  for (const ChildRef& c : children) {
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

PosTree::ChildRef PosNode::child(size_t i) const {
  PosTree::ChildRef ref;
  Slice key;
  const char* id = ReadPrefixed(payload_.data() + offsets_[i], &key);
  ref.last_key = key.ToString();
  ref.id = Hash256::FromBytes(Slice(id, Hash256::kSize));
  ReadVarint(id + Hash256::kSize, &ref.count);
  return ref;
}

std::vector<PosTree::ChildRef> PosNode::children() const {
  std::vector<PosTree::ChildRef> out;
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

Status PosTree::LoadNode(const Hash256& id,
                         std::shared_ptr<const PosNode>* node) const {
  if (cache_ != nullptr) {
    if (auto cached = cache_->Lookup(BufferCache::kPosNode, id)) {
      *node = std::static_pointer_cast<const PosNode>(std::move(cached));
      return Status::OK();
    }
  }
  std::shared_ptr<const Chunk> chunk;
  Status s = store_->Get(id, &chunk);
  if (!s.ok()) return s;
  std::shared_ptr<const PosNode> decoded;
  s = PosNode::Decode(std::move(chunk), &decoded);
  if (!s.ok()) return s;
  if (cache_ != nullptr) {
    cache_->Insert(BufferCache::kPosNode, id, decoded, decoded->ByteSize());
  }
  *node = std::move(decoded);
  return Status::OK();
}

PosTree::ChildRef PosTree::StoreLeaf(const std::vector<PosEntry>& entries,
                                     const Chunk* base) const {
  ChildRef ref;
  ref.last_key = entries.empty() ? std::string() : entries.back().key;
  ref.count = entries.size();
  ref.id = store_->Put(Chunk(ChunkType::kIndexLeaf, EncodeLeaf(entries)),
                       base);
  return ref;
}

PosTree::ChildRef PosTree::StoreMeta(const std::vector<ChildRef>& children,
                                     const Chunk* base) const {
  ChildRef ref;
  ref.last_key = children.empty() ? std::string() : children.back().last_key;
  ref.count = 0;
  for (const ChildRef& c : children) ref.count += c.count;
  ref.id = store_->Put(Chunk(ChunkType::kIndexMeta, EncodeMeta(children)),
                       base);
  return ref;
}

// Emits nodes for every closed (pattern- or cap-terminated) run prefix
// and returns the open suffix.
namespace {
template <typename Elem, typename BoundaryFn, typename EmitFn>
std::vector<Elem> EmitClosedRuns(const std::vector<Elem>& run,
                                 size_t max_elements, BoundaryFn boundary,
                                 EmitFn emit) {
  std::vector<Elem> current;
  for (const Elem& e : run) {
    current.push_back(e);
    if (ClosesNode(boundary(e), current.size(), max_elements)) {
      emit(current);
      current.clear();
    }
  }
  return current;
}
}  // namespace

std::vector<PosTree::ChildRef> PosTree::EmitMetas(
    const std::vector<ChildRef>& run) const {
  std::vector<ChildRef> out;
  std::vector<ChildRef> suffix = EmitClosedRuns(
      run, options_.max_node_elements,
      [&](const ChildRef& c) { return IsMetaBoundary(c.id); },
      [&](const std::vector<ChildRef>& node) {
        out.push_back(StoreMeta(node));
      });
  if (!suffix.empty()) out.push_back(StoreMeta(suffix));
  return out;
}

Hash256 PosTree::BuildUp(std::vector<ChildRef> level_refs) const {
  while (level_refs.size() > 1) level_refs = EmitMetas(level_refs);
  if (level_refs.empty()) return EmptyRoot();
  return level_refs[0].id;
}

Status PosTree::Build(std::vector<PosEntry> entries, Hash256* root) const {
  auto by_key = [](const PosEntry& a, const PosEntry& b) {
    return a.key < b.key;
  };
  // A bulk load usually arrives in strictly increasing key order, which
  // one pass confirms: then nothing is sorted, moved or dropped. Sorting
  // even sorted input moves every entry log2(n) times.
  if (std::adjacent_find(entries.begin(), entries.end(),
                         [&](const PosEntry& a, const PosEntry& b) {
                           return !by_key(a, b);
                         }) != entries.end()) {
    if (!std::is_sorted(entries.begin(), entries.end(), by_key)) {
      std::stable_sort(entries.begin(), entries.end(), by_key);
    }
    // Deduplicate by key in place, keeping the last occurrence.
    size_t kept = 0;
    for (size_t i = 0; i < entries.size(); i++) {
      if (i + 1 < entries.size() && entries[i + 1].key == entries[i].key) {
        continue;
      }
      if (kept != i) entries[kept] = std::move(entries[i]);
      kept++;
    }
    entries.erase(entries.begin() + kept, entries.end());
  }
  if (entries.empty()) {
    *root = EmptyRoot();
    return Status::OK();
  }
  // The leaves come out as the update path's serial split would cut and
  // store them. The independent work, every entry hash and every leaf's
  // encoding and chunk id, runs on all cores; cutting, allocating and
  // storing stay on this thread, in key order.
  std::vector<uint8_t> boundary(entries.size());
  ParallelFor(entries.size(), kEntryHashGrain, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; i++) {
      boundary[i] = IsLeafBoundary(EntryHash(entries[i]));
    }
  });
  std::vector<size_t> leaf_ends;  // leaf j is [leaf_ends[j - 1], leaf_ends[j])
  size_t open = 0;
  for (size_t i = 0; i < entries.size(); i++) {
    if (ClosesNode(boundary[i], i + 1 - open, options_.max_node_elements)) {
      open = i + 1;
      leaf_ends.push_back(open);
    }
  }
  if (open < entries.size()) leaf_ends.push_back(entries.size());
  auto leaf = [&](size_t j) {
    const size_t begin = j == 0 ? 0 : leaf_ends[j - 1];
    return std::span<const PosEntry>(entries).subspan(begin,
                                                      leaf_ends[j] - begin);
  };
  std::vector<ChildRef> leaves;
  leaves.reserve(leaf_ends.size());
  std::vector<std::string> payloads;
  std::vector<Chunk> chunks;
  for (size_t first = 0; first < leaf_ends.size(); first += kLeafWindow) {
    const size_t count = std::min(kLeafWindow, leaf_ends.size() - first);
    payloads.resize(count);
    chunks.resize(count);
    for (size_t k = 0; k < count; k++) {  // each exactly the chunk's bytes
      payloads[k].reserve(EntryListSize(leaf(first + k)));
    }
    ParallelFor(count, kLeafGrain, [&](size_t begin, size_t end) {
      for (size_t k = begin; k < end; k++) {
        PutEntryList(&payloads[k], leaf(first + k));
        chunks[k] = Chunk(ChunkType::kIndexLeaf, std::move(payloads[k]));
      }
    });
    for (size_t k = 0; k < count; k++) {
      const std::span<const PosEntry> node = leaf(first + k);
      leaves.push_back(ChildRef{node.back().key, chunks[k].id(), node.size()});
      store_->Put(std::move(chunks[k]));
    }
  }
  *root = BuildUp(std::move(leaves));
  return Status::OK();
}

// --- Reads -------------------------------------------------------------

namespace {

// A proof's reference to a decoded node: its bytes, held by the node.
ProofNode CiteNode(const std::shared_ptr<const PosNode>& node) {
  return ProofNode{static_cast<uint8_t>(node->type()), node->payload(), node};
}

// Appends a leaf's entries as owned copies (for building new leaves).
void AppendEntries(const PosNode& leaf, std::vector<PosEntry>* out) {
  for (size_t i = 0; i < leaf.entry_count(); i++) {
    out->push_back(leaf.entry(i));
  }
}

// Appends a meta's children [begin, end) as owned refs (for building
// new metas).
void AppendChildren(const PosNode& meta, size_t begin, size_t end,
                    std::vector<PosTree::ChildRef>* out) {
  for (size_t i = begin; i < end; i++) out->push_back(meta.child(i));
}

// The range walk that Scan runs over the store and VerifyRangeProof runs
// over a proof: visits, in key order, the subtrees that can intersect
// [start, end) and hands every entry in range to `emit(leaf, i)` until
// `limit` entries (0 = no limit) have gone out. `load(id, &node)`
// resolves a node; either callback stops the walk with an error.
template <typename Load, typename Emit>
struct RangeWalk {
  Slice start, end;
  size_t limit;
  Load load;
  Emit emit;
  size_t emitted = 0;

  Status Visit(const Hash256& id, bool* done) {
    std::shared_ptr<const PosNode> node;
    Status s = load(id, &node);
    if (!s.ok()) return s;
    if (node->is_leaf()) {
      for (size_t i = node->LowerBound(start); i < node->entry_count(); i++) {
        if (!end.empty() && node->key(i).compare(end) >= 0) {
          *done = true;
          return Status::OK();
        }
        s = emit(*node, i);
        if (!s.ok()) return s;
        if (limit > 0 && ++emitted >= limit) {
          *done = true;
          return Status::OK();
        }
      }
      return Status::OK();
    }
    for (size_t i = 0; i < node->child_count() && !*done; i++) {
      // Skip subtrees entirely below the range start; subtrees after
      // one that reached `end` are never visited.
      if (node->last_key(i).compare(start) < 0) continue;
      s = Visit(node->child_id(i), done);
      if (!s.ok()) return s;
    }
    return Status::OK();
  }
};

template <typename Load, typename Emit>
Status WalkRange(const Hash256& root, const Slice& start, const Slice& end,
                 size_t limit, Load load, Emit emit) {
  RangeWalk<Load, Emit> walk{start, end, limit, std::move(load),
                             std::move(emit)};
  bool done = false;
  return walk.Visit(root, &done);
}

}  // namespace

Status PosTree::Get(const Hash256& root, const Slice& key, std::string* value,
                    PosProof* proof) const {
  if (proof != nullptr) proof->nodes.clear();
  if (root.IsZero()) return Status::NotFound("empty tree");
  Hash256 id = root;
  while (true) {
    std::shared_ptr<const PosNode> node;
    Status s = LoadNode(id, &node);
    if (!s.ok()) return s;
    if (proof != nullptr) proof->nodes.push_back(CiteNode(node));
    if (!node->is_leaf()) {
      id = node->child_id(node->Route(key));
      continue;
    }
    const size_t i = node->LowerBound(key);
    if (i == node->entry_count() || node->key(i) != key) {
      // A proof still demonstrates non-membership.
      return Status::NotFound("key absent");
    }
    const Slice found = node->value(i);
    value->assign(found.data(), found.size());
    return Status::OK();
  }
}

Status PosTree::Scan(const Hash256& root, const Slice& start, const Slice& end,
                     size_t limit, std::vector<PosEntry>* out,
                     PosRangeProof* proof) const {
  out->clear();
  if (proof != nullptr) proof->nodes.clear();
  if (root.IsZero()) return Status::OK();
  // With a proof, every visited node is cited by it (the "proofs come
  // back with the scan" behaviour of section 6.2.2).
  return WalkRange(
      root, start, end, limit,
      [&](const Hash256& id, std::shared_ptr<const PosNode>* node) {
        Status s = LoadNode(id, node);
        if (s.ok() && proof != nullptr) proof->Add(id, CiteNode(*node));
        return s;
      },
      [&](const PosNode& leaf, size_t i) {
        out->push_back(leaf.entry(i));
        return Status::OK();
      });
}

Status PosTree::Count(const Hash256& root, uint64_t* count) const {
  *count = 0;
  if (root.IsZero()) return Status::OK();
  std::shared_ptr<const PosNode> node;
  Status s = LoadNode(root, &node);
  if (!s.ok()) return s;
  if (node->is_leaf()) {
    *count = node->entry_count();
    return Status::OK();
  }
  for (size_t i = 0; i < node->child_count(); i++) {
    *count += node->child(i).count;
  }
  return Status::OK();
}

Status PosTree::CollectChunks(
    const Hash256& root,
    std::unordered_set<Hash256, Hash256Hasher>* live) const {
  if (root.IsZero() || live->count(root) != 0) return Status::OK();
  // Every leaf sits at the same depth (a tree is the bulk build of its
  // entries), so one descent finds the level whose ids the parents'
  // refs name without reading the leaves themselves.
  uint32_t height = 0;
  Status s = Height(root, &height);
  if (!s.ok()) return s;
  return CollectSubtree(root, height, live);
}

Status PosTree::CollectSubtree(
    const Hash256& id, uint32_t height,
    std::unordered_set<Hash256, Hash256Hasher>* live) const {
  if (!live->insert(id).second) return Status::OK();  // shared subtree
  if (height <= 1) return Status::OK();               // a leaf
  std::shared_ptr<const PosNode> node;
  Status s = LoadNode(id, &node);
  if (!s.ok()) return s;
  if (node->is_leaf()) {
    return Status::Corruption("leaf above the leaf level of " + id.ToHex());
  }
  for (size_t i = 0; i < node->child_count(); i++) {
    s = CollectSubtree(node->child_id(i), height - 1, live);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status PosTree::Height(const Hash256& root, uint32_t* height) const {
  *height = 0;
  Hash256 id = root;
  while (!id.IsZero()) {
    std::shared_ptr<const PosNode> node;
    Status s = LoadNode(id, &node);
    if (!s.ok()) return s;
    (*height)++;
    if (node->is_leaf()) break;
    id = node->child_id(0);
  }
  return Status::OK();
}

// --- Updates -----------------------------------------------------------

std::optional<PosTree::ChildRef> PosTree::SiblingCursor::Next() {
  // Find the deepest frame that can advance.
  int i = static_cast<int>(frames_.size()) - 1;
  while (i >= 0 && frames_[i].idx + 1 >= frames_[i].node->child_count()) {
    i--;
  }
  if (i < 0) return std::nullopt;
  frames_[i].idx++;
  // Re-descend to the cursor level along the leftmost path.
  for (size_t l = i + 1; l < frames_.size(); l++) {
    const PathFrame& parent = frames_[l - 1];
    std::shared_ptr<const PosNode> node;
    Status s = tree_->LoadNode(parent.node->child_id(parent.idx), &node);
    if (!s.ok()) return std::nullopt;
    if (node->is_leaf()) {
      return std::nullopt;  // structure shallower than expected
    }
    frames_[l] = PathFrame{std::move(node), 0};
  }
  const PathFrame& bottom = frames_.back();
  return bottom.node->child(bottom.idx);
}

Status PosTree::Put(const Hash256& root, const Slice& key, const Slice& value,
                    Hash256* new_root, std::vector<Hash256>* replaced) const {
  return Update(root, key, value.ToString(), new_root, replaced);
}

Status PosTree::Delete(const Hash256& root, const Slice& key,
                       Hash256* new_root,
                       std::vector<Hash256>* replaced) const {
  return Update(root, key, std::nullopt, new_root, replaced);
}

Status PosTree::Update(const Hash256& root, const Slice& key,
                       const std::optional<std::string>& value,
                       Hash256* new_root,
                       std::vector<Hash256>* replaced) const {
  if (root.IsZero()) {
    if (!value.has_value()) return Status::NotFound("empty tree");
    // One entry is one leaf, the whole tree.
    *new_root = StoreLeaf({PosEntry{key.ToString(), *value}}).id;
    return Status::OK();
  }

  // 1. Descend to the leaf, recording the path. The node taken at each
  //    level is the base every node rebuilt at that level is handed to
  //    the store with (ChunkStore::Put). `old_ids` gathers every node of
  //    `root` this write replaces, `new_ids` every node it stores up to
  //    the old root's level (a node stored above it, as the tree grows,
  //    cannot repeat an old one).
  std::vector<Hash256> old_ids;
  std::vector<Hash256> new_ids;
  std::vector<PathFrame> frames;
  std::shared_ptr<const PosNode> leaf;
  Hash256 id = root;
  std::vector<PosEntry> leaf_entries;
  while (true) {
    std::shared_ptr<const PosNode> node;
    Status s = LoadNode(id, &node);
    if (!s.ok()) return s;
    old_ids.push_back(id);
    if (node->is_leaf()) {
      AppendEntries(*node, &leaf_entries);
      leaf = std::move(node);
      break;
    }
    const size_t idx = node->Route(key);
    id = node->child_id(idx);
    frames.push_back(PathFrame{std::move(node), idx});
  }

  // 2. Apply the mutation to the leaf's entry run.
  auto it = std::lower_bound(leaf_entries.begin(), leaf_entries.end(), key,
                             [](const PosEntry& e, const Slice& k) {
                               return Slice(e.key).compare(k) < 0;
                             });
  if (value.has_value()) {
    if (it != leaf_entries.end() && Slice(it->key) == key) {
      if (it->value == *value) {
        *new_root = root;  // no-op write: version unchanged
        return Status::OK();
      }
      it->value = *value;
    } else {
      leaf_entries.insert(it, PosEntry{key.ToString(), *value});
    }
  } else {
    if (it == leaf_entries.end() || Slice(it->key) != key) {
      return Status::NotFound("key absent");
    }
    leaf_entries.erase(it);
  }

  // 3. Rebuild level 0 (leaves), re-chunking rightward until the
  //    content-defined boundaries realign with the old structure.
  SiblingCursor leaf_cursor(this, frames);
  std::vector<ChildRef> new_refs;
  uint64_t consumed_old = 1;  // the leaf we descended into
  std::vector<PosEntry> pending = std::move(leaf_entries);
  while (true) {
    std::vector<PosEntry> suffix = EmitClosedRuns(
        pending, options_.max_node_elements,
        [&](const PosEntry& e) { return IsLeafBoundary(EntryHash(e)); },
        [&](const std::vector<PosEntry>& node) {
          new_refs.push_back(StoreLeaf(node, leaf->chunk()));
        });
    if (suffix.empty()) break;  // realigned with the old chunking
    std::optional<ChildRef> next = leaf_cursor.Next();
    if (!next.has_value()) {
      // The rightmost open leaf.
      new_refs.push_back(StoreLeaf(suffix, leaf->chunk()));
      break;
    }
    consumed_old++;
    old_ids.push_back(next->id);
    std::shared_ptr<const PosNode> next_node;
    Status s = LoadNode(next->id, &next_node);
    if (!s.ok()) return s;
    if (!next_node->is_leaf()) {
      return Status::Corruption("expected leaf sibling during update");
    }
    pending = std::move(suffix);
    AppendEntries(*next_node, &pending);
  }

  for (const ChildRef& ref : new_refs) new_ids.push_back(ref.id);

  // 4. Propagate upward level by level.
  for (int fi = static_cast<int>(frames.size()) - 1; fi >= 0; fi--) {
    const PosNode& parent = *frames[fi].node;
    const size_t idx = frames[fi].idx;
    SiblingCursor cursor(
        this, std::vector<PathFrame>(frames.begin(), frames.begin() + fi));

    // Splice: children before the descent point stay; `consumed_old`
    // old children (possibly spanning sibling nodes) are replaced by
    // new_refs; the rest of the partially-consumed node is kept.
    std::vector<ChildRef> pending_children;
    AppendChildren(parent, 0, idx, &pending_children);
    pending_children.insert(pending_children.end(), new_refs.begin(),
                            new_refs.end());
    uint64_t nodes_consumed_here = 1;  // this frame's node
    uint64_t to_consume = consumed_old;
    std::vector<ChildRef> remaining;
    AppendChildren(parent, idx, parent.child_count(), &remaining);
    while (remaining.size() < to_consume) {
      to_consume -= remaining.size();
      std::optional<ChildRef> sib = cursor.Next();
      if (!sib.has_value()) {
        to_consume = 0;
        remaining.clear();
        break;
      }
      nodes_consumed_here++;
      old_ids.push_back(sib->id);
      std::shared_ptr<const PosNode> sib_node;
      Status s = LoadNode(sib->id, &sib_node);
      if (!s.ok()) return s;
      if (sib_node->is_leaf()) {
        return Status::Corruption("expected meta sibling during update");
      }
      remaining = sib_node->children();
    }
    pending_children.insert(pending_children.end(),
                            remaining.begin() + to_consume, remaining.end());

    // Re-chunk this level until boundaries realign.
    std::vector<ChildRef> refs_up;
    std::vector<ChildRef> level_pending = std::move(pending_children);
    while (true) {
      std::vector<ChildRef> suffix = EmitClosedRuns(
          level_pending, options_.max_node_elements,
          [&](const ChildRef& c) { return IsMetaBoundary(c.id); },
          [&](const std::vector<ChildRef>& node) {
            refs_up.push_back(StoreMeta(node, parent.chunk()));
          });
      if (suffix.empty()) break;
      std::optional<ChildRef> sib = cursor.Next();
      if (!sib.has_value()) {
        refs_up.push_back(StoreMeta(suffix, parent.chunk()));
        break;
      }
      nodes_consumed_here++;
      old_ids.push_back(sib->id);
      std::shared_ptr<const PosNode> sib_node;
      Status s = LoadNode(sib->id, &sib_node);
      if (!s.ok()) return s;
      if (sib_node->is_leaf()) {
        return Status::Corruption("expected meta sibling during update");
      }
      level_pending = std::move(suffix);
      AppendChildren(*sib_node, 0, sib_node->child_count(), &level_pending);
    }
    for (const ChildRef& ref : refs_up) new_ids.push_back(ref.id);
    new_refs = std::move(refs_up);
    consumed_old = nodes_consumed_here;
  }

  // 5. Form the new root; collapse single-child meta chains so the
  //    result is identical to a fresh bulk build of the same data
  //    (structural invariance).
  Hash256 result = BuildUp(std::move(new_refs));
  std::vector<Hash256> collapsed;  // stored above, in no version
  while (!result.IsZero()) {
    std::shared_ptr<const PosNode> node;
    Status s = LoadNode(result, &node);
    if (!s.ok()) return s;
    if (node->is_leaf()) break;
    if (node->child_count() != 1) break;
    collapsed.push_back(result);
    result = node->child_id(0);
  }
  *new_root = result;
  if (replaced != nullptr) {
    // A re-chunk can store a node identical to one it consumed; the new
    // version holds that one, so it is not replaced.
    std::sort(new_ids.begin(), new_ids.end());
    for (const Hash256& old : old_ids) {
      if (!std::binary_search(new_ids.begin(), new_ids.end(), old)) {
        replaced->push_back(old);
      }
    }
    replaced->insert(replaced->end(), collapsed.begin(), collapsed.end());
  }
  return Status::OK();
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

Status PosTree::VerifyProof(const Hash256& root, const Slice& key,
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

Status PosTree::VerifyRangeProof(const Hash256& root, const Slice& start,
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
