#include "index/pos_tree.h"

#include <algorithm>
#include <cassert>

#include "chunk/buffer_cache.h"
#include "common/codec.h"

namespace spitz {

namespace {

// Routing: first child whose last_key >= key; keys greater than every
// last_key route to the rightmost child (where an insert would land).
template <typename ChildVec>
size_t RouteChild(const ChildVec& children, const Slice& key) {
  size_t lo = 0, hi = children.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (Slice(children[mid].last_key).compare(key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == children.size()) lo = children.size() - 1;
  return lo;
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
  std::string buf;
  PutLengthPrefixedSlice(&buf, e.key);
  PutLengthPrefixedSlice(&buf, e.value);
  return Hash256::Of(buf);
}

// --- Node serialization ----------------------------------------------------

std::string PosTree::EncodeLeaf(const std::vector<PosEntry>& entries) {
  std::string out;
  PutVarint64(&out, entries.size());
  for (const PosEntry& e : entries) {
    PutLengthPrefixedSlice(&out, e.key);
    PutLengthPrefixedSlice(&out, e.value);
  }
  return out;
}

Status PosTree::DecodeLeaf(const Slice& payload, std::vector<PosEntry>* out) {
  Slice input = payload;
  uint64_t n = 0;
  Status s = GetVarint64(&input, &n);
  if (!s.ok()) return s;
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n; i++) {
    Slice key, value;
    s = GetLengthPrefixedSlice(&input, &key);
    if (!s.ok()) return s;
    s = GetLengthPrefixedSlice(&input, &value);
    if (!s.ok()) return s;
    out->push_back(PosEntry{key.ToString(), value.ToString()});
  }
  return Status::OK();
}

std::string PosTree::EncodeMeta(const std::vector<ChildRef>& children) {
  std::string out;
  PutVarint64(&out, children.size());
  for (const ChildRef& c : children) {
    PutLengthPrefixedSlice(&out, c.last_key);
    out.append(c.id.ToBytes());
    PutVarint64(&out, c.count);
  }
  return out;
}

Status PosTree::DecodeMeta(const Slice& payload, std::vector<ChildRef>* out) {
  Slice input = payload;
  uint64_t n = 0;
  Status s = GetVarint64(&input, &n);
  if (!s.ok()) return s;
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n; i++) {
    ChildRef c;
    Slice key;
    s = GetLengthPrefixedSlice(&input, &key);
    if (!s.ok()) return s;
    c.last_key = key.ToString();
    if (!GetHash256(&input, &c.id)) {
      return Status::Corruption("truncated meta node");
    }
    s = GetVarint64(&input, &c.count);
    if (!s.ok()) return s;
    out->push_back(std::move(c));
  }
  return Status::OK();
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
  auto decoded = std::make_shared<PosNode>();
  decoded->type = chunk->type();
  decoded->payload = chunk->payload();
  if (chunk->type() == ChunkType::kIndexLeaf) {
    s = DecodeLeaf(chunk->data(), &decoded->entries);
  } else if (chunk->type() == ChunkType::kIndexMeta) {
    s = DecodeMeta(chunk->data(), &decoded->children);
  } else {
    return Status::Corruption("unexpected chunk type in tree");
  }
  if (!s.ok()) return s;
  if (cache_ != nullptr) {
    cache_->Insert(BufferCache::kPosNode, id, decoded, decoded->ByteSize());
  }
  *node = std::move(decoded);
  return Status::OK();
}

PosTree::ChildRef PosTree::StoreLeaf(
    const std::vector<PosEntry>& entries) const {
  ChildRef ref;
  ref.last_key = entries.empty() ? std::string() : entries.back().key;
  ref.count = entries.size();
  ref.id = store_->Put(Chunk(ChunkType::kIndexLeaf, EncodeLeaf(entries)));
  return ref;
}

PosTree::ChildRef PosTree::StoreMeta(
    const std::vector<ChildRef>& children) const {
  ChildRef ref;
  ref.last_key = children.empty() ? std::string() : children.back().last_key;
  ref.count = 0;
  for (const ChildRef& c : children) ref.count += c.count;
  ref.id = store_->Put(Chunk(ChunkType::kIndexMeta, EncodeMeta(children)));
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
    if (boundary(e) || current.size() >= max_elements) {
      emit(current);
      current.clear();
    }
  }
  return current;
}
}  // namespace

std::vector<PosTree::ChildRef> PosTree::EmitLeaves(
    const std::vector<PosEntry>& run, bool* open_tail) const {
  std::vector<ChildRef> out;
  std::vector<PosEntry> suffix = EmitClosedRuns(
      run, options_.max_node_elements,
      [&](const PosEntry& e) { return IsLeafBoundary(EntryHash(e)); },
      [&](const std::vector<PosEntry>& node) { out.push_back(StoreLeaf(node)); });
  *open_tail = !suffix.empty();
  if (!suffix.empty()) out.push_back(StoreLeaf(suffix));
  return out;
}

std::vector<PosTree::ChildRef> PosTree::EmitMetas(
    const std::vector<ChildRef>& run, bool* open_tail) const {
  std::vector<ChildRef> out;
  std::vector<ChildRef> suffix = EmitClosedRuns(
      run, options_.max_node_elements,
      [&](const ChildRef& c) { return IsMetaBoundary(c.id); },
      [&](const std::vector<ChildRef>& node) { out.push_back(StoreMeta(node)); });
  *open_tail = !suffix.empty();
  if (!suffix.empty()) out.push_back(StoreMeta(suffix));
  return out;
}

Hash256 PosTree::BuildUp(std::vector<ChildRef> level_refs) const {
  while (level_refs.size() > 1) {
    bool open_tail = false;
    level_refs = EmitMetas(level_refs, &open_tail);
  }
  if (level_refs.empty()) return EmptyRoot();
  return level_refs[0].id;
}

Status PosTree::Build(std::vector<PosEntry> entries, Hash256* root) const {
  std::stable_sort(entries.begin(), entries.end(),
                   [](const PosEntry& a, const PosEntry& b) {
                     return a.key < b.key;
                   });
  // Deduplicate by key, keeping the last occurrence.
  std::vector<PosEntry> unique;
  unique.reserve(entries.size());
  for (size_t i = 0; i < entries.size(); i++) {
    if (i + 1 < entries.size() && entries[i + 1].key == entries[i].key) {
      continue;
    }
    unique.push_back(std::move(entries[i]));
  }
  if (unique.empty()) {
    *root = EmptyRoot();
    return Status::OK();
  }
  bool open_tail = false;
  std::vector<ChildRef> leaves = EmitLeaves(unique, &open_tail);
  *root = BuildUp(std::move(leaves));
  return Status::OK();
}

// --- Reads -------------------------------------------------------------

Status PosTree::Get(const Hash256& root, const Slice& key, std::string* value,
                    PosProof* proof) const {
  if (proof != nullptr) {
    proof->node_payloads.clear();
    proof->node_types.clear();
  }
  if (root.IsZero()) return Status::NotFound("empty tree");
  Hash256 id = root;
  while (true) {
    std::shared_ptr<const PosNode> node;
    Status s = LoadNode(id, &node);
    if (!s.ok()) return s;
    if (proof != nullptr) {
      proof->node_payloads.push_back(node->payload);
      proof->node_types.push_back(static_cast<uint8_t>(node->type));
    }
    if (!node->is_leaf()) {
      if (node->children.empty()) {
        return Status::Corruption("empty meta node");
      }
      id = node->children[RouteChild(node->children, key)].id;
      continue;
    }
    auto it = std::lower_bound(node->entries.begin(), node->entries.end(),
                               key, [](const PosEntry& e, const Slice& k) {
                                 return Slice(e.key).compare(k) < 0;
                               });
    if (it == node->entries.end() || Slice(it->key) != key) {
      // A proof still demonstrates non-membership.
      return Status::NotFound("key absent");
    }
    *value = it->value;
    return Status::OK();
  }
}

Status PosTree::Scan(const Hash256& root, const Slice& start, const Slice& end,
                     size_t limit, std::vector<PosEntry>* out,
                     PosRangeProof* proof) const {
  out->clear();
  if (proof != nullptr) proof->nodes.clear();
  if (root.IsZero()) return Status::OK();

  // Recursive walk restricted to subtrees that can intersect the range;
  // with a proof, every visited node's payload is captured into it (this
  // is the "proofs come back with the scan" behaviour of section 6.2.2).
  struct Walker {
    const PosTree* tree;
    Slice start, end;
    size_t limit;
    std::vector<PosEntry>* out;
    PosRangeProof* proof;

    Status Visit(const Hash256& id, bool* done) {
      std::shared_ptr<const PosNode> node;
      Status s = tree->LoadNode(id, &node);
      if (!s.ok()) return s;
      if (proof != nullptr) {
        proof->nodes[id] = {static_cast<uint8_t>(node->type), node->payload};
      }
      if (node->is_leaf()) {
        for (const PosEntry& e : node->entries) {
          if (Slice(e.key).compare(start) < 0) continue;
          if (!end.empty() && Slice(e.key).compare(end) >= 0) {
            *done = true;
            return Status::OK();
          }
          out->push_back(e);
          if (limit > 0 && out->size() >= limit) {
            *done = true;
            return Status::OK();
          }
        }
        return Status::OK();
      }
      const std::vector<ChildRef>& children = node->children;
      if (children.empty()) return Status::Corruption("empty meta node");
      for (size_t i = 0; i < children.size() && !*done; i++) {
        // Skip subtrees entirely below the range start.
        if (Slice(children[i].last_key).compare(start) < 0) continue;
        s = Visit(children[i].id, done);
        if (!s.ok()) return s;
        // Subtrees after one that reached `end` are irrelevant.
      }
      return Status::OK();
    }
  };

  Walker w{this, start, end, limit, out, proof};
  bool done = false;
  return w.Visit(root, &done);
}

Status PosTree::Count(const Hash256& root, uint64_t* count) const {
  *count = 0;
  if (root.IsZero()) return Status::OK();
  std::shared_ptr<const PosNode> node;
  Status s = LoadNode(root, &node);
  if (!s.ok()) return s;
  if (node->is_leaf()) {
    *count = node->entries.size();
    return Status::OK();
  }
  for (const ChildRef& c : node->children) *count += c.count;
  return Status::OK();
}

Status PosTree::CollectChunks(
    const Hash256& root,
    std::unordered_set<Hash256, Hash256Hasher>* live) const {
  if (root.IsZero()) return Status::OK();
  if (!live->insert(root).second) return Status::OK();  // shared subtree
  std::shared_ptr<const PosNode> node;
  Status s = LoadNode(root, &node);
  if (!s.ok()) return s;
  if (node->is_leaf()) return Status::OK();
  for (const ChildRef& c : node->children) {
    s = CollectChunks(c.id, live);
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
    if (node->children.empty()) return Status::Corruption("empty meta node");
    id = node->children[0].id;
  }
  return Status::OK();
}

// --- Updates -----------------------------------------------------------

std::optional<PosTree::ChildRef> PosTree::SiblingCursor::Next() {
  // Find the deepest frame that can advance.
  int i = static_cast<int>(frames_.size()) - 1;
  while (i >= 0 && frames_[i].idx + 1 >= frames_[i].children.size()) i--;
  if (i < 0) return std::nullopt;
  frames_[i].idx++;
  // Re-descend to the cursor level along the leftmost path.
  for (size_t l = i + 1; l < frames_.size(); l++) {
    const Hash256& child_id = frames_[l - 1].children[frames_[l - 1].idx].id;
    std::shared_ptr<const PosNode> node;
    Status s = tree_->LoadNode(child_id, &node);
    if (!s.ok()) return std::nullopt;
    if (node->is_leaf()) {
      return std::nullopt;  // structure shallower than expected
    }
    PathFrame f;
    f.id = child_id;
    f.children = node->children;
    f.idx = 0;
    frames_[l] = std::move(f);
  }
  const PathFrame& bottom = frames_.back();
  return bottom.children[bottom.idx];
}

Status PosTree::Put(const Hash256& root, const Slice& key, const Slice& value,
                    Hash256* new_root) const {
  return Update(root, key, value.ToString(), new_root);
}

Status PosTree::Delete(const Hash256& root, const Slice& key,
                       Hash256* new_root) const {
  return Update(root, key, std::nullopt, new_root);
}

Status PosTree::Update(const Hash256& root, const Slice& key,
                       const std::optional<std::string>& value,
                       Hash256* new_root) const {
  if (root.IsZero()) {
    if (!value.has_value()) return Status::NotFound("empty tree");
    return Build({PosEntry{key.ToString(), *value}}, new_root);
  }

  // 1. Descend to the leaf, recording the path.
  std::vector<PathFrame> frames;
  Hash256 id = root;
  std::vector<PosEntry> leaf_entries;
  while (true) {
    std::shared_ptr<const PosNode> node;
    Status s = LoadNode(id, &node);
    if (!s.ok()) return s;
    if (!node->is_leaf()) {
      if (node->children.empty()) return Status::Corruption("empty meta node");
      PathFrame f;
      f.id = id;
      f.children = node->children;
      f.idx = RouteChild(f.children, key);
      id = f.children[f.idx].id;
      frames.push_back(std::move(f));
    } else {
      leaf_entries = node->entries;
      break;
    }
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
          new_refs.push_back(StoreLeaf(node));
        });
    if (suffix.empty()) break;  // realigned with the old chunking
    std::optional<ChildRef> next = leaf_cursor.Next();
    if (!next.has_value()) {
      new_refs.push_back(StoreLeaf(suffix));  // rightmost open leaf
      break;
    }
    consumed_old++;
    std::shared_ptr<const PosNode> next_node;
    Status s = LoadNode(next->id, &next_node);
    if (!s.ok()) return s;
    if (!next_node->is_leaf()) {
      return Status::Corruption("expected leaf sibling during update");
    }
    pending = std::move(suffix);
    pending.insert(pending.end(), next_node->entries.begin(),
                   next_node->entries.end());
  }

  // 4. Propagate upward level by level.
  for (int fi = static_cast<int>(frames.size()) - 1; fi >= 0; fi--) {
    const PathFrame& frame = frames[fi];
    SiblingCursor cursor(
        this, std::vector<PathFrame>(frames.begin(), frames.begin() + fi));

    // Splice: children before the descent point stay; `consumed_old`
    // old children (possibly spanning sibling nodes) are replaced by
    // new_refs; the rest of the partially-consumed node is kept.
    std::vector<ChildRef> pending_children(frame.children.begin(),
                                           frame.children.begin() + frame.idx);
    pending_children.insert(pending_children.end(), new_refs.begin(),
                            new_refs.end());
    uint64_t nodes_consumed_here = 1;  // this frame's node
    uint64_t to_consume = consumed_old;
    std::vector<ChildRef> remaining(frame.children.begin() + frame.idx,
                                    frame.children.end());
    while (remaining.size() < to_consume) {
      to_consume -= remaining.size();
      std::optional<ChildRef> sib = cursor.Next();
      if (!sib.has_value()) {
        to_consume = 0;
        remaining.clear();
        break;
      }
      nodes_consumed_here++;
      std::shared_ptr<const PosNode> sib_node;
      Status s = LoadNode(sib->id, &sib_node);
      if (!s.ok()) return s;
      if (sib_node->is_leaf()) {
        return Status::Corruption("expected meta sibling during update");
      }
      remaining = sib_node->children;
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
            refs_up.push_back(StoreMeta(node));
          });
      if (suffix.empty()) break;
      std::optional<ChildRef> sib = cursor.Next();
      if (!sib.has_value()) {
        refs_up.push_back(StoreMeta(suffix));
        break;
      }
      nodes_consumed_here++;
      std::shared_ptr<const PosNode> sib_node;
      Status s = LoadNode(sib->id, &sib_node);
      if (!s.ok()) return s;
      if (sib_node->is_leaf()) {
        return Status::Corruption("expected meta sibling during update");
      }
      level_pending = std::move(suffix);
      level_pending.insert(level_pending.end(), sib_node->children.begin(),
                           sib_node->children.end());
    }
    new_refs = std::move(refs_up);
    consumed_old = nodes_consumed_here;
  }

  // 5. Form the new root; collapse single-child meta chains so the
  //    result is identical to a fresh bulk build of the same data
  //    (structural invariance).
  Hash256 result = BuildUp(std::move(new_refs));
  while (!result.IsZero()) {
    std::shared_ptr<const PosNode> node;
    Status s = LoadNode(result, &node);
    if (!s.ok()) return s;
    if (node->is_leaf()) break;
    if (node->children.size() != 1) break;
    result = node->children[0].id;
  }
  *new_root = result;
  return Status::OK();
}

// --- Verification ------------------------------------------------------

namespace {
Hash256 ChunkIdOf(uint8_t type, const std::string& payload) {
  return Chunk(static_cast<ChunkType>(type), payload).id();
}
}  // namespace

Status PosTree::VerifyProof(const Hash256& root, const Slice& key,
                            const std::optional<std::string>& expected_value,
                            const PosProof& proof) {
  if (proof.node_payloads.size() != proof.node_types.size() ||
      proof.node_payloads.empty()) {
    return Status::VerificationFailed("malformed proof");
  }
  // Root binding.
  if (ChunkIdOf(proof.node_types[0], proof.node_payloads[0]) != root) {
    return Status::VerificationFailed("proof root does not match digest");
  }
  // Walk down: each meta must route `key` to the next node's id.
  for (size_t i = 0; i + 1 < proof.node_payloads.size(); i++) {
    if (proof.node_types[i] != static_cast<uint8_t>(ChunkType::kIndexMeta)) {
      return Status::VerificationFailed("interior proof node is not meta");
    }
    std::vector<ChildRef> children;
    Status s = DecodeMeta(proof.node_payloads[i], &children);
    if (!s.ok()) return Status::VerificationFailed("bad meta payload");
    if (children.empty()) {
      return Status::VerificationFailed("empty meta in proof");
    }
    size_t idx = RouteChild(children, key);
    Hash256 next =
        ChunkIdOf(proof.node_types[i + 1], proof.node_payloads[i + 1]);
    if (children[idx].id != next) {
      return Status::VerificationFailed("broken hash link in proof");
    }
  }
  // Leaf check.
  if (proof.node_types.back() !=
      static_cast<uint8_t>(ChunkType::kIndexLeaf)) {
    return Status::VerificationFailed("proof does not end at a leaf");
  }
  std::vector<PosEntry> entries;
  Status s = DecodeLeaf(proof.node_payloads.back(), &entries);
  if (!s.ok()) return Status::VerificationFailed("bad leaf payload");
  auto it = std::lower_bound(entries.begin(), entries.end(), key,
                             [](const PosEntry& e, const Slice& k) {
                               return Slice(e.key).compare(k) < 0;
                             });
  bool present = it != entries.end() && Slice(it->key) == key;
  if (expected_value.has_value()) {
    if (!present) {
      return Status::VerificationFailed("proof shows key absent");
    }
    if (it->value != *expected_value) {
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
  // independently rebuild the result set.
  struct Walker {
    const PosRangeProof* proof;
    Slice start, end;
    size_t limit;
    std::vector<PosEntry> rebuilt;

    Status Visit(const Hash256& id, bool* done) {
      auto it = proof->nodes.find(id);
      if (it == proof->nodes.end()) {
        return Status::VerificationFailed("proof missing node " + id.ToHex());
      }
      uint8_t type = it->second.first;
      const std::string& payload = it->second.second;
      if (ChunkIdOf(type, payload) != id) {
        return Status::VerificationFailed("proof node hash mismatch");
      }
      if (type == static_cast<uint8_t>(ChunkType::kIndexLeaf)) {
        std::vector<PosEntry> entries;
        Status s = DecodeLeaf(payload, &entries);
        if (!s.ok()) return Status::VerificationFailed("bad leaf payload");
        for (const PosEntry& e : entries) {
          if (Slice(e.key).compare(start) < 0) continue;
          if (!end.empty() && Slice(e.key).compare(end) >= 0) {
            *done = true;
            return Status::OK();
          }
          rebuilt.push_back(e);
          if (limit > 0 && rebuilt.size() >= limit) {
            *done = true;
            return Status::OK();
          }
        }
        return Status::OK();
      }
      if (type != static_cast<uint8_t>(ChunkType::kIndexMeta)) {
        return Status::VerificationFailed("unexpected node type in proof");
      }
      std::vector<ChildRef> children;
      Status s = DecodeMeta(payload, &children);
      if (!s.ok()) return Status::VerificationFailed("bad meta payload");
      for (size_t i = 0; i < children.size() && !*done; i++) {
        if (Slice(children[i].last_key).compare(start) < 0) continue;
        s = Visit(children[i].id, done);
        if (!s.ok()) return s;
      }
      return Status::OK();
    }
  };

  Walker w{&proof, start, end, limit, {}};
  bool done = false;
  Status s = w.Visit(root, &done);
  if (!s.ok()) return s;
  if (w.rebuilt.size() != expected.size()) {
    return Status::VerificationFailed("result cardinality mismatch");
  }
  for (size_t i = 0; i < expected.size(); i++) {
    if (!(w.rebuilt[i] == expected[i])) {
      return Status::VerificationFailed("result content mismatch");
    }
  }
  return Status::OK();
}

}  // namespace spitz
