#include "index/pos_tree.h"

#include <algorithm>

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

PosChildRef PosTree::StoreLeaf(const std::vector<PosEntry>& entries,
                               const Chunk* base) const {
  PosChildRef ref;
  ref.last_key = entries.empty() ? std::string() : entries.back().key;
  ref.count = entries.size();
  ref.id = store_->Put(Chunk(ChunkType::kIndexLeaf, EncodePosLeaf(entries)),
                       base);
  return ref;
}

PosChildRef PosTree::StoreMeta(const std::vector<PosChildRef>& children,
                               const Chunk* base) const {
  PosChildRef ref;
  ref.last_key = children.empty() ? std::string() : children.back().last_key;
  ref.count = 0;
  for (const PosChildRef& c : children) ref.count += c.count;
  ref.id = store_->Put(Chunk(ChunkType::kIndexMeta, EncodePosMeta(children)),
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

std::vector<PosChildRef> PosTree::EmitMetas(
    const std::vector<PosChildRef>& run) const {
  std::vector<PosChildRef> out;
  std::vector<PosChildRef> suffix = EmitClosedRuns(
      run, options_.max_node_elements,
      [&](const PosChildRef& c) { return IsMetaBoundary(c.id); },
      [&](const std::vector<PosChildRef>& node) {
        out.push_back(StoreMeta(node));
      });
  if (!suffix.empty()) out.push_back(StoreMeta(suffix));
  return out;
}

Hash256 PosTree::BuildUp(std::vector<PosChildRef> level_refs) const {
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
  std::vector<PosChildRef> leaves;
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
      leaves.push_back(
          PosChildRef{node.back().key, chunks[k].id(), node.size()});
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
                    std::vector<PosChildRef>* out) {
  for (size_t i = begin; i < end; i++) out->push_back(meta.child(i));
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

Status PosTree::SiblingCursor::Next(std::optional<PosChildRef>* next) {
  next->reset();
  // Find the deepest frame that can advance.
  int i = static_cast<int>(frames_.size()) - 1;
  while (i >= 0 && frames_[i].idx + 1 >= frames_[i].node->child_count()) {
    i--;
  }
  if (i < 0) return Status::OK();
  frames_[i].idx++;
  // Re-descend to the cursor level along the leftmost path.
  for (size_t l = i + 1; l < frames_.size(); l++) {
    const PathFrame& parent = frames_[l - 1];
    std::shared_ptr<const PosNode> node;
    Status s = tree_->LoadNode(parent.node->child_id(parent.idx), &node);
    if (!s.ok()) return s;
    if (node->is_leaf()) {
      return Status::Corruption("leaf above the leaf level during update");
    }
    frames_[l] = PathFrame{std::move(node), 0};
  }
  const PathFrame& bottom = frames_.back();
  *next = bottom.node->child(bottom.idx);
  return Status::OK();
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
  std::vector<PosChildRef> new_refs;
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
    std::optional<PosChildRef> next;
    Status s = leaf_cursor.Next(&next);
    if (!s.ok()) return s;
    if (!next.has_value()) {
      // The rightmost open leaf.
      new_refs.push_back(StoreLeaf(suffix, leaf->chunk()));
      break;
    }
    consumed_old++;
    old_ids.push_back(next->id);
    std::shared_ptr<const PosNode> next_node;
    s = LoadNode(next->id, &next_node);
    if (!s.ok()) return s;
    if (!next_node->is_leaf()) {
      return Status::Corruption("expected leaf sibling during update");
    }
    pending = std::move(suffix);
    AppendEntries(*next_node, &pending);
  }

  for (const PosChildRef& ref : new_refs) new_ids.push_back(ref.id);

  // 4. Propagate upward level by level.
  for (int fi = static_cast<int>(frames.size()) - 1; fi >= 0; fi--) {
    const PosNode& parent = *frames[fi].node;
    const size_t idx = frames[fi].idx;
    SiblingCursor cursor(
        this, std::vector<PathFrame>(frames.begin(), frames.begin() + fi));

    // Splice: children before the descent point stay; `consumed_old`
    // old children (possibly spanning sibling nodes) are replaced by
    // new_refs; the rest of the partially-consumed node is kept.
    std::vector<PosChildRef> pending_children;
    AppendChildren(parent, 0, idx, &pending_children);
    pending_children.insert(pending_children.end(), new_refs.begin(),
                            new_refs.end());
    uint64_t nodes_consumed_here = 1;  // this frame's node
    uint64_t to_consume = consumed_old;
    std::vector<PosChildRef> remaining;
    AppendChildren(parent, idx, parent.child_count(), &remaining);
    while (remaining.size() < to_consume) {
      to_consume -= remaining.size();
      std::optional<PosChildRef> sib;
      Status s = cursor.Next(&sib);
      if (!s.ok()) return s;
      if (!sib.has_value()) {
        to_consume = 0;
        remaining.clear();
        break;
      }
      nodes_consumed_here++;
      old_ids.push_back(sib->id);
      std::shared_ptr<const PosNode> sib_node;
      s = LoadNode(sib->id, &sib_node);
      if (!s.ok()) return s;
      if (sib_node->is_leaf()) {
        return Status::Corruption("expected meta sibling during update");
      }
      remaining = sib_node->children();
    }
    pending_children.insert(pending_children.end(),
                            remaining.begin() + to_consume, remaining.end());

    // Re-chunk this level until boundaries realign.
    std::vector<PosChildRef> refs_up;
    std::vector<PosChildRef> level_pending = std::move(pending_children);
    while (true) {
      std::vector<PosChildRef> suffix = EmitClosedRuns(
          level_pending, options_.max_node_elements,
          [&](const PosChildRef& c) { return IsMetaBoundary(c.id); },
          [&](const std::vector<PosChildRef>& node) {
            refs_up.push_back(StoreMeta(node, parent.chunk()));
          });
      if (suffix.empty()) break;
      std::optional<PosChildRef> sib;
      Status s = cursor.Next(&sib);
      if (!s.ok()) return s;
      if (!sib.has_value()) {
        refs_up.push_back(StoreMeta(suffix, parent.chunk()));
        break;
      }
      nodes_consumed_here++;
      old_ids.push_back(sib->id);
      std::shared_ptr<const PosNode> sib_node;
      s = LoadNode(sib->id, &sib_node);
      if (!s.ok()) return s;
      if (sib_node->is_leaf()) {
        return Status::Corruption("expected meta sibling during update");
      }
      level_pending = std::move(suffix);
      AppendChildren(*sib_node, 0, sib_node->child_count(), &level_pending);
    }
    for (const PosChildRef& ref : refs_up) new_ids.push_back(ref.id);
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

}  // namespace spitz
