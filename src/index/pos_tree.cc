#include "index/pos_tree.h"

#include <algorithm>
#include <deque>
#include <iterator>
#include <numeric>
#include <span>

#include "chunk/buffer_cache.h"
#include "common/codec.h"
#include "common/fork_join.h"

namespace spitz {

namespace {

// A long run of entries (a bulk build's): entries per piece when
// hashing, leaves encoded before any of them is stored (which bounds the
// encoded bytes in flight), and leaves per piece when encoding.
constexpr size_t kEntryHashGrain = 512;
constexpr size_t kLeafWindow = 512;
constexpr size_t kLeafGrain = 8;

// The one rule that closes a node: its last element matches the
// boundary pattern, or it reached the cap.
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

// --- Reads -------------------------------------------------------------

namespace {

// A proof's reference to a decoded node: its bytes, held by the node.
ProofNode CiteNode(const std::shared_ptr<const PosNode>& node) {
  return ProofNode{static_cast<uint8_t>(node->type()), node->payload(), node};
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

// --- Writes ------------------------------------------------------------

namespace {

// Merges writes [b, e) of `writes` (sorted, one per key) into the
// entries of `leaf` (null: none) as *out, moving their entries there;
// returns whether any write changed the leaf's entries.
bool MergeLeaf(const PosNode* leaf, IndexWrites* writes, size_t b, size_t e,
               std::vector<PosEntry>* out) {
  if (leaf == nullptr && writes->erase.empty()) {  // a bulk build's puts
    *out = std::move(writes->entries);
    return !out->empty();
  }
  const size_t n = leaf == nullptr ? 0 : leaf->entry_count();
  out->reserve(n + e - b);
  bool changed = false;
  size_t i = 0;
  for (size_t w = b; w < e; w++) {
    PosEntry& write = writes->entries[w];
    for (; i < n && leaf->key(i).compare(write.key) < 0; i++) {
      out->push_back(leaf->entry(i));
    }
    const bool present = i < n && leaf->key(i) == write.key;
    if (writes->erases(w)) {
      i += present;
      changed |= present;
    } else if (!present || leaf->value(i) != write.value) {
      out->push_back(std::move(write));
      i += present;
      changed = true;
    }
  }
  for (; i < n; i++) out->push_back(leaf->entry(i));
  return changed;
}

}  // namespace

// One Apply. Touch descends to every leaf a write names and keeps the
// nodes the batch changes. Emit then walks the old tree left to right
// over them and feeds each level's cutter (levels_): a changed node
// hands on its elements (a leaf its merged entries, a meta its
// children); an unchanged node hands on its ref whole when every level
// up to its own is between nodes (Aligned), and is opened and re-cut
// when a changed run reaches into it. Leaves are stored as they are
// cut; meta nodes once Finish knows the root, bottom-up as a bulk build
// stores them, so a root that collapses is never stored.
class PosTree::Writer {
 public:
  Writer(const PosTree* tree, IndexWrites* writes)
      : tree_(tree), writes_(writes), levels_(1) {}

  // The writes are sorted, one per key.
  Status Run(const Hash256& root, Hash256* new_root,
             std::vector<Hash256>* replaced) {
    Touched top{root};
    Status s = Touch(0, 0, writes_->entries.size(), &top);
    if (s.ok() && !top.changed) {
      *new_root = root;
      return s;
    }
    top_level_ = leaf_depth_;
    Hash256 result;
    if (s.ok()) s = Emit(&top, top_level_);
    if (s.ok()) s = Finish(&result);
    if (!s.ok()) return s;
    *new_root = result;
    if (replaced != nullptr) {
      // A re-cut can store a node identical to one it opened; the new
      // version holds that one, so it is not replaced.
      std::sort(stored_.begin(), stored_.end());
      for (const Hash256& old : opened_) {
        if (!std::binary_search(stored_.begin(), stored_.end(), old)) {
          replaced->push_back(old);
        }
      }
    }
    return s;
  }

 private:
  // A node of the old tree (the empty tree: a null leaf) and what the
  // batch changes in it: a leaf's entries after the writes, or a meta's
  // changed children.
  struct Touched {
    explicit Touched(const Hash256& id, size_t index = 0)
        : id(id), index(index) {}

    Hash256 id;
    size_t index;  // its place among its parent's children
    bool changed = false;
    std::shared_ptr<const PosNode> node;
    std::vector<PosEntry> entries;
    std::vector<Touched> children;
  };

  // The new tree's cutter at one level (0 = the leaves).
  struct Cutter {
    std::vector<PosEntry> entries;      // level 0: the open leaf
    std::vector<PosChildRef> children;  // above: the open meta node
    // The last changed old node of this level: the base of the nodes
    // cut here (none above the old root).
    std::shared_ptr<const PosNode> base;
    size_t nodes = 0;  // nodes handed to the level above, the last:
    Hash256 last;
    // Meta nodes cut here, with their bases, for Finish to store.
    std::vector<std::pair<Chunk, std::shared_ptr<const PosNode>>> metas;

    bool open() const { return !entries.empty() || !children.empty(); }
  };

  Cutter& Level(size_t level) {
    while (levels_.size() <= level) levels_.emplace_back();
    return levels_[level];
  }

  // Whether every level up to `level` is between nodes.
  bool Aligned(size_t level) const {
    for (size_t l = 0; l <= level && l < levels_.size(); l++) {
      if (levels_[l].open()) return false;
    }
    return true;
  }

  // Loads t->id, `depth` below the root, and merges writes [b, e) below
  // it.
  Status Touch(size_t depth, size_t b, size_t e, Touched* t) {
    Status s;
    if (!t->id.IsZero()) s = WritePathStatus(tree_->LoadNode(t->id, &t->node));
    if (!s.ok()) return s;
    if (t->node == nullptr || t->node->is_leaf()) {  // null: the empty tree
      if (leaf_depth_ == kNoDepth) leaf_depth_ = depth;
      if (depth != leaf_depth_) {
        return Status::Corruption("leaves at two depths under one root");
      }
      t->changed = MergeLeaf(t->node.get(), writes_, b, e, &t->entries);
      return Status::OK();
    }
    const PosNode& node = *t->node;
    const std::vector<PosEntry>& entries = writes_->entries;
    while (b < e) {
      // Child i takes the writes up to its last key; the last child
      // takes every key past it.
      const size_t i = node.Route(entries[b].key);
      size_t end = e;
      if (i + 1 < node.child_count()) {
        const Slice last = node.last_key(i);
        end = std::partition_point(entries.begin() + b, entries.begin() + e,
                                   [&](const PosEntry& w) {
                                     return last.compare(w.key) >= 0;
                                   }) -
              entries.begin();
      }
      Touched child{node.child_id(i), i};
      s = Touch(depth + 1, b, end, &child);
      if (!s.ok()) return s;
      if (child.changed) t->children.push_back(std::move(child));
      b = end;
    }
    t->changed = !t->children.empty();
    return Status::OK();
  }

  // Hands the changed node `t`, of `level`, to the cutters.
  Status Emit(Touched* t, size_t level) {
    Level(level).base = t->node;
    if (t->node != nullptr) opened_.push_back(t->id);  // null: the empty tree
    if (level == 0) {
      CutLeaves(std::move(t->entries));
      return Status::OK();
    }
    auto changed = t->children.begin();
    for (size_t i = 0; i < t->node->child_count(); i++) {
      Status s = changed != t->children.end() && changed->index == i
                     ? Emit(&*changed++, level - 1)
                     : Pass(t->node->child(i), level - 1);
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  // Hands the unchanged node `ref`, of `level`, to the cutters: whole,
  // or opened when a changed run reaches into it.
  Status Pass(PosChildRef ref, size_t level) {
    if (Aligned(level)) {
      Push(level + 1, std::move(ref));
      return Status::OK();
    }
    std::shared_ptr<const PosNode> node;
    Status s = WritePathStatus(tree_->LoadNode(ref.id, &node));
    if (!s.ok()) return s;
    if (node->is_leaf() != (level == 0)) {
      return Status::Corruption("a node off its level during a write");
    }
    opened_.push_back(ref.id);
    if (level == 0) {
      std::vector<PosEntry> entries;
      MergeLeaf(node.get(), writes_, 0, 0, &entries);  // a copy
      CutLeaves(std::move(entries));
      return Status::OK();
    }
    for (size_t i = 0; i < node->child_count() && s.ok(); i++) {
      s = Pass(node->child(i), level - 1);
    }
    return s;
  }

  // Appends `run` to the open leaf and stores every leaf that closes,
  // and the open one too when `last`. A long run's entry hashes and leaf
  // encodings are computed on all cores, a window of leaves at a time
  // (which bounds the encoded bytes in flight); cutting and storing stay
  // on this thread, in key order.
  void CutLeaves(std::vector<PosEntry> run, bool last = false) {
    std::vector<PosEntry>& open = levels_[0].entries;
    const size_t hashed = open.size();  // entries whose hash is known
    if (open.empty()) {
      open = std::move(run);
    } else {
      open.insert(open.end(), std::make_move_iterator(run.begin()),
                  std::make_move_iterator(run.end()));
    }
    std::vector<uint8_t> boundary(open.size() - hashed);
    ParallelFor(boundary.size(), kEntryHashGrain,
                [&](size_t begin, size_t end) {
                  for (size_t i = begin; i < end; i++) {
                    boundary[i] =
                        tree_->IsLeafBoundary(EntryHash(open[hashed + i]));
                  }
                });
    std::vector<size_t> ends;  // leaf j is [ends[j - 1], ends[j])
    for (size_t i = hashed; i < open.size(); i++) {
      if (ClosesNode(boundary[i - hashed],
                     i + 1 - (ends.empty() ? 0 : ends.back()),
                     tree_->options_.max_node_elements)) {
        ends.push_back(i + 1);
      }
    }
    if (last && open.size() > (ends.empty() ? 0 : ends.back())) {
      ends.push_back(open.size());
    }
    auto leaf = [&](size_t j) {
      const size_t begin = j == 0 ? 0 : ends[j - 1];
      return std::span<const PosEntry>(open).subspan(begin, ends[j] - begin);
    };
    const std::shared_ptr<const PosNode>& base = levels_[0].base;
    std::vector<std::string> payloads;
    std::vector<Chunk> chunks;
    for (size_t first = 0; first < ends.size(); first += kLeafWindow) {
      const size_t count = std::min(kLeafWindow, ends.size() - first);
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
        PosChildRef ref{node.back().key, chunks[k].id(), node.size()};
        stored_.push_back(ref.id);
        tree_->store_->Put(std::move(chunks[k]),
                           base == nullptr ? nullptr : base->chunk());
        Push(1, std::move(ref));
      }
    }
    open.erase(open.begin(), open.begin() + (ends.empty() ? 0 : ends.back()));
  }

  // Appends `ref`, a node of `level` - 1, to the open meta node of
  // `level`, and cuts that node when `ref` closes it.
  void Push(size_t level, PosChildRef ref) {
    Cutter& below = Level(level - 1);
    below.nodes++;
    below.last = ref.id;
    Cutter& cutter = Level(level);
    cutter.children.push_back(std::move(ref));
    if (ClosesNode(tree_->IsMetaBoundary(below.last), cutter.children.size(),
                   tree_->options_.max_node_elements)) {
      CutMeta(level);
    }
  }

  // Cuts the open meta node of `level` and hands it up.
  void CutMeta(size_t level) {
    Cutter& cutter = levels_[level];
    std::vector<PosChildRef> children = std::move(cutter.children);
    cutter.children.clear();
    PosChildRef ref{children.back().last_key, Hash256(), 0};
    for (const PosChildRef& c : children) ref.count += c.count;
    Chunk chunk(ChunkType::kIndexMeta, EncodePosMeta(children));
    ref.id = chunk.id();
    cutter.metas.emplace_back(std::move(chunk), cutter.base);
    Push(level + 1, std::move(ref));
  }

  // Cuts each level's open node, bottom-up, up to the first level at or
  // above the old root's that holds one node: the root, less any node of
  // one child at the top, which collapses into that child. Then stores
  // the meta nodes below it, level by level.
  Status Finish(Hash256* root) {
    size_t level = 0;
    for (;; level++) {
      if (level == 0) CutLeaves({}, /*last=*/true);
      if (level > 0 && levels_[level].open()) CutMeta(level);
      if (level >= top_level_ && levels_[level].nodes <= 1) break;
    }
    *root = levels_[level].nodes == 0 ? EmptyRoot() : levels_[level].last;
    // Every ref the root's level got came from the level below: one is a
    // meta cut here of that one child, none an old node kept whole.
    for (; level > 0 && !root->IsZero(); level--) {
      const Cutter& below = levels_[level - 1];
      if (below.nodes == 1) {
        *root = below.last;
        continue;
      }
      if (below.nodes > 1) break;
      std::shared_ptr<const PosNode> node;
      Status s = WritePathStatus(tree_->LoadNode(*root, &node));
      if (!s.ok()) return s;
      if (node->is_leaf()) {
        return Status::Corruption("a leaf above the leaf level");
      }
      if (node->child_count() != 1) break;
      opened_.push_back(*root);
      *root = node->child_id(0);
    }
    levels_.resize(level + 1);  // above: metas of one child, collapsed
    for (Cutter& cutter : levels_) {
      for (auto& [chunk, base] : cutter.metas) {
        stored_.push_back(chunk.id());
        tree_->store_->Put(std::move(chunk),
                           base == nullptr ? nullptr : base->chunk());
      }
    }
    return Status::OK();
  }

  static constexpr size_t kNoDepth = ~size_t{0};

  const PosTree* tree_;
  IndexWrites* writes_;
  std::deque<Cutter> levels_;  // grows without moving a level in use
  size_t leaf_depth_ = kNoDepth;
  size_t top_level_ = 0;         // the old root's level
  std::vector<Hash256> opened_;  // old nodes whose elements were re-cut
  std::vector<Hash256> stored_;  // new nodes stored
};

Status PosTree::Apply(const Hash256& root, IndexWrites writes,
                      Hash256* new_root,
                      std::vector<Hash256>* replaced) const {
  std::vector<PosEntry>& entries = writes.entries;
  // A bulk load usually arrives in strictly increasing key order, which
  // one pass confirms: then nothing is sorted, moved or dropped.
  if (std::adjacent_find(entries.begin(), entries.end(),
                         [](const PosEntry& a, const PosEntry& b) {
                           return a.key >= b.key;
                         }) != entries.end()) {
    // Sorted stably, so a key's writes keep batch order; the last one
    // is kept.
    std::vector<size_t> order(entries.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return entries[a].key < entries[b].key;
    });
    IndexWrites sorted;
    for (size_t k = 0; k < order.size(); k++) {
      const size_t w = order[k];
      if (k + 1 < order.size() && entries[order[k + 1]].key == entries[w].key) {
        continue;
      }
      if (!writes.erase.empty()) sorted.erase.push_back(writes.erase[w]);
      sorted.entries.push_back(std::move(entries[w]));
    }
    writes = std::move(sorted);
  }
  return Writer(this, &writes).Run(root, new_root, replaced);
}

Status PosTree::Build(std::vector<PosEntry> entries, Hash256* root) const {
  return Apply(EmptyRoot(), IndexWrites{std::move(entries), {}}, root);
}

Status PosTree::Put(const Hash256& root, const Slice& key, const Slice& value,
                    Hash256* new_root, std::vector<Hash256>* replaced) const {
  return Apply(root, {{{key.ToString(), value.ToString()}}, {}}, new_root,
               replaced);
}

Status PosTree::Delete(const Hash256& root, const Slice& key,
                       Hash256* new_root,
                       std::vector<Hash256>* replaced) const {
  const Hash256 old_root = root;  // *new_root may alias `root`
  Status s = Apply(old_root, {{{key.ToString(), ""}}, {true}}, new_root,
                   replaced);
  if (s.ok() && *new_root == old_root) return Status::NotFound("key absent");
  return s;
}

}  // namespace spitz
