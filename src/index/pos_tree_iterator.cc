#include "index/pos_tree_iterator.h"

#include <algorithm>

namespace spitz {

std::shared_ptr<const Chunk> PosTreeIterator::LoadNode(const Hash256& id) {
  std::shared_ptr<const Chunk> chunk;
  Status s = store_->Get(id, &chunk);
  if (!s.ok()) {
    status_ = s;
    valid_ = false;
    return nullptr;
  }
  return chunk;
}

void PosTreeIterator::Seek(const Slice& target) {
  stack_.clear();
  entries_.clear();
  entry_idx_ = 0;
  valid_ = false;
  status_ = error_;
  if (!status_.ok() || root_.IsZero()) return;
  Descend(root_, target);
  if (!status_.ok()) return;
  // Position within the leaf at the first key >= target; if the leaf is
  // exhausted (possible when target is past its last key), advance.
  auto it = std::lower_bound(entries_.begin(), entries_.end(), target,
                             [](const PosEntry& e, const Slice& t) {
                               return Slice(e.key).compare(t) < 0;
                             });
  entry_idx_ = static_cast<size_t>(it - entries_.begin());
  valid_ = true;
  if (entry_idx_ >= entries_.size()) {
    AdvanceLeaf();
  }
}

void PosTreeIterator::Descend(const Hash256& id, const Slice& target) {
  Hash256 current = id;
  while (true) {
    std::shared_ptr<const Chunk> chunk = LoadNode(current);
    if (chunk == nullptr) return;
    if (chunk->type() == ChunkType::kIndexLeaf) {
      Status s = PosTree::DecodeLeaf(chunk->data(), &entries_);
      if (!s.ok()) {
        status_ = s;
        valid_ = false;
      }
      return;
    }
    if (chunk->type() != ChunkType::kIndexMeta) {
      status_ = Status::Corruption("unexpected chunk type in tree");
      valid_ = false;
      return;
    }
    MetaFrame frame;
    std::vector<PosTree::ChildRef> children;
    Status s = PosTree::DecodeMeta(chunk->data(), &children);
    if (!s.ok()) {
      status_ = s;
      valid_ = false;
      return;
    }
    if (children.empty()) {
      status_ = Status::Corruption("empty meta node");
      valid_ = false;
      return;
    }
    // First child whose last_key >= target (clamped to the last child).
    size_t lo = 0, hi = children.size();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (Slice(children[mid].last_key).compare(target) < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == children.size()) lo = children.size() - 1;
    frame.children = std::move(children);
    frame.idx = lo;
    current = frame.children[lo].id;
    stack_.push_back(std::move(frame));
  }
}

void PosTreeIterator::AdvanceLeaf() {
  while (!stack_.empty() &&
         stack_.back().idx + 1 >= stack_.back().children.size()) {
    stack_.pop_back();
  }
  if (stack_.empty()) {
    valid_ = false;
    return;
  }
  stack_.back().idx++;
  Hash256 id = stack_.back().children[stack_.back().idx].id;
  // Descend to the leftmost leaf of that subtree.
  while (true) {
    std::shared_ptr<const Chunk> chunk = LoadNode(id);
    if (chunk == nullptr) return;
    if (chunk->type() == ChunkType::kIndexLeaf) {
      Status s = PosTree::DecodeLeaf(chunk->data(), &entries_);
      if (!s.ok()) {
        status_ = s;
        valid_ = false;
        return;
      }
      entry_idx_ = 0;
      valid_ = !entries_.empty();
      return;
    }
    MetaFrame frame;
    Status s = PosTree::DecodeMeta(chunk->data(), &frame.children);
    if (!s.ok() || frame.children.empty()) {
      status_ = s.ok() ? Status::Corruption("empty meta node") : s;
      valid_ = false;
      return;
    }
    frame.idx = 0;
    id = frame.children[0].id;
    stack_.push_back(std::move(frame));
  }
}

void PosTreeIterator::Next() {
  if (!valid_) return;
  entry_idx_++;
  if (entry_idx_ >= entries_.size()) {
    AdvanceLeaf();
  }
}

}  // namespace spitz
