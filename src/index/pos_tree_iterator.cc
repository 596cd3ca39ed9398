#include "index/pos_tree_iterator.h"

namespace spitz {

void PosTreeIterator::Seek(const Slice& target) {
  stack_.clear();
  leaf_.reset();
  entry_idx_ = 0;
  valid_ = false;
  status_ = error_;
  if (!status_.ok() || root_.IsZero()) return;
  if (!Descend(root_, target)) return;
  // The leaf may hold no key >= target when target is past its last key.
  entry_idx_ = leaf_->LowerBound(target);
  SkipExhaustedLeaves();
}

bool PosTreeIterator::Descend(Hash256 id, const Slice& target) {
  while (true) {
    std::shared_ptr<const PosNode> node;
    Status s = tree_.LoadNode(id, &node);
    if (!s.ok()) {
      status_ = s;
      valid_ = false;
      return false;
    }
    if (node->is_leaf()) {
      leaf_ = std::move(node);
      return true;
    }
    const size_t idx = node->Route(target);
    id = node->children()[idx].id;
    stack_.push_back(MetaFrame{std::move(node), idx});
  }
}

void PosTreeIterator::SkipExhaustedLeaves() {
  valid_ = true;
  while (entry_idx_ >= leaf_->entry_count()) {
    while (!stack_.empty() &&
           stack_.back().idx + 1 >= stack_.back().node->children().size()) {
      stack_.pop_back();
    }
    if (stack_.empty()) {
      valid_ = false;
      return;
    }
    MetaFrame& top = stack_.back();
    top.idx++;
    // The leftmost leaf of the next subtree: every key is >= "".
    if (!Descend(top.node->children()[top.idx].id, Slice())) return;
    entry_idx_ = 0;
  }
}

void PosTreeIterator::Next() {
  if (!valid_) return;
  entry_idx_++;
  SkipExhaustedLeaves();
}

}  // namespace spitz
