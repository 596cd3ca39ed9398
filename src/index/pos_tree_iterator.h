#ifndef SPITZ_INDEX_POS_TREE_ITERATOR_H_
#define SPITZ_INDEX_POS_TREE_ITERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "chunk/chunk_store.h"
#include "common/slice.h"
#include "common/status.h"
#include "index/pos_tree.h"

namespace spitz {

// A forward iterator over one POS-tree version. Because versions are
// immutable, an iterator is a *stable snapshot*: concurrent writers
// produce new roots and never disturb an open iterator — no locks, no
// snapshot pinning, no read amplification. This is the iteration idiom
// the storage layer's immutability buys for free.
//
// Usage:
//   PosTreeIterator it(&store, root);
//   for (it.SeekToFirst(); it.Valid(); it.Next()) {
//     use(it.key(), it.value());
//   }
//   if (!it.status().ok()) { ... }
class PosTreeIterator {
 public:
  // The iterator holds a read epoch for its whole lifetime: the version
  // GC will not unmap any chunk while this iterator exists, even if the
  // iterated root has since fallen out of the retention window.
  PosTreeIterator(const ChunkStore* store, const Hash256& root)
      : store_(store), root_(root), epoch_pin_(store->PinReads()) {}
  // An iterator that cannot walk `root` (its index is not a POS-tree):
  // never Valid(), and status() is `error` before and after every Seek.
  PosTreeIterator(const ChunkStore* store, const Hash256& root, Status error)
      : PosTreeIterator(store, root) {
    error_ = std::move(error);
    status_ = error_;
  }

  PosTreeIterator(const PosTreeIterator&) = delete;
  PosTreeIterator& operator=(const PosTreeIterator&) = delete;

  // Positions at the first entry with key >= target.
  void Seek(const Slice& target);
  void SeekToFirst() { Seek(Slice()); }

  bool Valid() const { return valid_; }
  void Next();

  // Valid() must be true.
  Slice key() const { return Slice(entries_[entry_idx_].key); }
  Slice value() const { return Slice(entries_[entry_idx_].value); }

  // Any error encountered during iteration (Valid() turns false).
  const Status& status() const { return status_; }

 private:
  struct MetaFrame {
    std::vector<PosTree::ChildRef> children;
    size_t idx = 0;
  };

  // Loads a node chunk; returns nullptr (and sets status_) on failure.
  std::shared_ptr<const Chunk> LoadNode(const Hash256& id);
  // Descends from `id` to a leaf, taking the child chosen by `pick` at
  // every meta level and stacking frames.
  void Descend(const Hash256& id, const Slice& target);
  // Moves to the next leaf via the frame stack; clears valid_ at end.
  void AdvanceLeaf();

  const ChunkStore* store_;
  Hash256 root_;
  EpochManager::Guard epoch_pin_;
  Status error_;  // OK unless constructed over a non-POS index
  bool valid_ = false;
  Status status_;

  std::vector<MetaFrame> stack_;
  std::vector<PosEntry> entries_;  // current leaf
  size_t entry_idx_ = 0;
};

}  // namespace spitz

#endif  // SPITZ_INDEX_POS_TREE_ITERATOR_H_
