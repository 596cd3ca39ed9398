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
  // iterated root has since fallen out of the retention window. Nodes
  // come through `cache` (when given) as in every other traversal: the
  // iterator holds the decoded nodes on its path, and key() and value()
  // view the current leaf's bytes.
  PosTreeIterator(ChunkStore* store, const Hash256& root,
                  BufferCache* cache = nullptr)
      : tree_(store), root_(root), epoch_pin_(store->PinReads()) {
    tree_.SetNodeCache(cache);
  }
  // An iterator that cannot walk `root` (its index is not a POS-tree):
  // never Valid(), and status() is `error` before and after every Seek.
  PosTreeIterator(ChunkStore* store, const Hash256& root, Status error)
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

  // Valid() must be true. The bytes stay valid until the iterator moves
  // to another leaf.
  Slice key() const { return leaf_->key(entry_idx_); }
  Slice value() const { return leaf_->value(entry_idx_); }

  // Any error encountered during iteration (Valid() turns false).
  const Status& status() const { return status_; }

 private:
  struct MetaFrame {
    std::shared_ptr<const PosNode> node;
    size_t idx = 0;  // child the iterator is under
  };

  // Descends from `id` to a leaf, routing by `target` at every meta
  // level and stacking frames. Returns false (status_ set) on error.
  bool Descend(Hash256 id, const Slice& target);
  // Steps past exhausted leaves to the next entry via the frame stack;
  // clears valid_ at the end.
  void SkipExhaustedLeaves();

  PosTree tree_;
  Hash256 root_;
  EpochManager::Guard epoch_pin_;
  Status error_;  // OK unless constructed over a non-POS index
  bool valid_ = false;
  Status status_;

  std::vector<MetaFrame> stack_;
  std::shared_ptr<const PosNode> leaf_;
  size_t entry_idx_ = 0;
};

}  // namespace spitz

#endif  // SPITZ_INDEX_POS_TREE_ITERATOR_H_
