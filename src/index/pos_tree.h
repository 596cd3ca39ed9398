#ifndef SPITZ_INDEX_POS_TREE_H_
#define SPITZ_INDEX_POS_TREE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "chunk/chunk_store.h"
#include "common/slice.h"
#include "common/status.h"
#include "crypto/hash.h"
#include "proof/pos_node.h"

namespace spitz {

// ---------------------------------------------------------------------------
// POS-Tree: the Pattern-Oriented-Split Tree of the SIRI family (paper
// sections 3.1 and 6.1). An immutable, content-addressed Merkle B+-tree
// whose node boundaries are *content-defined*: a node ends after an
// element whose hash matches a fixed bit pattern. Consequences:
//
//  * Structural invariance: the tree shape (and therefore the root hash)
//    is a pure function of the key-value set — independent of insertion
//    order. Two parties holding the same data compute the same digest.
//  * Version sharing: a write rewrites the O(log n) nodes on its path;
//    all other nodes are shared with previous versions through the chunk
//    store.
//    Ledger blocks that embed successive index roots therefore share
//    almost all of their structure (the SIRI property Spitz's ledger
//    exploits, section 6.1).
//  * Unified query + proof: the nodes visited while answering a query
//    ARE the integrity proof; no separate ledger lookup is needed. This
//    is the mechanism behind Spitz's advantage in Figures 6-8.
// ---------------------------------------------------------------------------

// Tuning knobs for the pattern split rule. With a k-bit pattern the
// expected node size is 2^k elements past the previous boundary.
struct PosTreeOptions {
  uint32_t leaf_pattern_bits = 5;  // expected 32 entries per leaf
  uint32_t meta_pattern_bits = 5;  // expected fanout 32
  size_t max_node_elements = 256;  // hard cap (deterministic left-to-right)

  // Rejects configurations the split machinery cannot honor: pattern
  // masks are built as (1 << bits) - 1 (so bits must stay below the
  // 32-bit shift width), and a node must be allowed to hold at least
  // two elements for splits to make progress.
  Status Validate() const {
    if (leaf_pattern_bits < 1 || leaf_pattern_bits > 30) {
      return Status::InvalidArgument("leaf_pattern_bits must be in [1, 30]");
    }
    if (meta_pattern_bits < 1 || meta_pattern_bits > 30) {
      return Status::InvalidArgument("meta_pattern_bits must be in [1, 30]");
    }
    if (max_node_elements < 2) {
      return Status::InvalidArgument("max_node_elements must be at least 2");
    }
    return Status::OK();
  }
};

class BufferCache;

// A batch of index writes in batch order: entry i is put, or its key
// deleted when erase[i]. An empty `erase` puts every entry.
struct IndexWrites {
  std::vector<PosEntry> entries;
  std::vector<bool> erase;

  bool erases(size_t i) const { return !erase.empty() && erase[i]; }
};

// A handle over one version of a POS-tree. The tree itself lives in the
// chunk store; a version is identified by its root chunk id. All
// mutating operations return the root of a NEW version and never modify
// existing chunks.
//
// Thread safety: all const methods are safe to call concurrently from
// any number of threads (the chunk store and node cache are internally
// synchronized, and every loaded node is immutable). Distinct versions
// can be read and written concurrently because a "write" only creates
// new chunks.
class PosTree {
 public:
  // An empty tree is represented by the zero hash.
  static Hash256 EmptyRoot() { return Hash256(); }

  PosTree(ChunkStore* store, PosTreeOptions options = {})
      : store_(store), options_(options) {}

  PosTree(const PosTree&) = delete;
  PosTree& operator=(const PosTree&) = delete;

  // Re-points this handle at a different chunk store (used when a
  // database swaps in its durable store during Open()). Drops any
  // attached node cache — entries from the old store would alias ids.
  // (In practice ids are content hashes, so aliases carry identical
  // content; dropping the cache is purely conservative.)
  void Reset(ChunkStore* store, PosTreeOptions options) {
    store_ = store;
    options_ = options;
    cache_ = nullptr;
  }

  // Attaches a cache whose kPosNode entries every traversal consults
  // (and populates with decoded nodes, charged at PosNode::ByteSize()).
  // Pass nullptr to detach. The cache may be shared across trees over
  // the same chunk store; because node ids are content hashes of
  // immutable chunks, cached entries can never go stale.
  void SetNodeCache(BufferCache* cache) { cache_ = cache; }

  // The one write routine: applies `writes` to the version `root` and
  // returns the new root (DESIGN.md section 7). The last write per key
  // wins; deleting a key its leaf does not hold is a no-op, and a batch
  // that changes nothing returns `root`. Each node the batch touches is
  // rewritten once, put with the old node the batch changed at its level
  // as its base (none from the empty root). A non-null `replaced` gets
  // appended the ids of the nodes of `root` the new version no longer
  // holds; a failure appends nothing. A node a path names that the store
  // cannot return fails the batch as Corruption.
  Status Apply(const Hash256& root, IndexWrites writes, Hash256* new_root,
               std::vector<Hash256>* replaced = nullptr) const;

  // Bulk-loads a tree from entries (last write per key wins): their puts
  // applied to the empty root. Every node is put with no base, so a
  // load fills no cache.
  Status Build(std::vector<PosEntry> entries, Hash256* root) const;

  // Point read: the one root-to-leaf traversal. Returns NotFound if
  // absent. When `proof` is non-null it cites the nodes the traversal
  // visits, by reference to the decoded nodes, as the membership (or
  // non-membership) proof; null skips that.
  Status Get(const Hash256& root, const Slice& key, std::string* value,
             PosProof* proof) const;

  // Writes one key (insert or overwrite): Apply of one put.
  Status Put(const Hash256& root, const Slice& key, const Slice& value,
             Hash256* new_root,
             std::vector<Hash256>* replaced = nullptr) const;

  // Removes one key: Apply of one delete, NotFound if absent.
  Status Delete(const Hash256& root, const Slice& key, Hash256* new_root,
                std::vector<Hash256>* replaced = nullptr) const;

  // Range read: collects entries with key in [start, end) up to `limit`
  // (0 = no limit), in key order. When `proof` is non-null it cites
  // every node the walk visits as the range proof — the "unified
  // index" behaviour of section 6.2.2; null skips the capture.
  Status Scan(const Hash256& root, const Slice& start, const Slice& end,
              size_t limit, std::vector<PosEntry>* out,
              PosRangeProof* proof) const;

  // Number of entries in the version rooted at `root`.
  Status Count(const Hash256& root, uint64_t* count) const;

  // Tree height (0 for empty, 1 for a single leaf).
  Status Height(const Hash256& root, uint32_t* height) const;

  // Inserts every chunk id reachable from `root` into *live, pruning
  // subtrees whose root is already present (version sharing makes the
  // union of several versions cheap to mark). Used by the version GC.
  // Reads the meta nodes and one leaf (to learn the height); every
  // other leaf id comes from its parent's ref, so a pass keeps the
  // leaves (32 in 33 nodes) out of the cache.
  Status CollectChunks(const Hash256& root,
                       std::unordered_set<Hash256, Hash256Hasher>* live) const;

 private:
  // One Apply's pass over the tree (pos_tree.cc).
  class Writer;

  bool IsLeafBoundary(const Hash256& entry_hash) const;
  bool IsMetaBoundary(const Hash256& child_id) const;

  static Hash256 EntryHash(const PosEntry& e);

  // Fetches and decodes the node `id`, consulting the attached cache
  // first. On a miss the chunk is fetched from the store, decoded once,
  // and (when a cache is attached) memoized for later traversals.
  Status LoadNode(const Hash256& id,
                  std::shared_ptr<const PosNode>* node) const;

  // CollectChunks below `id`, a node `height` levels tall (1 = a leaf,
  // whose id is inserted without reading it).
  Status CollectSubtree(const Hash256& id, uint32_t height,
                        std::unordered_set<Hash256, Hash256Hasher>* live) const;

  ChunkStore* store_;
  PosTreeOptions options_;
  BufferCache* cache_ = nullptr;
};

}  // namespace spitz

#endif  // SPITZ_INDEX_POS_TREE_H_
