#ifndef SPITZ_INDEX_POS_TREE_H_
#define SPITZ_INDEX_POS_TREE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "chunk/chunk_store.h"
#include "common/pos_entry.h"
#include "common/slice.h"
#include "common/status.h"
#include "crypto/hash.h"
#include "index/proof_node.h"

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
//  * Version sharing: an update path-copies O(log n) nodes; all other
//    nodes are shared with previous versions through the chunk store.
//    Ledger blocks that embed successive index roots therefore share
//    almost all of their structure (the SIRI property Spitz's ledger
//    exploits, section 6.1).
//  * Unified query + proof: the nodes visited while answering a query
//    ARE the integrity proof; no separate ledger lookup is needed. This
//    is the mechanism behind Spitz's advantage in Figures 6-8.
// ---------------------------------------------------------------------------

// An entry list: a varint count, then lp(key) lp(value) per entry ("lp"
// = varint-length-prefixed). A POS leaf's payload, an MBT bucket and
// the rows of a scan reply are all this one form.
size_t EntryListSize(std::span<const PosEntry> entries);
void PutEntryList(std::string* dst, std::span<const PosEntry> entries);
// Reads an entry list off the front of *input into *out.
Status GetEntryList(Slice* input, std::vector<PosEntry>* out);

// An integrity proof for a point lookup: the nodes on the root-to-leaf
// path, root first. The verifier recomputes each chunk id bottom-up and
// checks the top against the trusted root digest, checks that each
// parent references the child by that id, and that routing was
// consistent with the queried key. Supports both membership and
// non-membership (absent key) verification.
struct PosProof {
  std::vector<ProofNode> nodes;

  size_t ByteSize() const {
    size_t n = 0;
    for (const ProofNode& node : nodes) n += node.payload.size() + 1;
    return n;
  }
};

// An integrity proof for a range scan: every node visited while
// collecting the result, in strictly ascending chunk-id order (the order
// the wire form carries them in, and the one Find binary-searches). The
// verifier re-walks the tree from the root, recomputing hashes, and
// reconstructs the result set independently.
struct PosRangeProof {
  std::vector<std::pair<Hash256, ProofNode>> nodes;

  // Inserts `node` under `id` at its place in id order; a node already
  // present under `id` is kept.
  void Add(const Hash256& id, ProofNode node);
  // The node cited under `id`, or null.
  const ProofNode* Find(const Hash256& id) const;

  size_t ByteSize() const {
    size_t n = 0;
    for (const auto& [id, node] : nodes) {
      n += Hash256::kSize + node.payload.size() + 1;
    }
    return n;
  }
};

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
class PosNode;

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

  // Bulk-loads a tree from entries (they will be sorted and deduplicated
  // by key, last write wins). Returns the new root. Every node is put
  // with no base, so a load fills no cache.
  Status Build(std::vector<PosEntry> entries, Hash256* root) const;

  // Point read: the one root-to-leaf traversal. Returns NotFound if
  // absent. When `proof` is non-null it cites the nodes the traversal
  // visits, by reference to the decoded nodes, as the membership (or
  // non-membership) proof; null skips that.
  Status Get(const Hash256& root, const Slice& key, std::string* value,
             PosProof* proof) const;

  // Writes one key (insert or overwrite); returns the new root. A
  // non-null `replaced` gets appended the ids of the nodes of `root`
  // the write replaced: the descended leaf, every meta node on the
  // path and the siblings consumed while re-chunking, less any id the
  // new version still contains. It also gets any single-child root the
  // write stored and then collapsed away, a node of no version. A
  // no-op write or a failure appends nothing.
  Status Put(const Hash256& root, const Slice& key, const Slice& value,
             Hash256* new_root,
             std::vector<Hash256>* replaced = nullptr) const;

  // Removes one key; returns the new root. NotFound if absent.
  // `replaced` as for Put.
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

  // --- Client-side (stateless) verification ------------------------------

  // Verifies a point proof against a trusted root digest. If
  // expected_value is nullopt the proof must establish that `key` is
  // absent; otherwise that key maps to *expected_value.
  static Status VerifyProof(const Hash256& root, const Slice& key,
                            const std::optional<std::string>& expected_value,
                            const PosProof& proof);

  // Verifies a range proof: re-walks the proof nodes from the root and
  // checks that `expected` is exactly the content of [start, end)
  // (truncated at `limit` when limit > 0).
  static Status VerifyRangeProof(const Hash256& root, const Slice& start,
                                 const Slice& end, size_t limit,
                                 const std::vector<PosEntry>& expected,
                                 const PosRangeProof& proof);

  // A reference from a meta node to one child subtree. Public because
  // decoded nodes (PosNode) hand out copies of their child refs.
  struct ChildRef {
    std::string last_key;  // max key in the subtree
    Hash256 id;
    uint64_t count = 0;  // entries in the subtree
  };

 private:
  struct PathFrame {
    std::shared_ptr<const PosNode> node;  // a meta node
    size_t idx = 0;                       // child taken during descent
  };

  // Yields successive sibling node refs at a fixed level, starting after
  // the position described by `frames` (ancestor frames from the root
  // down to the parent of that level).
  class SiblingCursor {
   public:
    SiblingCursor(const PosTree* tree, std::vector<PathFrame> frames)
        : tree_(tree), frames_(std::move(frames)) {}

    // Returns the next sibling ref at the cursor's level, or nullopt.
    std::optional<ChildRef> Next();

   private:
    const PosTree* tree_;
    std::vector<PathFrame> frames_;
  };

  bool IsLeafBoundary(const Hash256& entry_hash) const;
  bool IsMetaBoundary(const Hash256& child_id) const;

  static Hash256 EntryHash(const PosEntry& e);

  // Node serialization (PosNode::Decode reads it back). A leaf's
  // payload is its entry list.
  static std::string EncodeLeaf(std::span<const PosEntry> entries);
  static std::string EncodeMeta(const std::vector<ChildRef>& children);

  // Fetches and decodes the node `id`, consulting the attached cache
  // first. On a miss the chunk is fetched from the store, decoded once,
  // and (when a cache is attached) memoized for later traversals.
  Status LoadNode(const Hash256& id,
                  std::shared_ptr<const PosNode>* node) const;

  // Writes a leaf (meta) chunk and returns its ref. A non-null `base`
  // is the chunk of the node it replaces, passed on to ChunkStore::Put.
  ChildRef StoreLeaf(const std::vector<PosEntry>& entries,
                     const Chunk* base = nullptr) const;
  ChildRef StoreMeta(const std::vector<ChildRef>& children,
                     const Chunk* base = nullptr) const;

  // Splits a run of child refs into meta nodes by the pattern rule and
  // stores them, the last node closed or not.
  std::vector<ChildRef> EmitMetas(const std::vector<ChildRef>& run) const;

  // Builds the levels above a list of child refs until a single root
  // remains.
  Hash256 BuildUp(std::vector<ChildRef> level_refs) const;

  // CollectChunks below `id`, a node `height` levels tall (1 = a leaf,
  // whose id is inserted without reading it).
  Status CollectSubtree(const Hash256& id, uint32_t height,
                        std::unordered_set<Hash256, Hash256Hasher>* live) const;

  // Core of Put/Delete: applies `apply` to the entries of the leaf the
  // key routes to and rebuilds the affected region of the tree.
  Status Update(const Hash256& root, const Slice& key,
                const std::optional<std::string>& value, Hash256* new_root,
                std::vector<Hash256>* replaced) const;

  ChunkStore* store_;
  PosTreeOptions options_;
  BufferCache* cache_ = nullptr;
};

// A decoded POS-tree node: a view over its immutable serialized bytes,
// which the node keeps alive through their owner — the chunk for a node
// read from the store, the frame buffer or a proof's copy for a node a
// proof carries. Beside those bytes the node keeps one 32-bit offset
// per element (a leaf's entry, a meta's child ref): where the element's
// first byte sits in the payload. Every accessor reads its key, value
// or child ref from the bytes in place; Parse checked each byte once
// when the node was built, so an access re-checks nothing. A cached
// node therefore holds each key and value exactly once — in the chunk,
// the same object a kRawChunk cache entry for this id holds — and costs
// beyond its bytes one allocation (this object with its control block)
// and one for the offsets, 4 bytes per element. The update path copies
// child refs out (child, children) as it copies entries (entry).
// Immutable once built, so one instance is safely shared by the cache
// and any number of concurrent traversals; every Slice it returns stays
// valid for as long as the caller holds the node.
class PosNode {
  // Only PosNode can name this, so only Decode can construct a node,
  // while std::make_shared can still reach the public constructor.
  struct Passkey {
    explicit Passkey() = default;
  };

 public:
  // The one decoder of index node bytes: decodes `payload`, a node of
  // chunk type `type`, in place and holds `owner` to keep it alive.
  // Returns Corruption for a type that is not an index leaf or meta
  // node, for bytes that do not parse, for an entry count larger than
  // the remaining bytes can hold, for bytes after the last entry, for a
  // meta node without children, and for a payload of 4 GiB or more.
  static Status Decode(ChunkType type, const Slice& payload,
                       std::shared_ptr<const void> owner,
                       std::shared_ptr<const PosNode>* node);
  // A node read from the store: views and holds `chunk`.
  static Status Decode(std::shared_ptr<const Chunk> chunk,
                       std::shared_ptr<const PosNode>* node);

  PosNode(Passkey, ChunkType type, const Slice& payload,
          std::shared_ptr<const void> owner, size_t owner_bytes,
          bool from_chunk)
      : type_(type),
        from_chunk_(from_chunk),
        payload_(payload),
        owner_(std::move(owner)),
        owner_bytes_(owner_bytes) {}

  ChunkType type() const { return type_; }
  bool is_leaf() const { return type() == ChunkType::kIndexLeaf; }
  // The serialized node, as proofs ship it.
  const Slice& payload() const { return payload_; }

  // Leaf entries, in key order.
  size_t entry_count() const { return offsets_.size(); }
  Slice key(size_t i) const;
  Slice value(size_t i) const;
  // An owned copy of entry i.
  PosEntry entry(size_t i) const;
  // Index of the first entry whose key is >= `key` (entry_count() when
  // there is none).
  size_t LowerBound(const Slice& key) const;

  // Meta children, in key order; never empty.
  size_t child_count() const { return offsets_.size(); }
  // Child i's last key (the max key of its subtree) and id.
  Slice last_key(size_t i) const;
  Hash256 child_id(size_t i) const;
  // Child i as an owned ref; children() copies every child.
  PosTree::ChildRef child(size_t i) const;
  std::vector<PosTree::ChildRef> children() const;
  // The child `key` routes to: the first whose last_key is >= `key`;
  // keys past every last_key route to the last child (where an insert
  // would land).
  size_t Route(const Slice& key) const;

  // The chunk a node read from the store was decoded from (the node
  // keeps it alive); null for a node decoded from other bytes, such as
  // a proof's.
  const Chunk* chunk() const {
    return from_chunk_ ? static_cast<const Chunk*>(owner_.get()) : nullptr;
  }

  // Every byte the node keeps alive, used as its cache charge: the
  // owner (for a chunk, the whole chunk) plus this object and its
  // offsets. While a kRawChunk entry for the same chunk is resident,
  // the chunk's bytes are charged to both entries, so the budget
  // over-counts and never under-counts.
  size_t ByteSize() const;

 private:
  // Builds the offsets of `node` over its bytes.
  static Status Parse(std::shared_ptr<PosNode> node,
                      std::shared_ptr<const PosNode>* out);

  ChunkType type_;
  bool from_chunk_;  // owner_ is the Chunk payload_ views
  Slice payload_;
  std::shared_ptr<const void> owner_;
  size_t owner_bytes_;             // what owner_ holds alive
  std::vector<uint32_t> offsets_;  // each element's first payload byte
};

}  // namespace spitz

#endif  // SPITZ_INDEX_POS_TREE_H_
