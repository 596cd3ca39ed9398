#ifndef SPITZ_PROOF_POS_NODE_H_
#define SPITZ_PROOF_POS_NODE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "chunk/chunk.h"
#include "common/pos_entry.h"
#include "common/slice.h"
#include "common/status.h"
#include "crypto/hash.h"
#include "proof/proof_node.h"

namespace spitz {

// The POS-tree's (index/pos_tree.h) node format, encode and decode, and
// its point and range proofs with their stateless verifiers.

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

// A meta node's reference to one child subtree. A meta's payload is a
// varint count, then lp(last_key) id varint(count) per child.
struct PosChildRef {
  std::string last_key;  // max key in the subtree
  Hash256 id;
  uint64_t count = 0;  // entries in the subtree
};

// A meta node's payload (PosNode::Decode reads it back). A leaf's
// payload is its entry list.
std::string EncodePosMeta(const std::vector<PosChildRef>& children);

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
// and one for the offsets, 4 bytes per element. A write copies child
// refs out (child, children) as it copies entries (entry).
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
  PosChildRef child(size_t i) const;
  std::vector<PosChildRef> children() const;
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

// The range walk that PosTree::Scan runs over the store and
// VerifyPosRangeProof runs over a proof: visits, in key order, the
// subtrees that can intersect [start, end) and hands every entry in
// range to `emit(leaf, i)` until `limit` entries (0 = no limit) have
// gone out. `load(id, &node)` resolves a node; either callback stops
// the walk with an error.
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

// --- Client-side (stateless) verification ----------------------------------

// Verifies a point proof against a trusted root digest. If
// expected_value is nullopt the proof must establish that `key` is
// absent; otherwise that key maps to *expected_value.
Status VerifyPosProof(const Hash256& root, const Slice& key,
                      const std::optional<std::string>& expected_value,
                      const PosProof& proof);

// Verifies a range proof: re-walks the proof nodes from the root and
// checks that `expected` is exactly the content of [start, end)
// (truncated at `limit` when limit > 0).
Status VerifyPosRangeProof(const Hash256& root, const Slice& start,
                           const Slice& end, size_t limit,
                           const std::vector<PosEntry>& expected,
                           const PosRangeProof& proof);

}  // namespace spitz

#endif  // SPITZ_PROOF_POS_NODE_H_
