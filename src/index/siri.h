#ifndef SPITZ_INDEX_SIRI_H_
#define SPITZ_INDEX_SIRI_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "chunk/chunk_store.h"
#include "common/slice.h"
#include "common/status.h"
#include "crypto/hash.h"
#include "index/mbt.h"
#include "index/mpt.h"
#include "index/pos_tree.h"

namespace spitz {

// ---------------------------------------------------------------------------
// SIRI — Structurally-Invariant Reusable Index (paper section 3.1).
//
// The paper's structural claim is that the POS-tree, the Merkle Patricia
// Trie and the Merkle Bucket Tree are all instances of one abstraction:
// an immutable, content-addressed index whose root hash is a pure
// function of its key-value set, whose versions share unmodified nodes,
// and whose query traversals double as integrity proofs. SiriIndex is
// that abstraction made concrete: SpitzDb programs against it and any
// backend can be plugged in via SpitzOptions::index_backend.
//
// Proofs produced through this interface are *wire-format* proofs: the
// SiriProof envelope is tagged with its backend kind and round-trips
// through Encode/Decode, so a remote client can verify a proof it
// received as bytes without sharing any in-process structs with the
// server. Verification dispatches on the envelope tag; a re-tagged or
// otherwise tampered envelope fails the hash checks because chunk ids
// commit to the chunk type byte as well as the payload.
// ---------------------------------------------------------------------------

enum class SiriBackend : uint8_t {
  kPosTree = 0,            // Pattern-Oriented-Split tree (default)
  kMerklePatriciaTrie = 1, // Ethereum-style trie
  kMerkleBucketTree = 2,   // Hyperledger-Fabric-style bucket tree
};

const char* SiriBackendName(SiriBackend kind);

// A serializable point-lookup proof. Exactly one of the kind-specific
// bodies is populated, selected by `kind`. The envelope encodes as
//   [kind:1][kind-specific body]
// and Verify() dispatches to the matching backend verifier. Its nodes
// are ProofNodes: views of bytes their owners keep alive.
struct SiriProof {
  SiriBackend kind = SiriBackend::kPosTree;
  PosProof pos;                   // kind == kPosTree
  MerklePatriciaTrie::Proof mpt;  // kind == kMerklePatriciaTrie
  MerkleBucketTree::Proof mbt;    // kind == kMerkleBucketTree

  // Serializes the envelope (appended to *out).
  void EncodeTo(std::string* out) const;
  std::string Encode() const {
    std::string out;
    EncodeTo(&out);
    return out;
  }
  // The exact number of bytes EncodeTo appends.
  size_t EncodedSize() const;
  // Parses one envelope from the front of *input, advancing it. The
  // nodes view the input bytes, which `owner` keeps alive.
  static Status DecodeFrom(Slice* input, std::shared_ptr<const void> owner,
                           SiriProof* out);
  // As above, over a copy of the envelope's bytes the proof owns.
  static Status DecodeFrom(Slice* input, SiriProof* out) {
    return DecodeOwnedCopy(input, out);
  }

  // Verifies against a trusted root digest. nullopt expected_value
  // demands a non-membership proof. The MBT bucket count is derived
  // from the directory payload, which the root commits to.
  Status Verify(const Hash256& root, const Slice& key,
                const std::optional<std::string>& expected_value) const;

  size_t ByteSize() const;
};

// A serializable range-scan proof. Only the POS-tree supports verified
// scans today; the envelope still carries a kind tag so future backends
// can join without a wire-format change. A node list is accepted only
// in strictly ascending id order, the one order the encoder writes, so
// a proof has exactly one byte form.
struct SiriRangeProof {
  SiriBackend kind = SiriBackend::kPosTree;
  PosRangeProof pos;  // kind == kPosTree

  void EncodeTo(std::string* out) const;
  std::string Encode() const {
    std::string out;
    EncodeTo(&out);
    return out;
  }
  size_t EncodedSize() const;
  static Status DecodeFrom(Slice* input, std::shared_ptr<const void> owner,
                           SiriRangeProof* out);
  static Status DecodeFrom(Slice* input, SiriRangeProof* out) {
    return DecodeOwnedCopy(input, out);
  }

  Status Verify(const Hash256& root, const Slice& start, const Slice& end,
                size_t limit, const std::vector<PosEntry>& expected) const;

  size_t ByteSize() const;
};

// A verified read's complete evidence: a backend-tagged SIRI proof
// envelope plus the index version it proves against. Serializable, so
// it can cross a process boundary and be verified from decoded bytes.
// A proof holds what it cites (ProofNode): the cached nodes on a
// server, the reply's frame buffer on a client.
struct ReadProof {
  SiriProof index_proof;  // path through the unified SIRI index
  Hash256 index_root;     // the version it proves against

  void EncodeTo(std::string* out) const;
  size_t EncodedSize() const { return Hash256::kSize + index_proof.EncodedSize(); }
  // Decodes views of *input, which `owner` keeps alive.
  static Status DecodeFrom(Slice* input, std::shared_ptr<const void> owner,
                           ReadProof* out);
  // Decodes into one copy of the proof's bytes that the proof owns.
  static Status DecodeFrom(Slice* input, ReadProof* out) {
    return DecodeOwnedCopy(input, out);
  }
};

struct ScanProof {
  SiriRangeProof index_proof;
  Hash256 index_root;

  void EncodeTo(std::string* out) const;
  size_t EncodedSize() const { return Hash256::kSize + index_proof.EncodedSize(); }
  static Status DecodeFrom(Slice* input, std::shared_ptr<const void> owner,
                           ScanProof* out);
  static Status DecodeFrom(Slice* input, ScanProof* out) {
    return DecodeOwnedCopy(input, out);
  }
};

struct SiriIndexOptions {
  SiriIndexOptions() {}
  PosTreeOptions pos;              // kPosTree tuning knobs
  uint32_t mbt_bucket_count = 256; // kMerkleBucketTree bucket count
};

// The unified index interface. A version is a root hash; all mutating
// operations return the root of a new version and never touch existing
// chunks, so any number of versions can be read concurrently. Reads come
// in two shapes, a point read and a range read, each one traversal whose
// visited nodes double as the proof when the caller asks for one.
// Backends that cannot serve ordered scans report SupportsScan() ==
// false and return NotSupported from Scan.
class SiriIndex {
 public:
  virtual ~SiriIndex() = default;

  virtual SiriBackend kind() const = 0;
  const char* name() const { return SiriBackendName(kind()); }

  virtual bool SupportsScan() const { return false; }

  // The empty index is the zero hash for every backend.
  Hash256 EmptyRoot() const { return Hash256(); }

  // Backends that cache decoded nodes (under BufferCache::kPosNode)
  // accept a cache here; others ignore it.
  virtual void SetNodeCache(BufferCache* /*cache*/) {}

  // --- Reads --------------------------------------------------------------

  // Point read of `key` in the version `root`; NotFound if absent. A
  // non-null `proof` receives the membership (or non-membership) proof
  // assembled from the same traversal; null skips the proof work.
  virtual Status Get(const Hash256& root, const Slice& key,
                     std::string* value, SiriProof* proof) const = 0;
  // Range read of [start, end), at most `limit` rows (0 = no limit), in
  // key order; `proof` as for Get. NotSupported unless SupportsScan().
  virtual Status Scan(const Hash256& root, const Slice& start,
                      const Slice& end, size_t limit,
                      std::vector<PosEntry>* out,
                      SiriRangeProof* proof) const;

  // --- Writes -------------------------------------------------------------

  // A non-null `replaced` gets appended the ids of the nodes the write
  // replaced (PosTree::Put); backends that cache no decoded nodes append
  // nothing.
  virtual Status Put(const Hash256& root, const Slice& key, const Slice& value,
                     Hash256* new_root,
                     std::vector<Hash256>* replaced = nullptr) const = 0;
  virtual Status Delete(const Hash256& root, const Slice& key,
                        Hash256* new_root,
                        std::vector<Hash256>* replaced = nullptr) const = 0;
  virtual Status Count(const Hash256& root, uint64_t* count) const = 0;

  // Inserts the ids of every chunk reachable from `root` (the root
  // itself, internal nodes, leaves/buckets) into *live. Shared subtrees
  // already present in *live are pruned, so marking N retained versions
  // costs the size of their union, not N full walks — the structural
  // sharing of the SIRI family working for the GC. Used by the version
  // GC to assemble the live set passed to ChunkStore::RetainLive.
  virtual Status CollectChunks(
      const Hash256& root,
      std::unordered_set<Hash256, Hash256Hasher>* live) const = 0;

  // Bulk-builds a tree from entries (last write per key wins). The
  // default loops Put; backends with a native builder override.
  virtual Status Build(std::vector<PosEntry> entries, Hash256* root) const;
};

// Constructs the backend named by `kind` over `store`.
std::unique_ptr<SiriIndex> MakeSiriIndex(SiriBackend kind, ChunkStore* store,
                                         const SiriIndexOptions& options = {});

}  // namespace spitz

#endif  // SPITZ_INDEX_SIRI_H_
