#ifndef SPITZ_PROOF_SIRI_PROOF_H_
#define SPITZ_PROOF_SIRI_PROOF_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "crypto/hash.h"
#include "proof/pos_node.h"

namespace spitz {

// ---------------------------------------------------------------------------
// SIRI — Structurally-Invariant Reusable Index (paper section 3.1).
//
// The paper's structural claim is that the POS-tree, the Merkle Patricia
// Trie and the Merkle Bucket Tree are all instances of one abstraction:
// an immutable, content-addressed index whose root hash is a pure
// function of its key-value set, whose versions share unmodified nodes,
// and whose query traversals double as integrity proofs. SiriIndex
// (index/siri.h) is that abstraction made concrete: SpitzDb programs
// against it and any backend can be plugged in via
// SpitzOptions::index_backend.
//
// Proofs produced through this interface are *wire-format* proofs: the
// SiriProof envelope is tagged with its backend kind and round-trips
// through Encode/Decode, so a remote client can verify a proof it
// received as bytes without sharing any in-process structs with the
// server. Verification dispatches on the envelope tag; a re-tagged or
// otherwise tampered envelope fails the hash checks because chunk ids
// commit to the chunk type byte as well as the payload.
// Here too are the MPT's and MBT's node formats and point verifiers (the
// POS-tree's are in proof/pos_node.h).
// ---------------------------------------------------------------------------

// --- Merkle Patricia Trie (index/mpt.h) -------------------------------------

// A trie node and its payload codec. A leaf is kind, lp(nibble path),
// lp(value); an extension kind, lp(nibble path), child id; a branch
// kind, fixed32 child mask, each present child's id, a 0/1 value flag
// and lp(value) when set. DecodeMptNode refuses every payload
// EncodeMptNode would not have written.
enum class MptNodeKind : uint8_t { kLeaf = 0, kExtension = 1, kBranch = 2 };

struct MptNode {
  MptNodeKind kind = MptNodeKind::kLeaf;
  std::vector<uint8_t> path;  // leaf or extension nibble path
  std::string value;          // leaf value or branch value
  bool has_value = false;     // branch-only
  Hash256 children[16];       // branch children (zero = absent)
  Hash256 child;              // extension child
};

std::string EncodeMptNode(const MptNode& node);
Status DecodeMptNode(const Slice& payload, MptNode* node);

// The nibble path a key routes along: two nibbles per byte, high first.
std::vector<uint8_t> MptNibbles(const Slice& key);

// Point proof: the nodes along the traversal, root first.
struct MptProof {
  std::vector<ProofNode> nodes;
};

Status VerifyMptProof(const Hash256& root, const Slice& key,
                      const std::optional<std::string>& expected_value,
                      const MptProof& proof);

// --- Merkle Bucket Tree (index/mbt.h) ---------------------------------------
//
// The root chunk is the "directory": bucket_count ids, zero for an empty
// bucket. A bucket's payload is its entry list (PutEntryList), sorted
// by key, and nothing after it.
struct MbtOptions {
  MbtOptions() : bucket_count(256) {}
  explicit MbtOptions(uint32_t buckets) : bucket_count(buckets) {}
  uint32_t bucket_count;
};

// The bucket `key` hashes to.
uint32_t MbtBucketOf(const Slice& key, const MbtOptions& options);
Status DecodeMbtBucket(Slice payload, std::vector<PosEntry>* entries);
// The first entry of a sorted bucket whose key is not below `key`.
std::vector<PosEntry>::iterator MbtLowerBound(std::vector<PosEntry>& entries,
                                              const Slice& key);
std::string EncodeMbtDirectory(const std::vector<Hash256>& bucket_ids);
Status DecodeMbtDirectory(const Slice& payload, const MbtOptions& options,
                          std::vector<Hash256>* bucket_ids);

// A point proof: the directory payload (which the root id commits to)
// plus the queried bucket's payload. MBT proofs are inherently bulky —
// the verifier needs the bucket directory — which is part of why the
// SIRI analysis favours the POS-tree.
// An empty bucket is cited with an empty payload.
struct MbtProof {
  uint32_t bucket_index = 0;
  ProofNode directory;
  ProofNode bucket;
};

Status VerifyMbtProof(const Hash256& root, const Slice& key,
                      const std::optional<std::string>& expected_value,
                      const MbtProof& proof,
                      const MbtOptions& options = MbtOptions());

// --- SIRI proof envelopes ---------------------------------------------------

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
  MptProof mpt;                   // kind == kMerklePatriciaTrie
  MbtProof mbt;                   // kind == kMerkleBucketTree

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

}  // namespace spitz

#endif  // SPITZ_PROOF_SIRI_PROOF_H_
