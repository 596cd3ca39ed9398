#ifndef SPITZ_CLUSTER_CLUSTER_DIGEST_H_
#define SPITZ_CLUSTER_CLUSTER_DIGEST_H_

#include <string>
#include <vector>

#include "core/verifier.h"

namespace spitz {

// ---------------------------------------------------------------------------
// ClusterDigest — one hash for a whole sharded deployment.
//
// Each shard is an independent SpitzDb with its own SpitzDigest (index
// root + journal digest + commit timestamp). The cluster digest is an
// RFC 6962 Merkle tree whose leaves are the *encoded* shard digests, in
// shard order; its root is the single value a client retains to verify
// any cross-shard read or scan:
//
//   row  --ReadProof-->  shard digest  --Merkle leaf-->  cluster root
//
// Shard i's digest is that of the node that serves shard i's proofs for
// this snapshot: its primary, or its backup once the primary is
// unreachable or the backup is promoted (ClusterClient::TakeSnapshot).
//
// The envelope carries the shard digests alongside the root so a
// verifier can recompute the root from scratch; DecodeFrom re-derives
// it and refuses envelopes whose root does not bind their shard list,
// so a tampered digest (any flipped byte) fails at decode rather than
// letting a forged shard digest vouch for forged rows.
//
// The snapshot is per-shard-atomic, not cross-shard-atomic: shard i's
// digest pins one committed version of shard i, but two shards'
// digests may be captured around an in-flight 2PC transaction. What
// the root guarantees is that every verified row came from *some*
// committed state of its shard that the client explicitly pinned.
// ---------------------------------------------------------------------------
struct ClusterDigest {
  std::vector<SpitzDigest> shards;
  Hash256 root;

  // Merkle root over the leaves (leaf i = shard i's encoded digest).
  static Hash256 ComputeRoot(const std::vector<SpitzDigest>& shards);

  // Recomputes `root`. Call after mutating the shard list.
  void Seal() { root = ComputeRoot(shards); }

  // Envelope: varint shard count, encoded digest per shard, root.
  void EncodeTo(std::string* out) const;
  // Structural decode + root re-derivation; VerificationFailed when the
  // stored root does not match the shard digests it claims to commit.
  static Status DecodeFrom(Slice* input, ClusterDigest* out);

  bool operator==(const ClusterDigest& other) const {
    return root == other.root && shards == other.shards;
  }
  bool operator!=(const ClusterDigest& other) const {
    return !(*this == other);
  }
};

// Re-wraps shard `shard`'s error with the shard's index, keeping its
// code.
Status TagShard(size_t shard, const Status& s);

}  // namespace spitz

#endif  // SPITZ_CLUSTER_CLUSTER_DIGEST_H_
