#ifndef SPITZ_CLUSTER_CLUSTER_DIGEST_H_
#define SPITZ_CLUSTER_CLUSTER_DIGEST_H_

#include <optional>
#include <string>
#include <vector>

#include "core/verifier.h"
#include "proof/merkle_tree.h"

namespace spitz {

// ---------------------------------------------------------------------------
// ClusterDigest — one hash for a whole sharded deployment.
//
// Each shard is an independent SpitzDb with its own SpitzDigest (index
// root + journal digest + commit timestamp). The cluster digest is an
// RFC 6962 Merkle tree whose leaves are the *encoded* per-shard
// replica pairs, in shard order; its root is the single value a client
// retains to verify any cross-shard read or scan:
//
//   row  --ReadProof-->  shard digest  --Merkle leaf-->  cluster root
//
// Replicated shards (protocol v3): each leaf commits the agreed
// {primary, backup} digest pair — the primary's digest followed by one
// flag byte (0 = unreplicated, 1 = a backup digest follows; anything
// else is rejected at decode) and, when flagged, the backup's
// *last-agreed* digest, explicit in the envelope. The backup digest is
// the state the replication stream has acked — the root a failover
// client re-pins verified reads at when the primary dies — so the
// cluster root vouches for the failover target ahead of time, not
// after the fact.
//
// The envelope carries the shard digests alongside the root so a
// verifier can recompute the root from scratch; DecodeFrom re-derives
// it and refuses envelopes whose root does not bind their shard list,
// so a tampered digest (any flipped byte) fails at decode rather than
// letting a forged shard digest vouch for forged rows. For verifiers
// that hold only the 32-byte root, ShardInclusionProof produces the
// O(log n) path binding one shard's digest to it.
//
// The snapshot is per-shard-atomic, not cross-shard-atomic: shard i's
// digest pins one committed version of shard i, but two shards'
// digests may be captured around an in-flight 2PC transaction. What
// the root guarantees is that every verified row came from *some*
// committed state of its shard that the client explicitly pinned.
// ---------------------------------------------------------------------------
struct ClusterDigest {
  std::vector<SpitzDigest> shards;
  // Per-shard last-agreed backup digest; nullopt = unreplicated shard.
  // Either empty (no replication anywhere) or shards.size() long —
  // missing tail entries encode as unreplicated.
  std::vector<std::optional<SpitzDigest>> backups;
  Hash256 root;

  // Merkle root over the encoded replica-pair leaves (leaf i = shard
  // i's primary digest + flag + optional backup digest). The overload
  // without backups is every leaf unreplicated.
  static Hash256 ComputeRoot(const std::vector<SpitzDigest>& shards);
  static Hash256 ComputeRoot(
      const std::vector<SpitzDigest>& shards,
      const std::vector<std::optional<SpitzDigest>>& backups);

  // Recomputes `root`. Call after mutating the shard/backup lists.
  void Seal() { root = ComputeRoot(shards, backups); }

  // The backup digest for shard `index`, or nullopt.
  const std::optional<SpitzDigest>& backup(size_t index) const;

  // Envelope: varint shard count, encoded replica pair per shard, root.
  void EncodeTo(std::string* out) const;
  // Structural decode + root re-derivation; VerificationFailed when the
  // stored root does not match the replica pairs it claims to commit;
  // Corruption on any flag byte other than 0/1.
  static Status DecodeFrom(Slice* input, ClusterDigest* out);

  // Path binding shard `index`'s replica pair to `root`, for verifiers
  // that retain only the root.
  Status ShardInclusionProof(size_t index, MerkleInclusionProof* proof) const;
  static bool VerifyShardInclusion(const SpitzDigest& shard_digest,
                                   const MerkleInclusionProof& proof,
                                   const Hash256& root);
  static bool VerifyShardInclusion(const SpitzDigest& shard_digest,
                                   const std::optional<SpitzDigest>& backup,
                                   const MerkleInclusionProof& proof,
                                   const Hash256& root);

  bool operator==(const ClusterDigest& other) const {
    return root == other.root && shards == other.shards &&
           backup_equal(other);
  }
  bool operator!=(const ClusterDigest& other) const {
    return !(*this == other);
  }

  // Backup-list equality up to encoding: a missing tail entry and an
  // explicit nullopt are the same (both encode flag 0).
  bool backup_equal(const ClusterDigest& other) const;
};

// Re-wraps shard `shard`'s error with the shard's index, keeping its
// code.
Status TagShard(size_t shard, const Status& s);

}  // namespace spitz

#endif  // SPITZ_CLUSTER_CLUSTER_DIGEST_H_
