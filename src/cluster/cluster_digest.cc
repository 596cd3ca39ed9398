#include "cluster/cluster_digest.h"

#include "common/codec.h"
#include "proof/merkle_tree.h"

namespace spitz {

Hash256 ClusterDigest::ComputeRoot(const std::vector<SpitzDigest>& shards) {
  MerkleTree tree;
  std::string leaf;
  for (const SpitzDigest& shard : shards) {
    leaf.clear();
    shard.EncodeTo(&leaf);
    tree.AppendLeaf(leaf);
  }
  return tree.Root();
}

void ClusterDigest::EncodeTo(std::string* out) const {
  PutVarint64(out, shards.size());
  for (const SpitzDigest& shard : shards) shard.EncodeTo(out);
  out->append(reinterpret_cast<const char*>(root.data()), Hash256::kSize);
}

Status ClusterDigest::DecodeFrom(Slice* input, ClusterDigest* out) {
  // A digest takes three hashes and three varints.
  constexpr size_t kMinDigestBytes = 3 * Hash256::kSize + 3;
  uint64_t n = 0;
  Status s = GetCount(input, kMinDigestBytes, &n);
  if (!s.ok()) return s;
  out->shards.resize(n);
  for (SpitzDigest& shard : out->shards) {
    s = SpitzDigest::DecodeFrom(input, &shard);
    if (!s.ok()) return s;
  }
  s = GetHash256(input, &out->root);
  if (!s.ok()) return s;
  if (out->root != ComputeRoot(out->shards)) {
    return Status::VerificationFailed(
        "cluster digest root does not commit its shard digests");
  }
  return Status::OK();
}

Status TagShard(size_t shard, const Status& s) {
  return Status::FromCode(
      s.code(), "shard " + std::to_string(shard) + ": " + s.ToString());
}

}  // namespace spitz
