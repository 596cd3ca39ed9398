#include "cluster/cluster_digest.h"

#include "common/codec.h"

namespace spitz {

namespace {

constexpr char kLeafUnreplicated = '\0';
constexpr char kLeafReplicated = '\x01';

const std::optional<SpitzDigest> kNoBackup;

// One replica-pair leaf: primary digest, flag byte, optional backup
// (last-agreed) digest. The flag byte is load-bearing even when 0 — it
// keeps an unreplicated leaf from ever parsing as a prefix of a
// replicated one.
void EncodePair(const SpitzDigest& primary,
                const std::optional<SpitzDigest>& backup, std::string* out) {
  primary.EncodeTo(out);
  if (backup.has_value()) {
    out->push_back(kLeafReplicated);
    backup->EncodeTo(out);
  } else {
    out->push_back(kLeafUnreplicated);
  }
}

// One tree build shared by root computation and inclusion proofs.
void BuildTree(const std::vector<SpitzDigest>& shards,
               const std::vector<std::optional<SpitzDigest>>& backups,
               MerkleTree* tree) {
  std::string leaf;
  for (size_t i = 0; i < shards.size(); i++) {
    leaf.clear();
    EncodePair(shards[i], i < backups.size() ? backups[i] : kNoBackup, &leaf);
    tree->AppendLeaf(leaf);
  }
}

}  // namespace

Hash256 ClusterDigest::ComputeRoot(const std::vector<SpitzDigest>& shards) {
  return ComputeRoot(shards, {});
}

Hash256 ClusterDigest::ComputeRoot(
    const std::vector<SpitzDigest>& shards,
    const std::vector<std::optional<SpitzDigest>>& backups) {
  MerkleTree tree;
  BuildTree(shards, backups, &tree);
  return tree.Root();
}

const std::optional<SpitzDigest>& ClusterDigest::backup(size_t index) const {
  return index < backups.size() ? backups[index] : kNoBackup;
}

bool ClusterDigest::backup_equal(const ClusterDigest& other) const {
  const size_t n = shards.size() > other.shards.size() ? shards.size()
                                                       : other.shards.size();
  for (size_t i = 0; i < n; i++) {
    if (backup(i) != other.backup(i)) return false;
  }
  return true;
}

void ClusterDigest::EncodeTo(std::string* out) const {
  PutVarint64(out, shards.size());
  for (size_t i = 0; i < shards.size(); i++) {
    EncodePair(shards[i], backup(i), out);
  }
  out->append(reinterpret_cast<const char*>(root.data()), Hash256::kSize);
}

Status ClusterDigest::DecodeFrom(Slice* input, ClusterDigest* out) {
  uint64_t n = 0;
  Status s = GetVarint64(input, &n);
  if (!s.ok()) return s;
  out->shards.clear();
  out->backups.clear();
  // Untrusted count: cap the reservation, let decode fail naturally.
  out->shards.reserve(static_cast<size_t>(n < 1024 ? n : 1024));
  out->backups.reserve(static_cast<size_t>(n < 1024 ? n : 1024));
  for (uint64_t i = 0; i < n; i++) {
    SpitzDigest shard;
    s = SpitzDigest::DecodeFrom(input, &shard);
    if (!s.ok()) return s;
    if (input->empty()) {
      return Status::Corruption("replica pair truncated before flag byte");
    }
    const char flag = (*input)[0];
    input->remove_prefix(1);
    std::optional<SpitzDigest> backup;
    if (flag == kLeafReplicated) {
      SpitzDigest b;
      s = SpitzDigest::DecodeFrom(input, &b);
      if (!s.ok()) return s;
      backup = b;
    } else if (flag != kLeafUnreplicated) {
      return Status::Corruption("unknown replica-pair flag byte");
    }
    out->shards.push_back(shard);
    out->backups.push_back(backup);
  }
  if (!GetHash256(input, &out->root)) {
    return Status::Corruption("cluster digest truncated before root");
  }
  if (out->root != ComputeRoot(out->shards, out->backups)) {
    return Status::VerificationFailed(
        "cluster digest root does not commit its replica pairs");
  }
  return Status::OK();
}

Status ClusterDigest::ShardInclusionProof(size_t index,
                                          MerkleInclusionProof* proof) const {
  if (index >= shards.size()) {
    return Status::InvalidArgument("shard index out of range");
  }
  MerkleTree tree;
  BuildTree(shards, backups, &tree);
  return tree.InclusionProof(index, proof);
}

bool ClusterDigest::VerifyShardInclusion(const SpitzDigest& shard_digest,
                                         const MerkleInclusionProof& proof,
                                         const Hash256& root) {
  return VerifyShardInclusion(shard_digest, kNoBackup, proof, root);
}

bool ClusterDigest::VerifyShardInclusion(
    const SpitzDigest& shard_digest, const std::optional<SpitzDigest>& backup,
    const MerkleInclusionProof& proof, const Hash256& root) {
  std::string leaf;
  EncodePair(shard_digest, backup, &leaf);
  return MerkleTree::VerifyInclusion(Hash256::OfLeaf(leaf), proof, root);
}

}  // namespace spitz
