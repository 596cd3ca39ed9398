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
  // A pair takes a digest (three hashes, three varints) and its flag.
  constexpr size_t kMinPairBytes = 3 * Hash256::kSize + 3 + 1;
  uint64_t n = 0;
  Status s = GetCount(input, kMinPairBytes, &n);
  if (!s.ok()) return s;
  out->shards.resize(n);
  out->backups.assign(n, std::nullopt);
  for (size_t i = 0; i < n; i++) {
    bool replicated = false;
    s = SpitzDigest::DecodeFrom(input, &out->shards[i]);
    if (s.ok()) s = GetBool(input, &replicated);
    if (s.ok() && replicated) {
      s = SpitzDigest::DecodeFrom(input, &out->backups[i].emplace());
    }
    if (!s.ok()) return s;
  }
  s = GetHash256(input, &out->root);
  if (!s.ok()) return s;
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

Status TagShard(size_t shard, const Status& s) {
  return Status::FromCode(
      s.code(), "shard " + std::to_string(shard) + ": " + s.ToString());
}

}  // namespace spitz
