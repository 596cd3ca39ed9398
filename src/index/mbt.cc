#include "index/mbt.h"

#include <algorithm>

#include "common/codec.h"

namespace spitz {

namespace {

// A proof's reference to a chunk the traversal read.
ProofNode Cite(std::shared_ptr<const Chunk> chunk) {
  const uint8_t type = static_cast<uint8_t>(chunk->type());
  const Slice payload = chunk->data();
  return ProofNode{type, payload, std::move(chunk)};
}

// A bucket's payload is its entry list and nothing after it.
Status ParseBucket(Slice payload, std::vector<PosEntry>* entries) {
  Status s = GetEntryList(&payload, entries);
  return s.ok() ? CheckConsumed(payload, "MBT bucket") : s;
}

Chunk BucketChunk(const std::vector<PosEntry>& entries) {
  std::string payload;
  PutEntryList(&payload, entries);
  return Chunk(ChunkType::kBucket, std::move(payload));
}

// The first entry of a sorted bucket whose key is not below `key`.
std::vector<PosEntry>::iterator LowerBound(std::vector<PosEntry>& entries,
                                           const Slice& key) {
  return std::lower_bound(entries.begin(), entries.end(), key,
                          [](const PosEntry& e, const Slice& k) {
                            return Slice(e.key).compare(k) < 0;
                          });
}

}  // namespace

uint32_t MerkleBucketTree::BucketOf(const Slice& key) const {
  Hash256 h = Hash256::Of(key);
  uint32_t prefix = (static_cast<uint32_t>(h.data()[0]) << 24) |
                    (static_cast<uint32_t>(h.data()[1]) << 16) |
                    (static_cast<uint32_t>(h.data()[2]) << 8) |
                    static_cast<uint32_t>(h.data()[3]);
  return prefix % options_.bucket_count;
}

Status MerkleBucketTree::LoadDirectory(const Hash256& root,
                                       std::vector<Hash256>* bucket_ids) const {
  std::shared_ptr<const Chunk> chunk;
  Status s = store_->Get(root, &chunk);
  if (!s.ok()) return s;
  Slice input = chunk->data();
  if (input.size() != options_.bucket_count * Hash256::kSize) {
    return Status::Corruption("bad MBT directory size");
  }
  bucket_ids->clear();
  bucket_ids->reserve(options_.bucket_count);
  for (uint32_t i = 0; i < options_.bucket_count; i++) {
    bucket_ids->push_back(
        Hash256::FromBytes(Slice(input.data() + i * Hash256::kSize,
                                 Hash256::kSize)));
  }
  return Status::OK();
}

Hash256 MerkleBucketTree::StoreDirectory(
    const std::vector<Hash256>& bucket_ids) const {
  std::string payload;
  payload.reserve(bucket_ids.size() * Hash256::kSize);
  for (const Hash256& id : bucket_ids) payload.append(id.ToBytes());
  return store_->Put(Chunk(ChunkType::kBucket, std::move(payload)));
}

Status MerkleBucketTree::Get(const Hash256& root, const Slice& key,
                             std::string* value, Proof* proof) const {
  if (proof != nullptr) *proof = Proof();
  if (root.IsZero()) return Status::NotFound("empty tree");
  Status s;
  if (proof != nullptr) {
    std::shared_ptr<const Chunk> dir_chunk;
    s = store_->Get(root, &dir_chunk);
    if (!s.ok()) return s;
    proof->directory = Cite(std::move(dir_chunk));
  }
  std::vector<Hash256> bucket_ids;
  s = LoadDirectory(root, &bucket_ids);
  if (!s.ok()) return s;
  uint32_t b = BucketOf(key);
  if (proof != nullptr) {
    proof->bucket_index = b;
    proof->bucket.type = static_cast<uint8_t>(ChunkType::kBucket);
  }
  if (bucket_ids[b].IsZero()) return Status::NotFound("key absent");
  std::shared_ptr<const Chunk> bucket_chunk;
  s = store_->Get(bucket_ids[b], &bucket_chunk);
  if (!s.ok()) return s;
  std::vector<PosEntry> entries;
  s = ParseBucket(bucket_chunk->data(), &entries);
  if (!s.ok()) return s;
  if (proof != nullptr) proof->bucket = Cite(std::move(bucket_chunk));
  auto it = LowerBound(entries, key);
  if (it == entries.end() || Slice(it->key) != key) {
    return Status::NotFound("key absent");
  }
  *value = it->value;
  return Status::OK();
}

Status MerkleBucketTree::Put(const Hash256& root, const Slice& key,
                             const Slice& value, Hash256* new_root) const {
  std::vector<Hash256> bucket_ids;
  if (root.IsZero()) {
    bucket_ids.assign(options_.bucket_count, Hash256());
  } else {
    Status s = LoadDirectory(root, &bucket_ids);
    if (!s.ok()) return s;
  }
  uint32_t b = BucketOf(key);
  std::vector<PosEntry> entries;
  if (!bucket_ids[b].IsZero()) {
    std::shared_ptr<const Chunk> bucket_chunk;
    Status s = store_->Get(bucket_ids[b], &bucket_chunk);
    if (s.ok()) s = ParseBucket(bucket_chunk->data(), &entries);
    if (!s.ok()) return s;
  }
  auto it = LowerBound(entries, key);
  if (it != entries.end() && Slice(it->key) == key) {
    it->value = value.ToString();
  } else {
    entries.insert(it, PosEntry{key.ToString(), value.ToString()});
  }
  bucket_ids[b] = store_->Put(BucketChunk(entries));
  *new_root = StoreDirectory(bucket_ids);
  return Status::OK();
}

Status MerkleBucketTree::Delete(const Hash256& root, const Slice& key,
                                Hash256* new_root) const {
  if (root.IsZero()) return Status::NotFound("empty tree");
  std::vector<Hash256> bucket_ids;
  Status s = LoadDirectory(root, &bucket_ids);
  if (!s.ok()) return s;
  uint32_t b = BucketOf(key);
  if (bucket_ids[b].IsZero()) return Status::NotFound("key absent");
  std::shared_ptr<const Chunk> bucket_chunk;
  s = store_->Get(bucket_ids[b], &bucket_chunk);
  if (!s.ok()) return s;
  std::vector<PosEntry> entries;
  s = ParseBucket(bucket_chunk->data(), &entries);
  if (!s.ok()) return s;
  auto it = LowerBound(entries, key);
  if (it == entries.end() || Slice(it->key) != key) {
    return Status::NotFound("key absent");
  }
  entries.erase(it);
  bucket_ids[b] =
      entries.empty() ? Hash256() : store_->Put(BucketChunk(entries));
  // A fully-empty directory canonicalizes to the empty root.
  bool any = false;
  for (const Hash256& id : bucket_ids) any |= !id.IsZero();
  *new_root = any ? StoreDirectory(bucket_ids) : Hash256();
  return Status::OK();
}

Status MerkleBucketTree::VerifyProof(
    const Hash256& root, const Slice& key,
    const std::optional<std::string>& expected_value, const Proof& proof,
    const Options& options) {
  // 1. The directory payload must hash to the trusted root.
  const Slice directory = proof.directory.payload;
  if (Chunk::IdOf(ChunkType::kBucket, directory) != root) {
    return Status::VerificationFailed("directory does not match root");
  }
  if (directory.size() !=
      static_cast<size_t>(options.bucket_count) * Hash256::kSize) {
    return Status::VerificationFailed("bad directory size");
  }
  // 2. The claimed bucket index must be the key's bucket.
  Hash256 kh = Hash256::Of(key);
  uint32_t prefix = (static_cast<uint32_t>(kh.data()[0]) << 24) |
                    (static_cast<uint32_t>(kh.data()[1]) << 16) |
                    (static_cast<uint32_t>(kh.data()[2]) << 8) |
                    static_cast<uint32_t>(kh.data()[3]);
  uint32_t b = prefix % options.bucket_count;
  if (b != proof.bucket_index) {
    return Status::VerificationFailed("wrong bucket in proof");
  }
  Hash256 bucket_id = Hash256::FromBytes(
      Slice(directory.data() + b * Hash256::kSize,
            Hash256::kSize));
  // 3. Empty bucket: only non-membership can be shown.
  if (bucket_id.IsZero()) {
    if (expected_value.has_value()) {
      return Status::VerificationFailed("bucket empty but value expected");
    }
    return Status::OK();
  }
  // 4. The bucket payload must hash to the directory's id for it.
  if (Chunk::IdOf(ChunkType::kBucket, proof.bucket.payload) != bucket_id) {
    return Status::VerificationFailed("bucket payload mismatch");
  }
  std::vector<PosEntry> entries;
  if (!ParseBucket(proof.bucket.payload, &entries).ok()) {
    return Status::VerificationFailed("bad bucket payload");
  }
  auto it = LowerBound(entries, key);
  bool present = it != entries.end() && Slice(it->key) == key;
  if (expected_value.has_value()) {
    if (!present || it->value != *expected_value) {
      return Status::VerificationFailed("value mismatch");
    }
  } else if (present) {
    return Status::VerificationFailed("proof shows key present");
  }
  return Status::OK();
}

Status MerkleBucketTree::Count(const Hash256& root, uint64_t* count) const {
  *count = 0;
  if (root.IsZero()) return Status::OK();
  std::vector<Hash256> bucket_ids;
  Status s = LoadDirectory(root, &bucket_ids);
  if (!s.ok()) return s;
  for (const Hash256& id : bucket_ids) {
    if (id.IsZero()) continue;
    std::shared_ptr<const Chunk> chunk;
    s = store_->Get(id, &chunk);
    if (!s.ok()) return s;
    std::vector<PosEntry> entries;
    s = ParseBucket(chunk->data(), &entries);
    if (!s.ok()) return s;
    *count += entries.size();
  }
  return Status::OK();
}

Status MerkleBucketTree::CollectChunks(
    const Hash256& root,
    std::unordered_set<Hash256, Hash256Hasher>* live) const {
  if (root.IsZero()) return Status::OK();
  if (!live->insert(root).second) return Status::OK();
  std::vector<Hash256> bucket_ids;
  Status s = LoadDirectory(root, &bucket_ids);
  if (!s.ok()) return s;
  for (const Hash256& id : bucket_ids) {
    if (!id.IsZero()) live->insert(id);
  }
  return Status::OK();
}

}  // namespace spitz
