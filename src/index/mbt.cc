#include "index/mbt.h"

namespace spitz {

namespace {

// A proof's reference to a chunk the traversal read.
ProofNode Cite(std::shared_ptr<const Chunk> chunk) {
  const uint8_t type = static_cast<uint8_t>(chunk->type());
  const Slice payload = chunk->data();
  return ProofNode{type, payload, std::move(chunk)};
}

Chunk BucketChunk(const std::vector<PosEntry>& entries) {
  std::string payload;
  PutEntryList(&payload, entries);
  return Chunk(ChunkType::kBucket, std::move(payload));
}

}  // namespace

Status MerkleBucketTree::LoadDirectory(const Hash256& root,
                                       std::vector<Hash256>* bucket_ids) const {
  std::shared_ptr<const Chunk> chunk;
  Status s = store_->Get(root, &chunk);
  if (!s.ok()) return s;
  return DecodeMbtDirectory(chunk->data(), options_, bucket_ids);
}

Hash256 MerkleBucketTree::StoreDirectory(
    const std::vector<Hash256>& bucket_ids) const {
  return store_->Put(Chunk(ChunkType::kBucket, EncodeMbtDirectory(bucket_ids)));
}

Status MerkleBucketTree::Get(const Hash256& root, const Slice& key,
                             std::string* value, MbtProof* proof) const {
  if (proof != nullptr) *proof = MbtProof();
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
  uint32_t b = MbtBucketOf(key, options_);
  if (proof != nullptr) {
    proof->bucket_index = b;
    proof->bucket.type = static_cast<uint8_t>(ChunkType::kBucket);
  }
  if (bucket_ids[b].IsZero()) return Status::NotFound("key absent");
  std::shared_ptr<const Chunk> bucket_chunk;
  s = store_->Get(bucket_ids[b], &bucket_chunk);
  if (!s.ok()) return s;
  std::vector<PosEntry> entries;
  s = DecodeMbtBucket(bucket_chunk->data(), &entries);
  if (!s.ok()) return s;
  if (proof != nullptr) proof->bucket = Cite(std::move(bucket_chunk));
  auto it = MbtLowerBound(entries, key);
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
    if (!s.ok()) return WritePathStatus(s);
  }
  uint32_t b = MbtBucketOf(key, options_);
  std::vector<PosEntry> entries;
  if (!bucket_ids[b].IsZero()) {
    std::shared_ptr<const Chunk> bucket_chunk;
    Status s = store_->Get(bucket_ids[b], &bucket_chunk);
    if (s.ok()) s = DecodeMbtBucket(bucket_chunk->data(), &entries);
    if (!s.ok()) return WritePathStatus(s);
  }
  auto it = MbtLowerBound(entries, key);
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
  if (!s.ok()) return WritePathStatus(s);
  uint32_t b = MbtBucketOf(key, options_);
  if (bucket_ids[b].IsZero()) return Status::NotFound("key absent");
  std::shared_ptr<const Chunk> bucket_chunk;
  s = store_->Get(bucket_ids[b], &bucket_chunk);
  if (!s.ok()) return WritePathStatus(s);
  std::vector<PosEntry> entries;
  s = DecodeMbtBucket(bucket_chunk->data(), &entries);
  if (!s.ok()) return s;
  auto it = MbtLowerBound(entries, key);
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
    s = DecodeMbtBucket(chunk->data(), &entries);
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
