#include "chunk/blob_store.h"

#include "common/codec.h"

namespace spitz {

Hash256 BlobStore::Put(const Slice& data) {
  std::vector<ChunkExtent> extents = ChunkData(data, options_);
  std::string meta;
  PutVarint64(&meta, extents.size());
  for (const ChunkExtent& e : extents) {
    Chunk segment(ChunkType::kBlob,
                  std::string(data.data() + e.offset, e.length));
    Hash256 id = chunks_->Put(std::move(segment));
    meta.append(id.ToBytes());
    PutVarint64(&meta, e.length);
  }
  return chunks_->Put(Chunk(ChunkType::kBlobMeta, std::move(meta)));
}

Status BlobStore::Get(const Hash256& id, std::string* out) const {
  std::shared_ptr<const Chunk> meta;
  Status s = chunks_->Get(id, &meta);
  if (!s.ok()) return s;
  if (meta->type() != ChunkType::kBlobMeta) {
    return Status::Corruption("not a blob meta chunk");
  }
  Slice input = meta->data();
  uint64_t count = 0;
  s = GetVarint64(&input, &count);
  if (!s.ok()) return s;
  out->clear();
  for (uint64_t i = 0; i < count; i++) {
    Hash256 seg_id;
    if (!GetHash256(&input, &seg_id)) {
      return Status::Corruption("truncated blob meta");
    }
    uint64_t len = 0;
    s = GetVarint64(&input, &len);
    if (!s.ok()) return s;
    std::shared_ptr<const Chunk> seg;
    s = chunks_->Get(seg_id, &seg);
    if (!s.ok()) return s;
    if (seg->payload().size() != len) {
      return Status::Corruption("blob segment length mismatch");
    }
    out->append(seg->payload());
  }
  return Status::OK();
}

Status BlobStore::SegmentCount(const Hash256& id, size_t* count) const {
  std::shared_ptr<const Chunk> meta;
  Status s = chunks_->Get(id, &meta);
  if (!s.ok()) return s;
  Slice input = meta->data();
  uint64_t n = 0;
  s = GetVarint64(&input, &n);
  if (!s.ok()) return s;
  *count = static_cast<size_t>(n);
  return Status::OK();
}

}  // namespace spitz
