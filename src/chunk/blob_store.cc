#include "chunk/blob_store.h"

#include "common/codec.h"

namespace spitz {

std::string BlobStore::EncodeMeta(const std::vector<Segment>& segments) {
  std::string meta;
  PutVarint64(&meta, segments.size());
  for (const Segment& segment : segments) {
    meta.append(segment.id.ToBytes());
    PutVarint64(&meta, segment.length);
  }
  return meta;
}

Status BlobStore::DecodeMeta(const Slice& payload,
                             std::vector<Segment>* segments) {
  Slice input = payload;
  uint64_t n = 0;
  Status s = GetCount(&input, Hash256::kSize + 1, &n);
  if (!s.ok()) return s;
  segments->resize(n);
  for (Segment& segment : *segments) {
    s = GetHash256(&input, &segment.id);
    if (s.ok()) s = GetVarint64(&input, &segment.length);
    if (!s.ok()) return s;
  }
  return CheckConsumed(input, "blob meta");
}

Hash256 BlobStore::Put(const Slice& data) {
  std::vector<Segment> segments;
  for (const ChunkExtent& e : ChunkData(data, options_)) {
    Chunk segment(ChunkType::kBlob,
                  std::string(data.data() + e.offset, e.length));
    segments.push_back(Segment{chunks_->Put(std::move(segment)), e.length});
  }
  return chunks_->Put(Chunk(ChunkType::kBlobMeta, EncodeMeta(segments)));
}

Status BlobStore::LoadMeta(const Hash256& id,
                           std::vector<Segment>* segments) const {
  std::shared_ptr<const Chunk> meta;
  Status s = chunks_->Get(id, &meta);
  if (!s.ok()) return s;
  if (meta->type() != ChunkType::kBlobMeta) {
    return Status::Corruption("not a blob meta chunk");
  }
  return DecodeMeta(meta->data(), segments);
}

Status BlobStore::Get(const Hash256& id, std::string* out) const {
  std::vector<Segment> segments;
  Status s = LoadMeta(id, &segments);
  if (!s.ok()) return s;
  out->clear();
  for (const Segment& segment : segments) {
    std::shared_ptr<const Chunk> seg;
    s = chunks_->Get(segment.id, &seg);
    if (!s.ok()) return s;
    if (seg->payload().size() != segment.length) {
      return Status::Corruption("blob segment length mismatch");
    }
    out->append(seg->payload());
  }
  return Status::OK();
}

Status BlobStore::SegmentCount(const Hash256& id, size_t* count) const {
  std::vector<Segment> segments;
  Status s = LoadMeta(id, &segments);
  if (s.ok()) *count = segments.size();
  return s;
}

}  // namespace spitz
