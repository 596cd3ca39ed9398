#ifndef SPITZ_CHUNK_BLOB_STORE_H_
#define SPITZ_CHUNK_BLOB_STORE_H_

#include <string>
#include <vector>

#include "chunk/chunk_store.h"
#include "chunk/chunker.h"
#include "common/status.h"

namespace spitz {

// Stores large immutable byte objects (e.g. wiki pages, document
// payloads) as lists of content-defined segments, deduplicated through
// the chunk store. Each stored version is identified by the hash of its
// meta chunk; versions of the same object share all unchanged segments.
// This is the mechanism behind the "Storage-ForkBase" line in paper
// Fig. 1.
class BlobStore {
 public:
  explicit BlobStore(ChunkStore* chunks, ChunkerOptions options = {})
      : chunks_(chunks), options_(options) {}

  BlobStore(const BlobStore&) = delete;
  BlobStore& operator=(const BlobStore&) = delete;

  // Writes a blob; returns the id of its meta chunk.
  Hash256 Put(const Slice& data);

  // Reassembles a blob from its meta chunk id.
  Status Get(const Hash256& id, std::string* out) const;

  // Number of segments a stored blob consists of.
  Status SegmentCount(const Hash256& id, size_t* count) const;

  // One segment a meta chunk lists: its chunk id and its length.
  struct Segment {
    Hash256 id;
    uint64_t length = 0;
  };
  // A meta chunk's payload: a varint count, then each segment's id and
  // varint length, and nothing after them.
  static std::string EncodeMeta(const std::vector<Segment>& segments);
  static Status DecodeMeta(const Slice& payload,
                           std::vector<Segment>* segments);

 private:
  // Reads and decodes the meta chunk `id`.
  Status LoadMeta(const Hash256& id, std::vector<Segment>* segments) const;

  ChunkStore* chunks_;
  ChunkerOptions options_;
};

}  // namespace spitz

#endif  // SPITZ_CHUNK_BLOB_STORE_H_
