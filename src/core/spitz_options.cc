#include "core/spitz_options.h"

#include "chunk/file_chunk_store.h"

namespace spitz {

Status SpitzOptions::Validate() const {
  if (block_size == 0) {
    return Status::InvalidArgument("block_size must be at least 1");
  }
  if (index_backend == SiriBackend::kMerkleBucketTree &&
      mbt_bucket_count == 0) {
    return Status::InvalidArgument(
        "mbt_bucket_count must be at least 1 for the MBT backend");
  }
  if (buffer_cache_bytes == 0) {
    return Status::InvalidArgument(
        "buffer_cache_bytes must be positive (with no cache every "
        "traversal re-reads and re-hashes each node; size it small, "
        "don't disable it)");
  }
  if (chunk_segment_bytes == 0 ||
      chunk_segment_bytes > FileChunkStore::kMaxSegmentBytes) {
    return Status::InvalidArgument(
        "chunk_segment_bytes must be between 1 and " +
        std::to_string(FileChunkStore::kMaxSegmentBytes) +
        " (a record's offset in its segment is kept in 32 bits)");
  }
  if (retain_versions == 0) {
    return Status::InvalidArgument(
        "retain_versions must be at least 1 (the current version "
        "cannot be garbage-collected)");
  }
  return index_options.Validate();
}

}  // namespace spitz
