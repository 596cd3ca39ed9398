#ifndef SPITZ_CHUNK_CHUNK_RECORD_H_
#define SPITZ_CHUNK_CHUNK_RECORD_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "chunk/chunk.h"
#include "common/slice.h"
#include "common/status.h"
#include "crypto/hash.h"

namespace spitz {

// The records a chunk segment (FileChunkStore) is a log of. Two kinds
// share one framing:
//
//   [1B kind] [varint body length] [body] [4B masked CRC32C(kind + body)]
//
//   full:  kind = chunk type (0..127), body = the chunk payload.
//   delta: kind = kDeltaKind | chunk type, body =
//          [32B own id] [32B base id] [varint payload size] [ops...]
//          and each op is  varint (length << 1 | 1), varint base offset
//          (copy `length` bytes of the base payload from that offset)
//          or              varint (length << 1), `length` literal bytes.
//
// A delta rebuilds its chunk's payload from the payload of the chunk
// named by its base id. The stored own id is what replay registers the
// record under; a rebuilt payload is served only after it hashes to
// that id (RebuildChunk), so a damaged base, forged ops or a forged id
// can be refused but never served.
inline constexpr uint8_t kDeltaKind = 0x80;

// A parsed record: views into the bytes ParseChunkRecord read.
struct ChunkRecord {
  ChunkType type = ChunkType::kBlob;
  bool delta = false;
  Slice body;     // full: the chunk payload; delta: the ops
  Hash256 id;     // delta: the stored own id
  Hash256 base;   // delta: the base id
  uint64_t size = 0;  // delta: the payload size the ops must rebuild
};

// The body length of a full record `record_length` bytes long: the
// inverse of the framing above (0 when no body length frames to it).
size_t FullRecordBody(size_t record_length);

// Appends the full record of `chunk` to *out.
void EncodeChunkRecord(const Chunk& chunk, std::string* out);

// Appends a delta record of `chunk` against `base` to *out when it is
// shorter than the full record; otherwise appends nothing and returns
// false.
bool EncodeDeltaRecord(const Chunk& chunk, const Chunk& base,
                       std::string* out);

// Parses one record from *input, advancing it past the record. A record
// the input ends inside sets *torn (nothing consumed). A complete record
// whose checksum does not match, or a delta whose header does not
// parse, is Corruption.
Status ParseChunkRecord(Slice* input, ChunkRecord* record, bool* torn);

// Applies a delta record's ops to `base`, the base's payload, into
// *payload. Refuses ops that read outside the base or the record, or
// that do not rebuild exactly record.size bytes. Checks no hash.
Status ApplyDelta(const ChunkRecord& record, const Slice& base,
                  std::string* payload);

// ApplyDelta, then the content check: the rebuilt chunk must hash to
// the record's own id. On success *chunk holds exactly the chunk the
// record was encoded from.
Status RebuildChunk(const ChunkRecord& record, const Slice& base,
                    Chunk* chunk);

}  // namespace spitz

#endif  // SPITZ_CHUNK_CHUNK_RECORD_H_
