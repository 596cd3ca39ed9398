#include "chunk/chunk_record.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/codec.h"
#include "common/crc32c.h"

namespace spitz {

namespace {

// The base is indexed at every kBlock-aligned offset, so any run the
// target shares with it of at least 2 * kBlock - 1 bytes is found.
// Shorter runs stay literal.
constexpr size_t kBlock = 16;
constexpr uint32_t kNoBlock = UINT32_MAX;

uint32_t BlockHash(const char* p) {
  uint64_t a = 0;
  uint64_t b = 0;
  std::memcpy(&a, p, sizeof(a));
  std::memcpy(&b, p + sizeof(a), sizeof(b));
  return static_cast<uint32_t>(
      ((a * 0x9E3779B97F4A7C15ull) ^ (b * 0xC2B2AE3D27D4EB4Full)) >> 32);
}

void AppendRecord(uint8_t kind, const Slice& body, std::string* out) {
  const char k = static_cast<char>(kind);
  out->push_back(k);
  PutVarint64(out, body.size());
  out->append(body.data(), body.size());
  uint32_t crc = crc32c::Extend(0, &k, 1);
  crc = crc32c::Extend(crc, body.data(), body.size());
  PutFixed32(out, crc32c::Mask(crc));
}

size_t RecordSize(size_t body) { return 1 + VarintLength(body) + body + 4; }

void PutLiteral(const char* data, size_t length, std::string* ops) {
  if (length == 0) return;
  PutVarint64(ops, static_cast<uint64_t>(length) << 1);
  ops->append(data, length);
}

// Appends the ops that turn `base` into `target` to *ops: greedy
// copies of the runs the two share, literals between them. Gives up
// (false) once *ops would reach `limit` bytes.
bool DiffOps(const Slice& base, const Slice& target, size_t limit,
             std::string* ops) {
  const char* b = base.data();
  const char* t = target.data();
  const size_t m = base.size();
  const size_t n = target.size();
  const size_t blocks = m / kBlock;
  size_t slots = 16;
  while (slots < 2 * blocks) slots <<= 1;
  std::vector<uint32_t> table(slots, kNoBlock);
  const size_t mask = slots - 1;
  for (size_t i = 0; i < blocks; i++) {
    uint32_t& slot = table[BlockHash(b + i * kBlock) & mask];
    if (slot == kNoBlock) slot = static_cast<uint32_t>(i * kBlock);
  }
  size_t literal = 0;  // start of the pending literal run
  size_t pos = 0;
  while (pos + kBlock <= n) {
    if (ops->size() + (pos - literal) >= limit) return false;
    const uint32_t at = table[BlockHash(t + pos) & mask];
    if (at == kNoBlock || std::memcmp(b + at, t + pos, kBlock) != 0) {
      pos++;
      continue;
    }
    size_t base_start = at;
    size_t start = pos;
    while (start > literal && base_start > 0 &&
           b[base_start - 1] == t[start - 1]) {
      base_start--;
      start--;
    }
    size_t base_end = at + kBlock;
    size_t end = pos + kBlock;
    while (end < n && base_end < m && b[base_end] == t[end]) {
      base_end++;
      end++;
    }
    PutLiteral(t + literal, start - literal, ops);
    PutVarint64(ops, (static_cast<uint64_t>(end - start) << 1) | 1);
    PutVarint64(ops, base_start);
    literal = pos = end;
  }
  PutLiteral(t + literal, n - literal, ops);
  return ops->size() < limit;
}

}  // namespace

size_t FullRecordBody(size_t record_length) {
  // The one body length whose varint fills the rest of the record.
  for (size_t varint = 1; varint <= 5 && 5 + varint <= record_length;
       varint++) {
    const size_t body = record_length - 5 - varint;
    if (RecordSize(body) == record_length) return body;
  }
  return 0;
}

void EncodeChunkRecord(const Chunk& chunk, std::string* out) {
  AppendRecord(static_cast<uint8_t>(chunk.type()), chunk.data(), out);
}

bool EncodeDeltaRecord(const Chunk& chunk, const Chunk& base,
                       std::string* out) {
  const size_t full = RecordSize(chunk.payload().size());
  std::string body;
  body.append(chunk.id().slice().data(), Hash256::kSize);
  body.append(base.id().slice().data(), Hash256::kSize);
  PutVarint64(&body, chunk.payload().size());
  if (!DiffOps(base.data(), chunk.data(), full, &body)) return false;
  if (RecordSize(body.size()) >= full) return false;
  AppendRecord(kDeltaKind | static_cast<uint8_t>(chunk.type()), body, out);
  return true;
}

Status ParseChunkRecord(Slice* input, ChunkRecord* record, bool* torn) {
  *torn = false;
  if (input->empty()) {
    *torn = true;
    return Status::OK();
  }
  Slice rest = *input;
  const char kind = rest[0];
  rest.remove_prefix(1);
  uint64_t len = 0;
  if (!GetVarint64(&rest, &len).ok() || rest.size() < sizeof(uint32_t) ||
      rest.size() - sizeof(uint32_t) < len) {
    *torn = true;
    return Status::OK();
  }
  const char* data = rest.data();
  rest.remove_prefix(static_cast<size_t>(len));
  const uint32_t stored_crc = DecodeFixed32(rest.data());
  rest.remove_prefix(sizeof(uint32_t));
  uint32_t crc = crc32c::Extend(0, &kind, 1);
  crc = crc32c::Extend(crc, data, static_cast<size_t>(len));
  if (crc32c::Unmask(stored_crc) != crc) {
    return Status::Corruption("chunk record CRC mismatch");
  }
  const uint8_t k = static_cast<uint8_t>(kind);
  ChunkRecord parsed;
  parsed.type = static_cast<ChunkType>(k & ~kDeltaKind);
  parsed.delta = (k & kDeltaKind) != 0;
  parsed.body = Slice(data, static_cast<size_t>(len));
  if (parsed.delta) {
    Slice body = parsed.body;
    if (!GetHash256(&body, &parsed.id).ok() ||
        !GetHash256(&body, &parsed.base).ok() ||
        !GetVarint64(&body, &parsed.size).ok()) {
      return Status::Corruption("delta record header damaged");
    }
    parsed.body = body;
  }
  *record = parsed;
  *input = rest;
  return Status::OK();
}

Status ApplyDelta(const ChunkRecord& record, const Slice& base,
                  std::string* payload) {
  payload->clear();
  if (!record.delta) return Status::InvalidArgument("not a delta record");
  if (record.size > UINT32_MAX) {
    return Status::Corruption("delta rebuilds an oversized chunk");
  }
  payload->reserve(std::min<uint64_t>(record.size,
                                      base.size() + record.body.size()));
  Slice ops = record.body;
  while (!ops.empty()) {
    uint64_t tag = 0;
    if (!GetVarint64(&ops, &tag).ok()) {
      return Status::Corruption("delta op damaged");
    }
    const uint64_t length = tag >> 1;
    if (length == 0 || length > record.size - payload->size()) {
      return Status::Corruption("delta op overruns its chunk");
    }
    if ((tag & 1) != 0) {
      uint64_t offset = 0;
      if (!GetVarint64(&ops, &offset).ok() || offset > base.size() ||
          length > base.size() - offset) {
        return Status::Corruption("delta copy outside its base");
      }
      payload->append(base.data() + offset, static_cast<size_t>(length));
    } else {
      if (length > ops.size()) {
        return Status::Corruption("delta literal overruns its record");
      }
      payload->append(ops.data(), static_cast<size_t>(length));
      ops.remove_prefix(static_cast<size_t>(length));
    }
  }
  if (payload->size() != record.size) {
    return Status::Corruption("delta rebuilds a short chunk");
  }
  return Status::OK();
}

Status RebuildChunk(const ChunkRecord& record, const Slice& base,
                    Chunk* chunk) {
  std::string payload;
  Status s = ApplyDelta(record, base, &payload);
  if (!s.ok()) return s;
  Chunk rebuilt(record.type, std::move(payload));
  if (!(rebuilt.id() == record.id)) {
    return Status::Corruption("delta rebuilds a chunk of another id " +
                              rebuilt.id().ToHex() + " (stored " +
                              record.id.ToHex() + ")");
  }
  *chunk = std::move(rebuilt);
  return Status::OK();
}

}  // namespace spitz
