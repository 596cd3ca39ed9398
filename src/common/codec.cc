#include "common/codec.h"

#include <cstring>

namespace spitz {

void EncodeFixed32(char* dst, uint32_t value) {
  for (int i = 0; i < 4; i++) {
    dst[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

void EncodeFixed64(char* dst, uint64_t value) {
  for (int i = 0; i < 8; i++) {
    dst[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

void PutFixed32(std::string* dst, uint32_t value) {
  char buf[4];
  EncodeFixed32(buf, value);
  dst->append(buf, 4);
}

void PutFixed64(std::string* dst, uint64_t value) {
  char buf[8];
  EncodeFixed64(buf, value);
  dst->append(buf, 8);
}

uint32_t DecodeFixed32(const char* ptr) {
  const auto* p = reinterpret_cast<const unsigned char*>(ptr);
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t DecodeFixed64(const char* ptr) {
  const auto* p = reinterpret_cast<const unsigned char*>(ptr);
  uint64_t result = 0;
  for (int i = 0; i < 8; i++) {
    result |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return result;
}

Status GetFixed32(Slice* input, uint32_t* value) {
  if (input->size() < 4) {
    return Status::Corruption("truncated fixed32");
  }
  *value = DecodeFixed32(input->data());
  input->remove_prefix(4);
  return Status::OK();
}

Status GetFixed64(Slice* input, uint64_t* value) {
  if (input->size() < 8) {
    return Status::Corruption("truncated fixed64");
  }
  *value = DecodeFixed64(input->data());
  input->remove_prefix(8);
  return Status::OK();
}

void PutVarint32(std::string* dst, uint32_t value) {
  PutVarint64(dst, value);
}

void PutVarint64(std::string* dst, uint64_t value) {
  char buf[10];
  dst->append(buf, EncodeVarint64(buf, value) - buf);
}

char* EncodeVarint64(char* dst, uint64_t value) {
  while (value >= 0x80) {
    *dst++ = static_cast<char>(value | 0x80);
    value >>= 7;
  }
  *dst++ = static_cast<char>(value);
  return dst;
}

Status GetVarint64(Slice* input, uint64_t* value) {
  uint64_t result = 0;
  for (uint32_t shift = 0; shift <= 63 && !input->empty(); shift += 7) {
    auto byte = static_cast<unsigned char>((*input)[0]);
    input->remove_prefix(1);
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      // Only the encoding PutVarint64 writes: a tenth byte carries bit
      // 63 alone, and a last byte of zero after the first (0x80 0x00
      // for 0) would be a second spelling of a shorter varint.
      if ((shift == 63 && byte > 0x01) || (shift > 0 && byte == 0)) {
        return Status::Corruption("non-canonical varint64");
      }
      *value = result;
      return Status::OK();
    }
  }
  return Status::Corruption("truncated or overlong varint64");
}

Status GetVarint32(Slice* input, uint32_t* value) {
  uint64_t v = 0;
  Status s = GetVarint64(input, &v);
  if (!s.ok()) return s;
  if (v > UINT32_MAX) {
    return Status::Corruption("varint32 out of range");
  }
  *value = static_cast<uint32_t>(v);
  return Status::OK();
}

int VarintLength(uint64_t value) {
  int len = 1;
  while (value >= 0x80) {
    value >>= 7;
    len++;
  }
  return len;
}

void PutLengthPrefixedSlice(std::string* dst, const Slice& value) {
  PutVarint64(dst, value.size());
  dst->append(value.data(), value.size());
}

Status GetLengthPrefixedSlice(Slice* input, Slice* result) {
  uint64_t len = 0;
  Status s = GetVarint64(input, &len);
  if (!s.ok()) return s;
  if (input->size() < len) {
    return Status::Corruption("truncated length-prefixed slice");
  }
  *result = Slice(input->data(), static_cast<size_t>(len));
  input->remove_prefix(static_cast<size_t>(len));
  return Status::OK();
}

Status GetByte(Slice* input, uint8_t* value) {
  if (input->empty()) return Status::Corruption("truncated byte field");
  *value = static_cast<uint8_t>((*input)[0]);
  input->remove_prefix(1);
  return Status::OK();
}

Status GetBool(Slice* input, bool* value) {
  uint8_t byte = 0;
  Status s = GetByte(input, &byte);
  if (!s.ok()) return s;
  if (byte > 1) return Status::Corruption("flag byte is neither 0 nor 1");
  *value = byte == 1;
  return Status::OK();
}

Status GetCount(Slice* input, size_t min_bytes_per_item, uint64_t* n) {
  Status s = GetVarint64(input, n);
  if (!s.ok()) return s;
  if (*n > input->size() / min_bytes_per_item) {
    return Status::Corruption("count exceeds its bytes");
  }
  return Status::OK();
}

Status CheckConsumed(const Slice& input, const char* what) {
  if (input.empty()) return Status::OK();
  return Status::Corruption(std::string("trailing bytes after ") + what);
}

}  // namespace spitz
