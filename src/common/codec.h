#ifndef SPITZ_COMMON_CODEC_H_
#define SPITZ_COMMON_CODEC_H_

#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/status.h"

namespace spitz {

// Binary encoding helpers shared by every serialized structure in the
// system (chunks, ledger blocks, index nodes, proofs). All multi-byte
// integers are little-endian fixed-width or LEB128-style varints.

// --- Fixed-width encodings ---------------------------------------------

void PutFixed32(std::string* dst, uint32_t value);
void PutFixed64(std::string* dst, uint64_t value);
// Write what PutFixed32/PutFixed64 append into dst.
void EncodeFixed32(char* dst, uint32_t value);
void EncodeFixed64(char* dst, uint64_t value);

uint32_t DecodeFixed32(const char* ptr);
uint64_t DecodeFixed64(const char* ptr);

// Reads a fixed-width value from the front of *input and advances it.
// Returns Corruption if input is too short.
Status GetFixed32(Slice* input, uint32_t* value);
Status GetFixed64(Slice* input, uint64_t* value);

// --- Varint encodings ---------------------------------------------------

void PutVarint32(std::string* dst, uint32_t value);
void PutVarint64(std::string* dst, uint64_t value);
// Writes what PutVarint64 appends into dst, which has room for 10 bytes,
// and returns the byte past it.
char* EncodeVarint64(char* dst, uint64_t value);

Status GetVarint32(Slice* input, uint32_t* value);
Status GetVarint64(Slice* input, uint64_t* value);

// Number of bytes PutVarint64 would emit for value.
int VarintLength(uint64_t value);

// --- Length-prefixed byte strings ----------------------------------------

void PutLengthPrefixedSlice(std::string* dst, const Slice& value);
// Number of bytes PutLengthPrefixedSlice would emit for value.
inline size_t LengthPrefixedSize(const Slice& value) {
  return VarintLength(value.size()) + value.size();
}
Status GetLengthPrefixedSlice(Slice* input, Slice* result);

}  // namespace spitz

#endif  // SPITZ_COMMON_CODEC_H_
