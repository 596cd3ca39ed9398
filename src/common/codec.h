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

// --- Readers of untrusted fields -------------------------------------------
//
// Every decoder of bytes a peer, a proof or a damaged file may have
// chosen reads its fields with these, and so refuses the same way:
// Corruption on a short input, and on any byte form the matching Put*
// would not have written.

Status GetByte(Slice* input, uint8_t* value);
// A flag byte: 0 or 1, and any other byte is Corruption.
Status GetBool(Slice* input, bool* value);
// An element count as a varint, refused ("count exceeds its bytes")
// unless the rest of *input can hold that many elements of at least
// min_bytes_per_item bytes each. A caller may reserve *n elements.
Status GetCount(Slice* input, size_t min_bytes_per_item, uint64_t* n);
// Corruption naming `what` unless input is empty: the last check of a
// decoder whose input must be exactly one encoding.
Status CheckConsumed(const Slice& input, const char* what);

}  // namespace spitz

#endif  // SPITZ_COMMON_CODEC_H_
