#ifndef SPITZ_COMMON_CRC32C_H_
#define SPITZ_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace spitz {
namespace crc32c {

// CRC-32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) —
// the checksum guarding every on-disk log record (chunk log and journal;
// DESIGN.md section 9). Chosen over CRC-32 for its better error-
// detection properties and because it matches what LevelDB-lineage
// stores put on their log records, making the formats familiar. Runs
// on the SSE4.2 CRC32 instruction when the CPU has it and on a
// slice-by-4 table otherwise (crc32c_internal.h); both give the same
// value.

// Returns the crc of data[0, n) concatenated onto a prefix whose crc
// was `crc`. Extend(0, ...) computes the crc of data[0, n) itself.
uint32_t Extend(uint32_t crc, const char* data, size_t n);

inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

// Stored crcs are masked so that a log record whose payload itself
// embeds crcs (e.g. a journal block carrying chunk records) never
// stores the raw crc of bytes that contain that same crc — a
// degenerate case where verification loses discriminating power.
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}

inline uint32_t Unmask(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8u;
  return (rot >> 17) | (rot << 15);
}

}  // namespace crc32c
}  // namespace spitz

#endif  // SPITZ_COMMON_CRC32C_H_
