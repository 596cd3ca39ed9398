#ifndef SPITZ_COMMON_CRC32C_INTERNAL_H_
#define SPITZ_COMMON_CRC32C_INTERNAL_H_

#include <cstddef>
#include <cstdint>

// The CRC-32C kernels behind crc32c::Extend, exposed so tests can check
// each one directly on any CPU. Each has Extend's contract.
namespace spitz {
namespace crc32c {
namespace internal {

// Portable slice-by-4 table kernel: the fallback on every CPU without
// the CRC32 instruction and the reference the hardware kernel is
// tested against.
uint32_t ExtendTable(uint32_t crc, const char* data, size_t n);

// Whether this CPU has the SSE4.2 CRC32 instruction. Always false off
// x86-64.
bool HasSse42();

// SSE4.2 kernel. Only valid to call when HasSse42() is true.
uint32_t ExtendSse42(uint32_t crc, const char* data, size_t n);

}  // namespace internal
}  // namespace crc32c
}  // namespace spitz

#endif  // SPITZ_COMMON_CRC32C_INTERNAL_H_
