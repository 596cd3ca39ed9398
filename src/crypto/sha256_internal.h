#ifndef SPITZ_CRYPTO_SHA256_INTERNAL_H_
#define SPITZ_CRYPTO_SHA256_INTERNAL_H_

#include <cstddef>
#include <cstdint>

// The SHA-256 compression kernels behind Sha256, exposed so tests can
// check each one directly on any CPU. Not part of the public API: every
// caller outside src/crypto and its tests uses Sha256 or Hash256.
namespace spitz {
namespace sha256_internal {

// Compresses `blocks` consecutive 64-byte blocks at `data` into `state`
// (the eight FIPS 180-4 working words, H0..H7). `data` needs no
// alignment.
using BlockFn = void (*)(uint32_t state[8], const uint8_t* data,
                         size_t blocks);

// Portable C++ kernel: the fallback on every CPU without SHA
// instructions and the reference the hardware kernel is tested against.
void ScalarBlocks(uint32_t state[8], const uint8_t* data, size_t blocks);

// Whether this CPU has the x86 SHA extensions (SHA-NI) plus SSE4.1.
// Always false off x86.
bool HasShaNi();

// SHA-NI kernel. Only valid to call when HasShaNi() is true.
void ShaNiBlocks(uint32_t state[8], const uint8_t* data, size_t blocks);

// The kernel Sha256 uses: chosen once, on first use, from the CPU.
BlockFn SelectedBlocks();

}  // namespace sha256_internal
}  // namespace spitz

#endif  // SPITZ_CRYPTO_SHA256_INTERNAL_H_
