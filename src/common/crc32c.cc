#include "common/crc32c.h"

#include <array>
#include <cstring>

#include "common/crc32c_internal.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#define SPITZ_CRC32C_X86_64 1
#endif

namespace spitz {
namespace crc32c {

namespace {

// Reflected Castagnoli polynomial.
constexpr uint32_t kPoly = 0x82F63B78u;

struct Tables {
  // tables[k][b]: crc contribution of byte b at distance k from the end,
  // enabling 4-bytes-at-a-time slicing in the hot loop.
  std::array<std::array<uint32_t, 256>, 4> t;

  Tables() {
    for (uint32_t b = 0; b < 256; b++) {
      uint32_t crc = b;
      for (int k = 0; k < 8; k++) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][b] = crc;
    }
    for (uint32_t b = 0; b < 256; b++) {
      t[1][b] = (t[0][b] >> 8) ^ t[0][t[0][b] & 0xff];
      t[2][b] = (t[1][b] >> 8) ^ t[0][t[1][b] & 0xff];
      t[3][b] = (t[2][b] >> 8) ^ t[0][t[2][b] & 0xff];
    }
  }
};

const Tables& tables() {
  static const Tables kTables;
  return kTables;
}

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

ExtendFn SelectedExtend() {
  static const ExtendFn kExtend = internal::HasSse42()
                                      ? internal::ExtendSse42
                                      : internal::ExtendTable;
  return kExtend;
}

}  // namespace

namespace internal {

uint32_t ExtendTable(uint32_t crc, const char* data, size_t n) {
  const Tables& tab = tables();
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  uint32_t c = crc ^ 0xffffffffu;
  // Slice-by-4 over the aligned middle.
  while (n >= 4) {
    c ^= static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
    c = tab.t[3][c & 0xff] ^ tab.t[2][(c >> 8) & 0xff] ^
        tab.t[1][(c >> 16) & 0xff] ^ tab.t[0][c >> 24];
    p += 4;
    n -= 4;
  }
  while (n > 0) {
    c = (c >> 8) ^ tab.t[0][(c ^ *p) & 0xff];
    p++;
    n--;
  }
  return c ^ 0xffffffffu;
}

#ifdef SPITZ_CRC32C_X86_64

bool HasSse42() { return __builtin_cpu_supports("sse4.2"); }

// The SSE4.2 CRC32 instruction computes exactly this reflected
// Castagnoli CRC, eight bytes per instruction. Compiled for SSE4.2 per
// function, so the rest of the binary still runs on CPUs without it.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t crc,
                                                       const char* data,
                                                       size_t n) {
  uint64_t c = crc ^ 0xffffffffu;
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, data, sizeof(word));  // unaligned little-endian
    c = _mm_crc32_u64(c, word);
    data += 8;
    n -= 8;
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  while (n > 0) {
    c32 = _mm_crc32_u8(c32, static_cast<uint8_t>(*data));
    data++;
    n--;
  }
  return c32 ^ 0xffffffffu;
}

#else  // !SPITZ_CRC32C_X86_64

// ARMv8 has CRC32C instructions too; they are not wired up yet, so
// every non-x86-64 build runs the table kernel.
bool HasSse42() { return false; }

uint32_t ExtendSse42(uint32_t crc, const char* data, size_t n) {
  return ExtendTable(crc, data, n);
}

#endif  // SPITZ_CRC32C_X86_64

}  // namespace internal

uint32_t Extend(uint32_t crc, const char* data, size_t n) {
  return SelectedExtend()(crc, data, n);
}

}  // namespace crc32c
}  // namespace spitz
