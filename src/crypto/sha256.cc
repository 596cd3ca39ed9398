#include "crypto/sha256.h"

#include <cstring>

#include "crypto/sha256_internal.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SPITZ_SHA256_X86 1
#endif

namespace spitz {

namespace {
constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

}  // namespace

namespace sha256_internal {

void ScalarBlocks(uint32_t state[8], const uint8_t* data, size_t blocks) {
  for (; blocks > 0; blocks--, data += Sha256::kBlockSize) {
    uint32_t w[64];
    for (int i = 0; i < 16; i++) {
      w[i] = (static_cast<uint32_t>(data[i * 4]) << 24) |
             (static_cast<uint32_t>(data[i * 4 + 1]) << 16) |
             (static_cast<uint32_t>(data[i * 4 + 2]) << 8) |
             static_cast<uint32_t>(data[i * 4 + 3]);
    }
    for (int i = 16; i < 64; i++) {
      uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; i++) {
      uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#ifdef SPITZ_SHA256_X86

bool HasShaNi() {
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
}

// The Intel SHA extensions keep the eight working words in two
// registers, ABEF and CDGH. Each _mm_sha256rnds2_epu32 runs two rounds
// on the low two message+constant words; msg1/msg2 compute the message
// schedule four words at a time. Compiled for the extension per
// function, so the rest of the binary still runs on CPUs without it.
__attribute__((target("sha,sse4.1"))) void ShaNiBlocks(uint32_t state[8],
                                                       const uint8_t* data,
                                                       size_t blocks) {
  // Byte order of each 32-bit word: message words are big-endian.
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; blocks--, data += Sha256::kBlockSize) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // w[g & 3] holds message words 4g..4g+3 of group g. Unrolled so
    // that w[] stays in registers.
    __m128i w[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; g++) {
      if (g < 4) {
        w[g] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
            kByteSwap);
      } else {
        // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16].
        const __m128i prev = w[(g + 3) & 3];
        __m128i x = _mm_sha256msg1_epu32(w[g & 3], w[(g + 1) & 3]);
        x = _mm_add_epi32(x, _mm_alignr_epi8(prev, w[(g + 2) & 3], 4));
        w[g & 3] = _mm_sha256msg2_epu32(x, prev);
      }
      const __m128i k =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * g));
      const __m128i wk = _mm_add_epi32(w[g & 3], k);
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}

#else  // !SPITZ_SHA256_X86

// ARMv8 has SHA-256 instructions too; they are not wired up yet, so
// every non-x86 build runs the scalar kernel.
bool HasShaNi() { return false; }

void ShaNiBlocks(uint32_t state[8], const uint8_t* data, size_t blocks) {
  ScalarBlocks(state, data, blocks);
}

#endif  // SPITZ_SHA256_X86

BlockFn SelectedBlocks() {
  static const BlockFn kSelected = HasShaNi() ? ShaNiBlocks : ScalarBlocks;
  return kSelected;
}

}  // namespace sha256_internal

void Sha256::Reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  byte_count_ = 0;
  buffer_len_ = 0;
}

void Sha256::Update(const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  byte_count_ += len;

  // Fill a partially filled buffer first.
  if (buffer_len_ > 0) {
    size_t take = kBlockSize - buffer_len_;
    if (take > len) take = len;
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ < kBlockSize) return;
    sha256_internal::SelectedBlocks()(state_, buffer_, 1);
    buffer_len_ = 0;
  }

  // Whole blocks straight from the caller's bytes, in one kernel call.
  size_t blocks = len / kBlockSize;
  if (blocks > 0) {
    sha256_internal::SelectedBlocks()(state_, p, blocks);
    p += blocks * kBlockSize;
    len -= blocks * kBlockSize;
  }

  if (len > 0) {
    std::memcpy(buffer_, p, len);
    buffer_len_ = len;
  }
}

void Sha256::Final(uint8_t out[kDigestSize]) {
  // The buffered tail, 0x80, zeros, then the 64-bit big-endian bit
  // count: one block, or two when fewer than 9 bytes are left in this
  // one.
  uint8_t tail[2 * kBlockSize];
  std::memcpy(tail, buffer_, buffer_len_);
  tail[buffer_len_] = 0x80;
  const size_t padded = buffer_len_ + 9 <= kBlockSize ? kBlockSize
                                                      : 2 * kBlockSize;
  std::memset(tail + buffer_len_ + 1, 0, padded - 8 - (buffer_len_ + 1));
  const uint64_t bit_count = byte_count_ * 8;
  for (int i = 0; i < 8; i++) {
    tail[padded - 8 + i] = static_cast<uint8_t>(bit_count >> (56 - 8 * i));
  }
  sha256_internal::SelectedBlocks()(state_, tail, padded / kBlockSize);

  for (int i = 0; i < 8; i++) {
    out[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
}

void Sha256::Digest(const Slice& data, uint8_t out[kDigestSize]) {
  Sha256 h;
  h.Update(data);
  h.Final(out);
}

}  // namespace spitz
