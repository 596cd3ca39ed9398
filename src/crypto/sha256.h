#ifndef SPITZ_CRYPTO_SHA256_H_
#define SPITZ_CRYPTO_SHA256_H_

#include <cstddef>
#include <cstdint>

#include "common/slice.h"

namespace spitz {

// FIPS 180-4 SHA-256. This is the only cryptographic hash used by the
// system: every chunk id, index node id, ledger block hash, and proof
// digest is a SHA-256 output. The compression runs on the x86 SHA
// extensions when the CPU has them and on a portable C++ kernel
// otherwise; the choice is made once per process and never changes a
// digest (sha256_internal.h).
//
// Streaming usage:
//   Sha256 h;
//   h.Update(part1);
//   h.Update(part2);
//   uint8_t out[Sha256::kDigestSize];
//   h.Final(out);
class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  static constexpr size_t kBlockSize = 64;

  Sha256() { Reset(); }

  void Reset();
  void Update(const void* data, size_t len);
  void Update(const Slice& data) { Update(data.data(), data.size()); }
  // Finalizes the digest into out[0..31]. The object must be Reset()
  // before reuse.
  void Final(uint8_t out[kDigestSize]);

  // One-shot convenience.
  static void Digest(const Slice& data, uint8_t out[kDigestSize]);

 private:
  uint32_t state_[8];
  uint64_t byte_count_;
  uint8_t buffer_[kBlockSize];
  size_t buffer_len_;
};

}  // namespace spitz

#endif  // SPITZ_CRYPTO_SHA256_H_
