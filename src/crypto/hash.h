#ifndef SPITZ_CRYPTO_HASH_H_
#define SPITZ_CRYPTO_HASH_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <utility>

#include "common/slice.h"
#include "common/status.h"
#include "crypto/sha256.h"

namespace spitz {

// A 256-bit digest value. This is the universal identity type in the
// system: chunk ids, index node ids, ledger block hashes, and Merkle
// roots are all Hash256 values.
class Hash256 {
 public:
  static constexpr size_t kSize = 32;

  Hash256() { bytes_.fill(0); }

  static Hash256 Of(const Slice& data) {
    Hash256 h;
    Sha256::Digest(data, h.bytes_.data());
    return h;
  }

  // Domain-separated hash of two child digests; used by every Merkle
  // structure so that leaf and interior hashes cannot be confused
  // (second-preimage hardening, as in RFC 6962).
  static Hash256 OfPair(const Hash256& left, const Hash256& right) {
    Sha256 h;
    uint8_t tag = 0x01;
    h.Update(&tag, 1);
    h.Update(left.data(), kSize);
    h.Update(right.data(), kSize);
    Hash256 out;
    h.Final(out.bytes_.data());
    return out;
  }

  static Hash256 OfLeaf(const Slice& data) {
    Sha256 h;
    uint8_t tag = 0x00;
    h.Update(&tag, 1);
    h.Update(data);
    Hash256 out;
    h.Final(out.bytes_.data());
    return out;
  }

  static Hash256 FromBytes(const Slice& raw) {
    Hash256 h;
    if (raw.size() == kSize) {
      std::memcpy(h.bytes_.data(), raw.data(), kSize);
    }
    return h;
  }

  const uint8_t* data() const { return bytes_.data(); }
  uint8_t* data() { return bytes_.data(); }

  Slice slice() const {
    return Slice(reinterpret_cast<const char*>(bytes_.data()), kSize);
  }

  std::string ToBytes() const {
    return std::string(reinterpret_cast<const char*>(bytes_.data()), kSize);
  }

  // Lowercase hex, 64 characters.
  std::string ToHex() const;
  static Hash256 FromHex(const Slice& hex);

  bool IsZero() const {
    for (uint8_t b : bytes_) {
      if (b != 0) return false;
    }
    return true;
  }

  bool operator==(const Hash256& other) const {
    return bytes_ == other.bytes_;
  }
  bool operator!=(const Hash256& other) const {
    return bytes_ != other.bytes_;
  }
  bool operator<(const Hash256& other) const { return bytes_ < other.bytes_; }

 private:
  std::array<uint8_t, kSize> bytes_;
};

// Decodes a raw 32-byte hash field off the front of *input and advances
// past it. Corruption (nothing consumed) when the input is too short.
inline Status GetHash256(Slice* input, Hash256* out) {
  if (input->size() < Hash256::kSize) {
    return Status::Corruption("truncated hash field");
  }
  *out = Hash256::FromBytes(Slice(input->data(), Hash256::kSize));
  input->remove_prefix(Hash256::kSize);
  return Status::OK();
}

// noexcept, so an unordered container keyed by Hash256 stores no copy
// of the hash in each node (libstdc++ caches it for a hasher that may
// throw).
struct Hash256Hasher {
  size_t operator()(const Hash256& h) const noexcept {
    // The digest bytes are already uniformly distributed.
    size_t out;
    std::memcpy(&out, h.data(), sizeof(out));
    return out;
  }
};
static_assert(noexcept(Hash256Hasher()(std::declval<const Hash256&>())),
              "Hash256Hasher must stay noexcept");

}  // namespace spitz

#endif  // SPITZ_CRYPTO_HASH_H_
