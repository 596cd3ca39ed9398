#ifndef SPITZ_CHUNK_CHUNK_H_
#define SPITZ_CHUNK_CHUNK_H_

#include <cstdint>
#include <string>
#include <utility>

#include "common/slice.h"
#include "crypto/hash.h"

namespace spitz {

// Every persistent object in the storage layer is a Chunk: a small typed
// byte string identified by the SHA-256 of its serialized form. Chunks
// are immutable; identical content always maps to the same id, which is
// the property the ForkBase-style deduplication (paper Fig. 1) and the
// structural sharing of SIRI indexes rely on.
enum class ChunkType : uint8_t {
  kBlob = 0,        // raw user data segment
  kBlobMeta = 1,    // list of blob segment ids forming one object
  kIndexLeaf = 2,   // SIRI index leaf node
  kIndexMeta = 3,   // SIRI index internal node
  kCell = 4,        // cell-store value
  kBlock = 5,       // ledger block body
  kTrieNode = 6,    // Merkle Patricia Trie node
  kBucket = 7,      // Merkle Bucket Tree bucket
};

class Chunk {
 public:
  Chunk() : type_(ChunkType::kBlob) {}
  Chunk(ChunkType type, std::string payload)
      : type_(type),
        payload_(std::move(payload)),
        id_(IdOf(type_, payload_)) {}

  // The chunk id: SHA-256 of the type byte followed by the payload. The
  // one definition, for chunks built here and for bytes read back
  // (segment replay, proof checks) without building a Chunk around them.
  static Hash256 IdOf(ChunkType type, const Slice& payload) {
    Sha256 h;
    const uint8_t t = static_cast<uint8_t>(type);
    h.Update(&t, 1);
    h.Update(payload);
    Hash256 id;
    h.Final(id.data());
    return id;
  }

  Chunk(const Chunk&) = default;
  Chunk& operator=(const Chunk&) = default;
  Chunk(Chunk&&) = default;
  Chunk& operator=(Chunk&&) = default;

  ChunkType type() const { return type_; }
  const std::string& payload() const { return payload_; }
  Slice data() const { return Slice(payload_); }
  const Hash256& id() const { return id_; }

  // Serialized size including the type byte, i.e. the physical footprint
  // this chunk contributes to storage accounting.
  size_t stored_size() const { return payload_.size() + 1; }

 private:
  ChunkType type_;
  std::string payload_;
  Hash256 id_;
};

}  // namespace spitz

#endif  // SPITZ_CHUNK_CHUNK_H_
