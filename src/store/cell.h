#ifndef SPITZ_STORE_CELL_H_
#define SPITZ_STORE_CELL_H_

#include <cstdint>
#include <string>

#include "common/codec.h"
#include "common/slice.h"
#include "common/status.h"
#include "crypto/hash.h"

namespace spitz {

// The universal key of the Spitz cell store (paper section 5): "the
// system maps each cell to a universal key consisting of the column id,
// primary key, timestamp, and the hash of its value."
//
// The byte encoding orders cells by (column_id, primary_key, timestamp)
// so that a prefix scan over (column_id, primary_key) yields the full
// version history of one cell in time order.
struct UniversalKey {
  uint32_t column_id = 0;
  std::string primary_key;
  uint64_t timestamp = 0;
  Hash256 value_hash;

  // Canonical sortable byte encoding.
  std::string Encode() const {
    std::string out;
    PutFixed32(&out, __builtin_bswap32(column_id));  // big-endian sorts
    PutLengthPrefixedSlice(&out, primary_key);
    PutFixed64(&out, __builtin_bswap64(timestamp));
    out.append(value_hash.ToBytes());
    return out;
  }

  static Status Decode(Slice input, UniversalKey* key) {
    uint32_t cid = 0;
    Status s = GetFixed32(&input, &cid);
    if (!s.ok()) return s;
    key->column_id = __builtin_bswap32(cid);
    Slice pk;
    s = GetLengthPrefixedSlice(&input, &pk);
    if (!s.ok()) return s;
    key->primary_key = pk.ToString();
    uint64_t ts = 0;
    s = GetFixed64(&input, &ts);
    if (!s.ok()) return s;
    key->timestamp = __builtin_bswap64(ts);
    if (!GetHash256(&input, &key->value_hash)) {
      return Status::Corruption("truncated universal key");
    }
    return Status::OK();
  }

  bool operator==(const UniversalKey& other) const {
    return column_id == other.column_id &&
           primary_key == other.primary_key &&
           timestamp == other.timestamp && value_hash == other.value_hash;
  }
};

// A cell: a universal key plus the value bytes it commits to.
struct Cell {
  UniversalKey key;
  std::string value;

  // True when the stored value matches the hash in the universal key
  // (the self-verifying property of the cell model).
  bool IsConsistent() const { return Hash256::Of(value) == key.value_hash; }
};

}  // namespace spitz

#endif  // SPITZ_STORE_CELL_H_
