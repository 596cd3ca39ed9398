#ifndef SPITZ_TXN_WRITE_BATCH_H_
#define SPITZ_TXN_WRITE_BATCH_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "crypto/hash.h"

namespace spitz {

// An ordered collection of write operations applied atomically, plus an
// optional read set: the value each key held when the writer read it.
// A batch with a read set commits only if every one of those reads is
// still current where its writes apply (DESIGN.md section 13), which is
// what makes a read-modify-write serializable.
class WriteBatch {
 public:
  enum class OpType : uint8_t { kPut = 0, kDelete = 1 };

  struct Op {
    OpType type;
    std::string key;
    std::string value;  // empty for deletes
  };

  // One read-set entry: the key was absent, or held a value hashing to
  // `value_hash` (the hash a verified Get proves).
  struct Read {
    std::string key;
    bool present = false;
    Hash256 value_hash;  // zero when absent
  };

  WriteBatch() = default;

  void Put(const Slice& key, const Slice& value) {
    ops_.push_back({OpType::kPut, key.ToString(), value.ToString()});
  }

  void Delete(const Slice& key) {
    ops_.push_back({OpType::kDelete, key.ToString(), std::string()});
  }

  // Adds `key` to the read set: the batch commits only if the key still
  // holds `seen_value` (nullopt = still absent), else it fails Aborted.
  void Expect(const Slice& key, std::optional<Slice> seen_value) {
    reads_.push_back({key.ToString(), seen_value.has_value(),
                      seen_value ? Hash256::Of(*seen_value) : Hash256()});
  }

  // Adds an already-hashed read-set entry (a coordinator splitting a
  // batch by shard).
  void Expect(const Read& read) { reads_.push_back(read); }

  // Appends every op and read of `other` after this batch's, preserving
  // order. This is the group-merge primitive: a commit group (or a
  // client coalescing its own writes) folds several batches into one
  // without re-encoding them.
  void Append(const WriteBatch& other) {
    ops_.insert(ops_.end(), other.ops_.begin(), other.ops_.end());
    reads_.insert(reads_.end(), other.reads_.begin(), other.reads_.end());
  }

  void Clear() {
    ops_.clear();
    reads_.clear();
  }

  const std::vector<Op>& ops() const { return ops_; }
  const std::vector<Read>& reads() const { return reads_; }
  size_t size() const { return ops_.size(); }
  // No writes and no reads: nothing to commit or validate.
  bool empty() const { return ops_.empty() && reads_.empty(); }

  // Approximate payload weight (key + value bytes) — what a commit
  // group's size cap should count, since op count says little about
  // I/O volume.
  size_t ByteSize() const {
    size_t total = 0;
    for (const Op& op : ops_) total += op.key.size() + op.value.size();
    return total;
  }

  // The one read-set rule: OK if every read still matches what `get`
  // (NotFound = absent) returns for its key now, Aborted naming the
  // first stale key otherwise, or get's own error.
  Status ValidateReads(
      const std::function<Status(const Slice& key, std::string* value)>& get)
      const;

  // var(op count) ops, then — only when the read set is non-empty —
  // var(read count) and per read lp(key) byte(present) [hash:32 when
  // present]. A batch without reads encodes exactly as an op list.
  std::string Encode() const;
  // Strict: the whole input must be one canonical encoding (no trailing
  // bytes, no empty read set, present flag 0 or 1), else Corruption.
  static Status Decode(Slice input, WriteBatch* batch);

 private:
  std::vector<Op> ops_;
  std::vector<Read> reads_;
};

}  // namespace spitz

#endif  // SPITZ_TXN_WRITE_BATCH_H_
