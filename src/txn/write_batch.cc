#include "txn/write_batch.h"

#include "common/codec.h"

namespace spitz {

Status WriteBatch::ValidateReads(
    const std::function<Status(const Slice& key, std::string* value)>& get)
    const {
  for (const Read& read : reads_) {
    std::string value;
    Status s = get(read.key, &value);
    if (!s.ok() && !s.IsNotFound()) return s;
    const bool present = s.ok();
    if (present != read.present ||
        (present && Hash256::Of(value) != read.value_hash)) {
      return Status::Aborted("stale read of key '" + read.key + "'");
    }
  }
  return Status::OK();
}

std::string WriteBatch::Encode() const {
  std::string out;
  PutVarint64(&out, ops_.size());
  for (const Op& op : ops_) {
    out.push_back(static_cast<char>(op.type));
    PutLengthPrefixedSlice(&out, op.key);
    if (op.type == OpType::kPut) {
      PutLengthPrefixedSlice(&out, op.value);
    }
  }
  if (reads_.empty()) return out;
  PutVarint64(&out, reads_.size());
  for (const Read& read : reads_) {
    PutLengthPrefixedSlice(&out, read.key);
    out.push_back(read.present ? 1 : 0);
    if (read.present) out.append(read.value_hash.ToBytes());
  }
  return out;
}

Status WriteBatch::Decode(Slice input, WriteBatch* batch) {
  batch->Clear();
  // An op takes its type byte and a key length byte at least; a read
  // its key length byte and its present flag.
  uint64_t n = 0;
  Status s = GetCount(&input, 2, &n);
  for (uint64_t i = 0; s.ok() && i < n; i++) {
    uint8_t type = 0;
    Slice key, value;
    s = GetByte(&input, &type);
    if (s.ok()) s = GetLengthPrefixedSlice(&input, &key);
    if (!s.ok()) return s;
    if (type == static_cast<uint8_t>(OpType::kPut)) {
      s = GetLengthPrefixedSlice(&input, &value);
      if (s.ok()) batch->Put(key, value);
    } else if (type == static_cast<uint8_t>(OpType::kDelete)) {
      batch->Delete(key);
    } else {
      return Status::Corruption("unknown op type in write batch");
    }
  }
  if (!s.ok() || input.empty()) return s;
  s = GetCount(&input, 2, &n);
  if (!s.ok()) return s;
  // The encoder omits an empty read set, so a zero count is not an
  // encoding any writer produces.
  if (n == 0) return Status::Corruption("empty read set in write batch");
  batch->reads_.resize(n);
  for (Read& read : batch->reads_) {
    Slice key;
    s = GetLengthPrefixedSlice(&input, &key);
    if (s.ok()) s = GetBool(&input, &read.present);
    if (s.ok() && read.present) s = GetHash256(&input, &read.value_hash);
    if (!s.ok()) return s;
    read.key = key.ToString();
  }
  return CheckConsumed(input, "write batch");
}

}  // namespace spitz
