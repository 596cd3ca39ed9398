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
  uint64_t n = 0;
  Status s = GetVarint64(&input, &n);
  if (!s.ok()) return s;
  for (uint64_t i = 0; i < n; i++) {
    if (input.empty()) return Status::Corruption("truncated write batch");
    OpType type = static_cast<OpType>(input[0]);
    input.remove_prefix(1);
    Slice key;
    s = GetLengthPrefixedSlice(&input, &key);
    if (!s.ok()) return s;
    if (type == OpType::kPut) {
      Slice value;
      s = GetLengthPrefixedSlice(&input, &value);
      if (!s.ok()) return s;
      batch->Put(key, value);
    } else if (type == OpType::kDelete) {
      batch->Delete(key);
    } else {
      return Status::Corruption("unknown op type in write batch");
    }
  }
  if (input.empty()) return Status::OK();
  s = GetVarint64(&input, &n);
  if (!s.ok()) return s;
  // The encoder omits an empty read set, so a zero count is not an
  // encoding any writer produces.
  if (n == 0) return Status::Corruption("empty read set in write batch");
  for (uint64_t i = 0; i < n; i++) {
    Read read;
    Slice key;
    s = GetLengthPrefixedSlice(&input, &key);
    if (!s.ok()) return s;
    read.key = key.ToString();
    if (input.empty()) return Status::Corruption("truncated read set");
    const uint8_t present = static_cast<uint8_t>(input[0]);
    input.remove_prefix(1);
    if (present > 1) return Status::Corruption("bad read-set present flag");
    read.present = present == 1;
    if (read.present && !GetHash256(&input, &read.value_hash)) {
      return Status::Corruption("truncated read-set value hash");
    }
    batch->reads_.push_back(std::move(read));
  }
  if (!input.empty()) {
    return Status::Corruption("trailing bytes after write batch");
  }
  return Status::OK();
}

}  // namespace spitz
