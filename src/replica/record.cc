#include "replica/record.h"

#include <string_view>
#include <unordered_set>

#include "common/codec.h"

namespace spitz {

std::vector<bool> SurvivingPuts(const std::vector<LedgerEntry>& entries) {
  std::vector<bool> surviving(entries.size());
  std::unordered_set<std::string_view> later_keys;
  for (size_t i = entries.size(); i-- > 0;) {
    surviving[i] = later_keys.insert(entries[i].key).second &&
                   entries[i].op == LedgerEntry::Op::kPut;
  }
  return surviving;
}

Status EncodeReplicationRecord(const SpitzDb& db, uint64_t height,
                               std::string* record, Block* block) {
  std::string serialized;
  Status s = db.SealedBlock(height, &serialized, block);
  if (!s.ok()) return s;
  record->clear();
  PutFixed64(record, height);
  PutLengthPrefixedSlice(record, serialized);
  const std::vector<LedgerEntry>& entries = block->entries();
  const std::vector<bool> surviving = SurvivingPuts(entries);
  std::string value;
  for (size_t i = 0; i < entries.size(); i++) {
    if (entries[i].op != LedgerEntry::Op::kPut) continue;
    record->push_back(surviving[i] ? '\x01' : '\0');
    if (!surviving[i]) continue;
    s = db.Read(block->index_root(), entries[i].key, &value, nullptr);
    if (!s.ok()) {
      return Status::NotFound(
          "cannot rebuild replication record for block " +
          std::to_string(height) +
          " (root aged out of the version-retention window? " +
          s.ToString() + "); re-seed the backup");
    }
    if (Hash256::Of(value) != entries[i].value_hash) {
      return Status::Corruption("value of '" + entries[i].key +
                                "' does not match its ledger entry hash");
    }
    PutLengthPrefixedSlice(record, value);
  }
  return Status::OK();
}

namespace {

// DecodeReplicationRecord less its status mapping: the readers'
// Corruption for a malformed record.
Status ParseRecord(Slice input, ReplicationRecord* out) {
  uint64_t height = 0;
  Status s = GetFixed64(&input, &height);
  if (s.ok()) s = GetLengthPrefixedSlice(&input, &out->serialized);
  if (s.ok()) s = Block::Decode(out->serialized, &out->block);
  if (!s.ok()) return s;
  if (out->block.height() != height) {
    return Status::Corruption("height disagrees with its block header");
  }
  out->ops.Clear();
  const std::vector<LedgerEntry>& entries = out->block.entries();
  const std::vector<bool> surviving = SurvivingPuts(entries);
  for (size_t i = 0; i < entries.size(); i++) {
    const LedgerEntry& entry = entries[i];
    if (entry.op == LedgerEntry::Op::kDelete) {
      out->ops.Delete(entry.key);
      continue;
    }
    bool has_value = false;
    s = GetBool(&input, &has_value);
    if (!s.ok()) return s;
    // A withheld value is checked locally: trusting the primary's claim
    // would let a tampered stream drop arbitrary writes.
    if (!has_value && surviving[i]) {
      return Status::VerificationFailed(
          "replication record omits the value of a surviving put");
    }
    if (has_value != surviving[i]) {
      return Status::Corruption("value of a superseded put");
    }
    Slice value;
    if (!has_value) continue;
    s = GetLengthPrefixedSlice(&input, &value);
    if (!s.ok()) return s;
    if (Hash256::Of(value) != entry.value_hash) {
      return Status::VerificationFailed("replicated value of '" + entry.key +
                                        "' does not hash to its ledger entry");
    }
    out->ops.Put(entry.key, value);
  }
  return CheckConsumed(input, "replication record");
}

}  // namespace

Status DecodeReplicationRecord(const Slice& record, ReplicationRecord* out) {
  Status s = ParseRecord(record, out);
  if (s.ok() || s.IsVerificationFailed()) return s;
  return Status::InvalidArgument("malformed replication record: " +
                                 s.message());
}

wire::ReplicaAck BlockAck(const Block& block) {
  wire::ReplicaAck ack;
  ack.applied_blocks = block.height() + 1;
  ack.index_root = block.index_root();
  ack.tip_hash = block.block_hash();
  return ack;
}

Status SealedBlockAck(const SpitzDb& db, uint64_t height,
                      wire::ReplicaAck* ack) {
  std::string serialized;
  Block block;
  Status s = db.SealedBlock(height, &serialized, &block);
  if (s.ok()) *ack = BlockAck(block);
  return s;
}

}  // namespace spitz
