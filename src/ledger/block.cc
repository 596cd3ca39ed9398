#include "ledger/block.h"

#include "common/codec.h"
#include "ledger/merkle_tree.h"

namespace spitz {

void LedgerEntry::EncodeTo(std::string* dst) const {
  dst->push_back(static_cast<char>(op));
  PutLengthPrefixedSlice(dst, key);
  dst->append(value_hash.ToBytes());
  PutVarint64(dst, txn_id);
  PutVarint64(dst, commit_ts);
}

Status LedgerEntry::DecodeFrom(Slice* input, LedgerEntry* entry) {
  if (input->empty()) return Status::Corruption("truncated ledger entry");
  entry->op = static_cast<Op>((*input)[0]);
  input->remove_prefix(1);
  Slice key;
  Status s = GetLengthPrefixedSlice(input, &key);
  if (!s.ok()) return s;
  entry->key = key.ToString();
  if (!GetHash256(input, &entry->value_hash)) {
    return Status::Corruption("truncated ledger entry hash");
  }
  s = GetVarint64(input, &entry->txn_id);
  if (!s.ok()) return s;
  return GetVarint64(input, &entry->commit_ts);
}

Block::Block(uint64_t height, uint64_t first_seq, const Hash256& prev_hash,
             std::vector<LedgerEntry> entries, const Hash256& index_root,
             uint64_t timestamp)
    : height_(height),
      first_seq_(first_seq),
      prev_hash_(prev_hash),
      entries_(std::move(entries)),
      entries_root_(ComputeEntriesRoot(entries_)),
      index_root_(index_root),
      timestamp_(timestamp),
      block_hash_(HeaderHash(height_, first_seq_, prev_hash_, entries_root_,
                             index_root_, timestamp_)) {}

Block::Block(uint64_t height, uint64_t first_seq, const Hash256& prev_hash,
             std::vector<LedgerEntry> entries, const Hash256& entries_root,
             const Hash256& index_root, uint64_t timestamp)
    : height_(height),
      first_seq_(first_seq),
      prev_hash_(prev_hash),
      entries_(std::move(entries)),
      entries_root_(entries_root),
      index_root_(index_root),
      timestamp_(timestamp),
      block_hash_(HeaderHash(height_, first_seq_, prev_hash_, entries_root_,
                             index_root_, timestamp_)) {}

Hash256 Block::ComputeEntriesRoot(std::span<const LedgerEntry> entries) {
  MerkleTree tree;
  for (const LedgerEntry& e : entries) {
    tree.AppendLeafHash(e.LeafHash());
  }
  return tree.Root();
}

Hash256 Block::HeaderHash(uint64_t height, uint64_t first_seq,
                          const Hash256& prev_hash,
                          const Hash256& entries_root,
                          const Hash256& index_root, uint64_t timestamp) {
  std::string header;
  PutVarint64(&header, height);
  PutVarint64(&header, first_seq);
  header.append(prev_hash.ToBytes());
  header.append(entries_root.ToBytes());
  header.append(index_root.ToBytes());
  PutVarint64(&header, timestamp);
  return Hash256::Of(header);
}

std::string Block::Encode() const {
  std::string out;
  PutVarint64(&out, height_);
  PutVarint64(&out, first_seq_);
  out.append(prev_hash_.ToBytes());
  out.append(index_root_.ToBytes());
  PutVarint64(&out, timestamp_);
  PutVarint64(&out, entries_.size());
  for (const LedgerEntry& e : entries_) {
    e.EncodeTo(&out);
  }
  return out;
}

Status Block::Decode(Slice input, Block* block) {
  Block b;
  Status s = GetVarint64(&input, &b.height_);
  if (!s.ok()) return s;
  s = GetVarint64(&input, &b.first_seq_);
  if (!s.ok()) return s;
  if (!GetHash256(&input, &b.prev_hash_) ||
      !GetHash256(&input, &b.index_root_)) {
    return Status::Corruption("truncated block header");
  }
  s = GetVarint64(&input, &b.timestamp_);
  if (!s.ok()) return s;
  uint64_t n = 0;
  s = GetVarint64(&input, &n);
  if (!s.ok()) return s;
  // The count sizes the reserve, so it must fit the bytes that follow:
  // an entry takes at least op, key length, hash and two varints.
  constexpr uint64_t kMinEntryBytes = 1 + 1 + 32 + 1 + 1;
  if (n > input.size() / kMinEntryBytes) {
    return Status::Corruption("block entry count exceeds its bytes");
  }
  b.entries_.reserve(n);
  for (uint64_t i = 0; i < n; i++) {
    LedgerEntry e;
    s = LedgerEntry::DecodeFrom(&input, &e);
    if (!s.ok()) return s;
    b.entries_.push_back(std::move(e));
  }
  b.entries_root_ = ComputeEntriesRoot(b.entries_);
  b.block_hash_ = HeaderHash(b.height_, b.first_seq_, b.prev_hash_,
                             b.entries_root_, b.index_root_, b.timestamp_);
  *block = std::move(b);
  return Status::OK();
}

}  // namespace spitz
