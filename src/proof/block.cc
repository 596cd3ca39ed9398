#include "proof/block.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/codec.h"

namespace spitz {

namespace {

// A difference of two uint64_t, read as two's complement, mapped so
// that small magnitudes of either sign take short varints.
uint64_t ZigZag(uint64_t delta) {
  return (delta << 1) ^ (0 - (delta >> 63));
}
uint64_t UnZigZag(uint64_t zigzag) {
  return (zigzag >> 1) ^ (0 - (zigzag & 1));
}

size_t SharedPrefix(const std::string& a, const std::string& b) {
  const size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) i++;
  return i;
}

}  // namespace

std::string LedgerEntry::Canonical() const {
  std::string out;
  out.push_back(static_cast<char>(op));
  PutLengthPrefixedSlice(&out, key);
  out.append(value_hash.ToBytes());
  PutVarint64(&out, txn_id);
  PutVarint64(&out, commit_ts);
  return out;
}

Hash256 LedgerEntry::LeafHash() const {
  // The leaf tag and Canonical()'s bytes, fed to SHA-256 as they are
  // laid out: no string is built.
  char head[2 + 10];  // tag, op, varint(key length)
  head[0] = 0x00;
  head[1] = static_cast<char>(op);
  char* end = EncodeVarint64(head + 2, key.size());
  Sha256 h;
  h.Update(head, end - head);
  h.Update(key);
  char tail[Hash256::kSize + 2 * 10];
  std::memcpy(tail, value_hash.data(), Hash256::kSize);
  end = EncodeVarint64(tail + Hash256::kSize, txn_id);
  end = EncodeVarint64(end, commit_ts);
  h.Update(tail, end - tail);
  Hash256 out;
  h.Final(out.data());
  return out;
}

void LedgerEntry::EncodeTo(const LedgerEntry& prev, std::string* dst) const {
  const size_t shared = SharedPrefix(prev.key, key);
  dst->push_back(static_cast<char>(op));
  PutVarint64(dst, shared);
  PutLengthPrefixedSlice(dst, Slice(key.data() + shared, key.size() - shared));
  dst->append(value_hash.slice().data(), value_hash.slice().size());
  PutVarint64(dst, ZigZag(commit_ts - prev.commit_ts));
  PutVarint64(dst, ZigZag(txn_id - commit_ts));
}

size_t LedgerEntry::EncodedSize(const LedgerEntry& prev) const {
  const size_t shared = SharedPrefix(prev.key, key);
  const size_t suffix = key.size() - shared;
  return 1 + VarintLength(shared) + VarintLength(suffix) + suffix +
         Hash256::kSize + VarintLength(ZigZag(commit_ts - prev.commit_ts)) +
         VarintLength(ZigZag(txn_id - commit_ts));
}

Status LedgerEntry::DecodeFrom(Slice* input, const LedgerEntry& prev,
                               LedgerEntry* entry) {
  uint8_t op = 0;
  Status s = GetByte(input, &op);
  if (!s.ok()) return s;
  if (op != static_cast<uint8_t>(Op::kPut) &&
      op != static_cast<uint8_t>(Op::kDelete)) {
    return Status::Corruption("unknown ledger op " + std::to_string(op));
  }
  uint64_t shared = 0;
  Slice suffix;
  s = GetVarint64(input, &shared);
  if (s.ok()) s = GetLengthPrefixedSlice(input, &suffix);
  if (!s.ok()) return s;
  if (shared > prev.key.size()) {
    return Status::Corruption("ledger entry shares more than the prior key");
  }
  // One byte form per entry: `shared` is the whole common prefix, so the
  // suffix cannot go on matching the previous key.
  if (shared < prev.key.size() && !suffix.empty() &&
      suffix[0] == prev.key[shared]) {
    return Status::Corruption("ledger entry shared prefix is not maximal");
  }
  uint64_t ts_delta = 0;
  uint64_t txn_delta = 0;
  s = GetHash256(input, &entry->value_hash);
  if (s.ok()) s = GetVarint64(input, &ts_delta);
  if (s.ok()) s = GetVarint64(input, &txn_delta);
  if (!s.ok()) return s;
  entry->op = static_cast<Op>(op);
  entry->key.assign(prev.key, 0, shared);
  entry->key.append(suffix.data(), suffix.size());
  entry->commit_ts = prev.commit_ts + UnZigZag(ts_delta);
  entry->txn_id = entry->commit_ts + UnZigZag(txn_delta);
  return Status::OK();
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

Hash256 Block::ComputeEntriesRoot(std::span<const LedgerEntry> entries) {
  MerkleFrontier tree;
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

void Block::EncodeHeader(uint64_t height, uint64_t first_seq,
                         const Hash256& prev_hash, const Hash256& index_root,
                         uint64_t timestamp, uint64_t entry_count,
                         std::string* dst) {
  PutVarint64(dst, height);
  PutVarint64(dst, first_seq);
  dst->append(prev_hash.slice().data(), Hash256::kSize);
  dst->append(index_root.slice().data(), Hash256::kSize);
  PutVarint64(dst, timestamp);
  PutVarint64(dst, entry_count);
}

size_t Block::HeaderSize(uint64_t height, uint64_t first_seq,
                         uint64_t timestamp, uint64_t entry_count) {
  return VarintLength(height) + VarintLength(first_seq) + 2 * Hash256::kSize +
         VarintLength(timestamp) + VarintLength(entry_count);
}

void Block::SetChainFields(uint64_t height, uint64_t first_seq,
                           const Hash256& prev_hash,
                           const Hash256& index_root, std::string* encoded) {
  std::string front;  // the header's bytes ahead of the two fields
  PutVarint64(&front, height);
  PutVarint64(&front, first_seq);
  assert(encoded->size() >= front.size() + 2 * Hash256::kSize &&
         encoded->compare(0, front.size(), front) == 0);
  char* at = encoded->data() + front.size();
  std::memcpy(at, prev_hash.data(), Hash256::kSize);
  std::memcpy(at + Hash256::kSize, index_root.data(), Hash256::kSize);
}

std::string Block::Encode() const {
  std::string out;
  EncodeHeader(height_, first_seq_, prev_hash_, index_root_, timestamp_,
               entries_.size(), &out);
  const LedgerEntry none;
  const LedgerEntry* prev = &none;
  for (const LedgerEntry& e : entries_) {
    e.EncodeTo(*prev, &out);
    prev = &e;
  }
  return out;
}

Status Block::Decode(Slice input, Block* block) {
  Block b;
  // An entry takes at least op, shared length, suffix length, hash and
  // two varints, so the count bounds the reserve.
  constexpr size_t kMinEntryBytes = 1 + 1 + 1 + Hash256::kSize + 1 + 1;
  uint64_t n = 0;
  Status s = GetVarint64(&input, &b.height_);
  if (s.ok()) s = GetVarint64(&input, &b.first_seq_);
  if (s.ok()) s = GetHash256(&input, &b.prev_hash_);
  if (s.ok()) s = GetHash256(&input, &b.index_root_);
  if (s.ok()) s = GetVarint64(&input, &b.timestamp_);
  if (s.ok()) s = GetCount(&input, kMinEntryBytes, &n);
  if (!s.ok()) return s;
  b.entries_.reserve(n);
  const LedgerEntry none;
  for (uint64_t i = 0; i < n; i++) {
    LedgerEntry e;
    s = LedgerEntry::DecodeFrom(&input, i == 0 ? none : b.entries_.back(),
                                &e);
    if (!s.ok()) return s;
    b.entries_.push_back(std::move(e));
  }
  s = CheckConsumed(input, "block entries");
  if (!s.ok()) return s;
  b.entries_root_ = ComputeEntriesRoot(b.entries_);
  b.block_hash_ = HeaderHash(b.height_, b.first_seq_, b.prev_hash_,
                             b.entries_root_, b.index_root_, b.timestamp_);
  *block = std::move(b);
  return Status::OK();
}

Status VerifyJournalEntry(const LedgerEntry& entry,
                          const JournalEntryProof& proof,
                          const JournalDigest& digest) {
  // Entry -> the block's entries root -> the block hash -> the journal
  // Merkle root the digest covers.
  Hash256 entries_root;
  if (!MerkleTree::RootFromPath(entry.LeafHash(), proof.entry_path,
                                &entries_root)) {
    return Status::VerificationFailed("malformed entry path");
  }
  Hash256 block_hash =
      Block::HeaderHash(proof.block_height, proof.first_seq, proof.prev_hash,
                        entries_root, proof.index_root, proof.block_timestamp);
  if (!MerkleTree::VerifyInclusion(Hash256::OfLeaf(block_hash.slice()),
                                   proof.block_path, digest.merkle_root)) {
    return Status::VerificationFailed("block not in journal");
  }
  if (proof.block_path.tree_size != digest.block_count) {
    return Status::VerificationFailed("proof generated for different digest");
  }
  return Status::OK();
}

bool VerifyJournalConsistency(const MerkleConsistencyProof& proof,
                              const JournalDigest& old_digest,
                              const JournalDigest& new_digest) {
  if (proof.old_size != old_digest.block_count ||
      proof.new_size != new_digest.block_count) {
    return false;
  }
  return MerkleTree::VerifyConsistency(proof, old_digest.merkle_root,
                                       new_digest.merkle_root);
}

}  // namespace spitz
