#include "ledger/journal.h"

#include "common/clock.h"
#include "common/record_frame.h"

namespace spitz {

Status Journal::Open(Env* env, const std::string& path, const AdoptFn& adopt,
                     uint64_t* truncated_bytes) {
  *truncated_bytes = 0;
  path_ = path;
  std::string contents;
  Status s = env->ReadFileToString(path, &contents);
  if (!s.ok() && !s.IsNotFound()) return s;
  // A corrupt frame fails recovery: restoring it would rebuild the
  // ledger over a block whose hashes no longer match its content.
  std::vector<Slice> payloads;
  uint64_t consumed = 0;
  s = ReadRecordFrames(contents, path, &payloads, &consumed);
  if (!s.ok()) return s;
  for (const Slice& payload : payloads) {
    Block block;
    s = Block::Decode(payload, &block);
    if (s.ok()) s = CheckChains(block);
    if (!s.ok()) return s;
    // In the file already: only its offset is kept.
    AddBlock(block.block_hash(), block.index_root(), block.entries().size(),
             payload.size());
    adopt(block);
  }
  // Cut the torn tail before reopening for append; otherwise every block
  // logged from now on would sit behind unparseable garbage, unreachable
  // by all future recoveries.
  if (consumed < contents.size()) {
    s = env->Truncate(path, consumed);
    if (!s.ok()) return s;
    *truncated_bytes = contents.size() - consumed;
  }
  s = env->NewWritableLog(path, &log_);
  if (!s.ok()) {
    return Status::IOError("cannot open journal log: " + path + ": " +
                           s.message());
  }
  // No frame may reach the kernel, and so an in-flight fsync, before the
  // owner's barrier has ordered the chunks it names ahead of it.
  log_->SetManualFlush(true);
  return env->NewRandomAccessFile(path, &file_);
}

uint64_t Journal::Append(std::vector<LedgerEntry> entries,
                         const Hash256& index_root, uint64_t timestamp,
                         Slice* serialized) {
  uint64_t height = block_hashes_.size();
  Block block(height, entry_count_, tip_hash_, std::move(entries), index_root,
              timestamp);
  std::string encoded = block.Encode();
  // Encode grew the string by doubling; the block stays resident until
  // a flush covers it, and a journal without a file keeps it for good.
  encoded.shrink_to_fit();
  if (log_ != nullptr) LogFrame(height, encoded);
  AddBlock(block.block_hash(), index_root, block.entries().size(),
           encoded.size());
  resident_bytes_ += encoded.size();
  resident_.push_back(std::move(encoded));
  if (serialized != nullptr) *serialized = resident_.back();
  return height;
}

Status Journal::Restore(const Block& block, const Slice& serialized) {
  Status s = CheckChains(block);
  if (s.ok() && log_ != nullptr) s = LogFrame(block.height(), serialized);
  if (!s.ok()) return s;
  AddBlock(block.block_hash(), block.index_root(), block.entries().size(),
           serialized.size());
  resident_bytes_ += serialized.size();
  resident_.push_back(serialized.ToString());
  return Status::OK();
}

Status Journal::CheckChains(const Block& block) const {
  if (block.height() != block_hashes_.size()) {
    return Status::Corruption("restored block at wrong height");
  }
  if (block.prev_hash() != tip_hash_) {
    return Status::Corruption("restored block breaks the hash chain");
  }
  if (block.first_seq() != entry_count_) {
    return Status::Corruption("restored block at wrong sequence");
  }
  return Status::OK();
}

void Journal::AddBlock(const Hash256& block_hash, const Hash256& index_root,
                       uint64_t entries, size_t serialized_bytes) {
  entry_count_ += entries;
  tip_hash_ = block_hash;
  block_hashes_.push_back(block_hash);
  index_roots_.push_back(index_root);
  block_tree_.AppendLeafHash(Hash256::OfLeaf(block_hash.slice()));
  frame_ends_.push_back(frame_ends_.back() +
                        RecordFrameSize(serialized_bytes));
}

Status Journal::LogFrame(uint64_t height, const Slice& serialized) {
  // After a failure the log's tail is not where frame_ends_ says, so
  // nothing more is logged.
  if (!status_.ok()) return status_;
  frame_.clear();
  AppendRecordFrame(serialized, &frame_);
  Status s = log_->Append(frame_);
  if (!s.ok()) {
    status_ = Status::IOError("journal append failed at block " +
                              std::to_string(height) + ": " + s.message());
  }
  return status_;
}

Status Journal::Flush() {
  if (log_ == nullptr || !status_.ok()) return status_;
  Status s = log_->Flush();
  if (!s.ok()) {
    status_ = Status::IOError("journal flush failed: " + s.message());
    return status_;
  }
  resident_.clear();
  resident_bytes_ = 0;
  // A drained deque keeps its last chunk; give it back.
  resident_.shrink_to_fit();
  return Status::OK();
}

Status Journal::SyncFlushed() {
  if (log_ == nullptr) return Status::OK();
  Status s = log_->SyncFlushed();
  return s.ok() ? s : Status::IOError("journal sync failed: " + s.message());
}

JournalDigest Journal::Digest() const {
  JournalDigest d;
  d.block_count = block_hashes_.size();
  d.entry_count = entry_count_;
  d.tip_hash = tip_hash_;
  d.merkle_root = block_tree_.Root();
  return d;
}

Status Journal::Locate(uint64_t height, BlockRef* ref,
                       MerkleInclusionProof* block_path) const {
  if (height >= block_count()) {
    return Status::NotFound("block height beyond journal");
  }
  if (block_path != nullptr) {
    Status s = block_tree_.InclusionProof(height, block_path);
    if (!s.ok()) return s;
  }
  ref->height = height;
  ref->block_hash = block_hashes_[height];
  ref->offset = frame_ends_[height];
  ref->frame_bytes = frame_ends_[height + 1] - frame_ends_[height];
  const uint64_t first_resident = block_count() - resident_.size();
  ref->resident = height >= first_resident;
  if (ref->resident) {
    ref->bytes = resident_[height - first_resident];
  } else {
    ref->bytes.clear();
  }
  ref->file = file_.get();
  ref->path = &path_;
  return Status::OK();
}

Status Journal::Load(const BlockRef& ref, std::string* serialized,
                     Block* block) {
  if (ref.resident) {
    if (serialized != nullptr) *serialized = ref.bytes;
    return Block::Decode(ref.bytes, block);
  }
  auto where = [&ref] {
    return "journal block " + std::to_string(ref.height) + " at offset " +
           std::to_string(ref.offset) + " in " + *ref.path;
  };
  std::string frame;
  Status s = ref.file->Read(ref.offset, ref.frame_bytes, &frame);
  if (!s.ok()) {
    return Status::IOError("cannot read " + where() + ": " + s.message());
  }
  // The frame the journal wrote is the whole extent: one record whose
  // CRC holds, and a block that hashes to the one the chain recorded.
  std::vector<Slice> payloads;
  uint64_t consumed = 0;
  s = ReadRecordFrames(frame, *ref.path, &payloads, &consumed);
  if (!s.ok() || payloads.size() != 1 || consumed != frame.size()) {
    return Status::Corruption("bad frame: " + where());
  }
  s = Block::Decode(payloads[0], block);
  if (!s.ok()) return Status::Corruption(s.message() + ": " + where());
  if (block->block_hash() != ref.block_hash) {
    return Status::Corruption("block hash mismatch: " + where());
  }
  if (serialized != nullptr) *serialized = payloads[0].ToString();
  return Status::OK();
}

Status Journal::ReadBlock(uint64_t height, std::string* serialized) const {
  BlockRef ref;
  Block block;
  Status s = Locate(height, &ref);
  return s.ok() ? Load(ref, serialized, &block) : s;
}

Status Journal::GetBlock(uint64_t height, Block* block) const {
  BlockRef ref;
  Status s = Locate(height, &ref);
  return s.ok() ? Load(ref, nullptr, block) : s;
}

Status Journal::ProveEntry(uint64_t height, uint64_t entry_index,
                           JournalEntryProof* proof,
                           LedgerEntry* entry) const {
  BlockRef ref;
  MerkleInclusionProof block_path;
  Status s = Locate(height, &ref, &block_path);
  return s.ok() ? ProveEntryIn(ref, block_path, entry_index, proof, entry)
                : s;
}

Status Journal::ProveEntryIn(const BlockRef& ref,
                             const MerkleInclusionProof& block_path,
                             uint64_t entry_index, JournalEntryProof* proof,
                             LedgerEntry* entry) {
  Block block;
  Status s = Load(ref, nullptr, &block);
  if (!s.ok()) return s;
  if (entry_index >= block.entries().size()) {
    return Status::InvalidArgument("entry index beyond block");
  }
  // Recompute the block-internal Merkle tree to extract the entry path.
  MerkleTree entry_tree;
  for (const LedgerEntry& e : block.entries()) {
    entry_tree.AppendLeafHash(e.LeafHash());
  }
  proof->block_height = ref.height;
  proof->entry_index = entry_index;
  s = entry_tree.InclusionProof(entry_index, &proof->entry_path);
  if (!s.ok()) return s;
  proof->first_seq = block.first_seq();
  proof->prev_hash = block.prev_hash();
  proof->index_root = block.index_root();
  proof->block_timestamp = block.timestamp();
  proof->block_path = block_path;
  *entry = block.entries()[entry_index];
  return Status::OK();
}

Status Journal::VerifyEntry(const LedgerEntry& entry,
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

Status Journal::ConsistencyProof(uint64_t old_block_count,
                                 MerkleConsistencyProof* proof) const {
  return block_tree_.ConsistencyProof(old_block_count, proof);
}

bool Journal::VerifyConsistency(const MerkleConsistencyProof& proof,
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
