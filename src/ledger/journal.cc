#include "ledger/journal.h"

#include <algorithm>

#include "common/clock.h"
#include "common/fork_join.h"
#include "common/record_frame.h"

namespace spitz {

namespace {

// Recovery: blocks decoded before any is chained (which bounds the
// decoded entries in memory), and blocks per piece.
constexpr size_t kReplayWindow = 256;
constexpr size_t kReplayGrain = 8;

// The header frame's payload: magic ‖ varint(format version). Version 2
// stores each block entry in its compact form (LedgerEntry::EncodeTo);
// version 1 logs had no header and are not read.
constexpr char kJournalMagic[8] = {'S', 'P', 'T', 'Z', 'J', 'R', 'N', 'L'};
constexpr uint64_t kJournalFormatVersion = 2;

Status CheckHeader(Slice payload, const std::string& path) {
  if (!payload.starts_with(Slice(kJournalMagic, sizeof(kJournalMagic)))) {
    return Status::NotSupported(path +
                                " has no format header: written by an older "
                                "release, whose journal format is not read");
  }
  payload.remove_prefix(sizeof(kJournalMagic));
  uint64_t version = 0;
  if (!GetVarint64(&payload, &version).ok() || !payload.empty()) {
    return Status::Corruption("malformed journal header in " + path);
  }
  if (version != kJournalFormatVersion) {
    return Status::NotSupported(
        path + " is journal format v" + std::to_string(version) +
        "; this build reads v" + std::to_string(kJournalFormatVersion));
  }
  return Status::OK();
}

}  // namespace

std::string Journal::HeaderFrame() {
  std::string payload(kJournalMagic, sizeof(kJournalMagic));
  PutVarint64(&payload, kJournalFormatVersion);
  std::string frame;
  AppendRecordFrame(payload, &frame);
  return frame;
}

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
  // The header frame comes first. Without a complete one the file is
  // new, or a crash tore the header before any block followed it: an
  // empty log, whose header goes out with the first block's frame.
  header_pending_ = payloads.empty();
  if (!header_pending_) {
    s = CheckHeader(payloads.front(), path);
    if (!s.ok()) return s;
    payloads.erase(payloads.begin());
  }
  frame_ends_[0] = HeaderFrame().size();
  // Decoding a block and hashing its entries needs no other block, so a
  // window of blocks does that on every core; chaining, recording and
  // adopting them stays on this thread, in height order, so the first
  // error is the one a block-by-block replay meets.
  std::vector<Block> blocks;
  std::vector<Status> decoded;
  for (size_t first = 0; first < payloads.size(); first += kReplayWindow) {
    const size_t count = std::min(kReplayWindow, payloads.size() - first);
    blocks.assign(count, Block());
    decoded.assign(count, Status::OK());
    ParallelFor(count, kReplayGrain, [&](size_t begin, size_t end) {
      for (size_t k = begin; k < end; k++) {
        decoded[k] = Block::Decode(payloads[first + k], &blocks[k]);
      }
    });
    for (size_t k = 0; k < count; k++) {
      const Block& block = blocks[k];
      s = decoded[k];
      if (s.ok()) s = CheckChains(block);
      if (!s.ok()) return s;
      // In the file already: only its offset is kept.
      AddBlock(block.block_hash(), block.index_root(), block.entries().size(),
               payloads[first + k].size());
      adopt(block);
    }
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
  const Block block(block_count(), entry_count_, tip_hash_, std::move(entries),
                    index_root, timestamp);
  std::string encoded = block.Encode();
  // Encode grew the string by doubling; the block stays resident until
  // a flush covers it, and a journal without a file keeps it for good.
  encoded.shrink_to_fit();
  return Seal(block.block_hash(), index_root, block.entries().size(),
              std::move(encoded), serialized);
}

uint64_t Journal::AppendEncoded(std::string encoded, uint64_t entries,
                                const Hash256& entries_root,
                                const Hash256& index_root,
                                uint64_t timestamp) {
  Block::SetChainFields(block_count(), entry_count_, tip_hash_, index_root,
                        &encoded);
  const Hash256 block_hash =
      Block::HeaderHash(block_count(), entry_count_, tip_hash_, entries_root,
                        index_root, timestamp);
  return Seal(block_hash, index_root, entries, std::move(encoded), nullptr);
}

uint64_t Journal::Seal(const Hash256& block_hash, const Hash256& index_root,
                       uint64_t entries, std::string encoded,
                       Slice* serialized) {
  const uint64_t height = block_count();
  if (log_ != nullptr) LogFrame(height, encoded);
  AddBlock(block_hash, index_root, entries, encoded.size());
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
  if (header_pending_) frame_ = HeaderFrame();
  AppendRecordFrame(serialized, &frame_);
  Status s = log_->Append(frame_);
  if (!s.ok()) {
    status_ = Status::IOError("journal append failed at block " +
                              std::to_string(height) + ": " + s.message());
  }
  header_pending_ = false;
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

Status Journal::ConsistencyProof(uint64_t old_block_count,
                                 MerkleConsistencyProof* proof) const {
  return block_tree_.ConsistencyProof(old_block_count, proof);
}

}  // namespace spitz
