#include "ledger/ledger.h"

#include <cassert>

#include "common/fork_join.h"

namespace spitz {

namespace {

// PrepareLoad's pieces of parallel work: full blocks per piece.
constexpr size_t kBlockGrain = 8;

}  // namespace

Ledger::Ledger(std::mutex* mu, MetricsRegistry* registry) : mu_(mu) {
  if (registry == nullptr) return;
  seal_ns_ = registry->histogram("core.db.seal_latency_ns");
  registry->RegisterCounter("core.db.journal.truncated_bytes",
                            &truncated_bytes_);
  registry->RegisterGaugeFn("core.db.journal.resident_bytes", [this] {
    std::lock_guard<std::mutex> lock(*mu_);
    return journal_.resident_bytes();
  });
  registry->RegisterGaugeFn("core.db.journal.file_bytes", [this] {
    std::lock_guard<std::mutex> lock(*mu_);
    return journal_.stored_bytes();
  });
  registry->RegisterGaugeFn("core.db.history.bytes", [this] {
    std::lock_guard<std::mutex> lock(*mu_);
    return history_.memory_bytes();
  });
  registry->RegisterGaugeFn("core.db.history.writes", [this] {
    std::lock_guard<std::mutex> lock(*mu_);
    return history_.write_count();
  });
}

Status Ledger::Open(Env* env, const std::string& path,
                    const Journal::AdoptFn& adopt) {
  uint64_t truncated = 0;
  Status s = journal_.Open(
      env, path,
      [&](const Block& block) {
        history_.AddBlock(block.entries());
        adopt(block);
      },
      &truncated);
  if (s.ok()) truncated_bytes_.Increment(truncated);
  return s;
}

void Ledger::AddLocked(const WriteBatch& batch, uint64_t commit_ts) {
  for (const WriteBatch::Op& op : batch.ops()) {
    LedgerEntry entry;
    entry.op = op.type == WriteBatch::OpType::kPut ? LedgerEntry::Op::kPut
                                                   : LedgerEntry::Op::kDelete;
    entry.key = op.key;
    entry.value_hash = Hash256::Of(op.value);
    entry.txn_id = commit_ts;
    entry.commit_ts = commit_ts;
    pending_.push_back(std::move(entry));
  }
}

void Ledger::SealLocked(const Hash256& index_root, uint64_t timestamp) {
  if (pending_.empty()) return;
  ScopedTimer timer(seal_ns_);
  // Index history from the entries in hand, before Append takes them:
  // decoding the sealed block back would hash it a second time.
  history_.AddBlock(pending_);
  // Each block stores the index root as of its last entry — "each block
  // in the ledger stores a historical index instance" (section 6.1).
  journal_.Append(std::move(pending_), index_root, timestamp);
  pending_.clear();
}

void Ledger::PrepareLoad(std::span<const PosEntry> records, uint64_t first_ts,
                         size_t block_size, uint64_t timestamp,
                         PreparedLoad* load) {
  const size_t blocks = records.size() / block_size;
  const size_t sealed = blocks * block_size;
  load->block_size = block_size;
  load->timestamp = timestamp;
  // Record i as the entry SealLocked would have sealed, but for its
  // value hash. A LedgerEntry owns its key, so the workers fill two
  // scratch entries of their own, in turn, which live no longer than
  // their piece.
  auto fill = [&](size_t i, LedgerEntry* entry) {
    entry->key.assign(records[i].key);
    entry->txn_id = first_ts + i;
    entry->commit_ts = first_ts + i;
  };
  const LedgerEntry none;  // what a block's first entry is encoded against
  // Each block's exact size first, so that this thread allocates the
  // bytes the workers then encode into.
  std::vector<size_t> sizes(blocks);
  load->fingerprints.resize(sealed);
  ParallelFor(blocks, kBlockGrain, [&](size_t begin, size_t end) {
    LedgerEntry scratch[2];
    for (size_t b = begin; b < end; b++) {
      size_t size =
          Block::HeaderSize(b, b * block_size, timestamp, block_size);
      const LedgerEntry* prev = &none;
      for (size_t i = b * block_size; i < (b + 1) * block_size; i++) {
        LedgerEntry* entry = &scratch[i & 1];
        fill(i, entry);
        size += entry->EncodedSize(*prev);
        load->fingerprints[i] = KeyHistoryIndex::Fingerprint(entry->key);
        prev = entry;
      }
      sizes[b] = size;
    }
  });
  load->blocks.resize(blocks);
  for (size_t b = 0; b < blocks; b++) load->blocks[b].reserve(sizes[b]);
  load->entries_roots.resize(blocks);
  // The SHA-256 work: every value hash, leaf hash and entries root.
  ParallelFor(blocks, kBlockGrain, [&](size_t begin, size_t end) {
    LedgerEntry scratch[2];
    for (size_t b = begin; b < end; b++) {
      std::string* out = &load->blocks[b];
      Block::EncodeHeader(b, b * block_size, Hash256(), Hash256(), timestamp,
                          block_size, out);
      MerkleFrontier tree;
      const LedgerEntry* prev = &none;
      for (size_t i = b * block_size; i < (b + 1) * block_size; i++) {
        LedgerEntry* entry = &scratch[i & 1];
        fill(i, entry);
        entry->value_hash = Hash256::Of(records[i].value);
        tree.AppendLeafHash(entry->LeafHash());
        entry->EncodeTo(*prev, out);
        prev = entry;
      }
      assert(out->size() == sizes[b]);
      load->entries_roots[b] = tree.Root();
    }
  });
  load->tail.resize(records.size() - sealed);
  for (size_t i = sealed; i < records.size(); i++) {
    LedgerEntry* entry = &load->tail[i - sealed];
    fill(i, entry);
    entry->value_hash = Hash256::Of(records[i].value);
  }
  load->history.Reserve(sealed, blocks);
}

void Ledger::PreparedLoad::IndexHistory() {
  for (size_t first = 0; first < fingerprints.size(); first += block_size) {
    history.AddBlockFingerprints(
        std::span<const uint32_t>(fingerprints).subspan(first, block_size));
  }
}

void Ledger::LoadLocked(PreparedLoad load, const Hash256& index_root) {
  assert(journal_.block_count() == 0 && pending_.empty() &&
         history_.write_count() == 0);
  assert(load.history.write_count() == load.fingerprints.size());
  for (size_t b = 0; b < load.blocks.size(); b++) {
    journal_.AppendEncoded(std::move(load.blocks[b]), load.block_size,
                           load.entries_roots[b], index_root, load.timestamp);
  }
  history_ = std::move(load.history);
  pending_ = std::move(load.tail);
}

Status Ledger::RestoreLocked(const Block& block, const Slice& serialized) {
  // Restore checks that the block links from our current tip, and
  // records it only once its frame is in the journal's log.
  Status s = journal_.Restore(block, serialized);
  if (s.ok()) history_.AddBlock(block.entries());
  return s;
}

Status Ledger::ProveConsistency(const JournalDigest& old_digest,
                                MerkleConsistencyProof* proof) const {
  std::lock_guard<std::mutex> lock(*mu_);
  return journal_.ConsistencyProof(old_digest.block_count, proof);
}

Status Ledger::ProveHistoricalEntry(uint64_t height, uint64_t entry_index,
                                    JournalEntryProof* proof,
                                    LedgerEntry* entry,
                                    JournalDigest* digest) const {
  // The block's location and path are taken under the lock; the block
  // is read and decoded after it is released, so no journal read runs
  // inside the writer lock (also in KeyHistory).
  Journal::BlockRef ref;
  MerkleInclusionProof path;
  {
    std::lock_guard<std::mutex> lock(*mu_);
    Status s = journal_.Locate(height, &ref, &path);
    if (!s.ok()) return s;
    if (digest != nullptr) *digest = journal_.Digest();
  }
  return Journal::ProveEntryIn(ref, path, entry_index, proof, entry);
}

Status Ledger::KeyHistory(const Slice& key,
                          std::vector<HistoricalWrite>* history) const {
  history->clear();
  std::vector<KeyHistoryIndex::Position> candidates;
  // refs[i] and paths[i] locate candidates[i]'s block.
  std::vector<Journal::BlockRef> refs;
  std::vector<MerkleInclusionProof> paths;
  {
    std::lock_guard<std::mutex> lock(*mu_);
    history_.Lookup(key, &candidates);
    for (const KeyHistoryIndex::Position& at : candidates) {
      Status s = journal_.Locate(at.height, &refs.emplace_back(),
                                 &paths.emplace_back());
      if (!s.ok()) return s;
    }
  }
  for (size_t i = 0; i < candidates.size(); i++) {
    HistoricalWrite write;
    write.block_height = candidates[i].height;
    Status s = Journal::ProveEntryIn(refs[i], paths[i], candidates[i].index,
                                     &write.proof, &write.entry);
    if (!s.ok()) {
      // A block that cannot be read or fails its checks yields no
      // history at all, not the part before it.
      history->clear();
      return s;
    }
    // A candidate may be another key with the same fingerprint.
    if (write.entry.key != key) continue;
    history->push_back(std::move(write));
  }
  if (history->empty()) return Status::NotFound("no sealed history for key");
  return Status::OK();
}

Status Ledger::IndexRootAt(uint64_t block_height, Hash256* root) const {
  std::lock_guard<std::mutex> lock(*mu_);
  if (block_height >= journal_.block_count()) {
    return Status::NotFound("block height beyond journal");
  }
  *root = journal_.IndexRoot(block_height);
  return Status::OK();
}

Status Ledger::SealedBlock(uint64_t height, std::string* serialized,
                           Block* block) const {
  Journal::BlockRef ref;
  {
    std::lock_guard<std::mutex> lock(*mu_);
    Status s = journal_.Locate(height, &ref);
    if (!s.ok()) return s;
  }
  return Journal::Load(ref, serialized, block);
}

uint64_t Ledger::entry_count() const {
  std::lock_guard<std::mutex> lock(*mu_);
  return journal_.entry_count() + pending_.size();
}

}  // namespace spitz
