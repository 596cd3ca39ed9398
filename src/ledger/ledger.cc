#include "ledger/ledger.h"

#include "common/clock.h"
#include "common/fork_join.h"

namespace spitz {

namespace {

// LoadLocked's pieces of parallel work: full blocks whose entries root
// is computed, per piece.
constexpr size_t kBlockRootGrain = 8;

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

void Ledger::SealLocked(const Hash256& index_root,
                        const Hash256* entries_root) {
  if (pending_.empty()) return;
  ScopedTimer timer(seal_ns_);
  // Index history from the entries in hand, before Append takes them:
  // decoding the sealed block back would hash it a second time.
  history_.AddBlock(pending_);
  // Each block stores the index root as of its last entry — "each block
  // in the ledger stores a historical index instance" (section 6.1).
  const Hash256 merkle_root = entries_root != nullptr
                                  ? *entries_root
                                  : Block::ComputeEntriesRoot(pending_);
  journal_.Append(std::move(pending_), merkle_root, index_root, NowMicros());
  pending_.clear();
}

void Ledger::LoadLocked(std::vector<LedgerEntry> all, size_t block_size,
                        const Hash256& index_root) {
  // Every full block's entries root is hashed first, on every core;
  // sealing, chaining and the key history then go in order on this
  // thread.
  std::vector<Hash256> entries_roots(all.size() / block_size);
  ParallelFor(entries_roots.size(), kBlockRootGrain,
              [&](size_t begin, size_t end) {
                for (size_t b = begin; b < end; b++) {
                  entries_roots[b] = Block::ComputeEntriesRoot(
                      std::span<const LedgerEntry>(all).subspan(
                          b * block_size, block_size));
                }
              });
  for (size_t b = 0; b < entries_roots.size(); b++) {
    const auto first = all.begin() + b * block_size;
    pending_.assign(std::make_move_iterator(first),
                    std::make_move_iterator(first + block_size));
    SealLocked(index_root, &entries_roots[b]);
  }
  pending_.assign(
      std::make_move_iterator(all.begin() + entries_roots.size() * block_size),
      std::make_move_iterator(all.end()));
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
