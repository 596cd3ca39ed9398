#include "baseline/baseline_db.h"

#include "common/clock.h"
#include "common/codec.h"

namespace spitz {

Status BaselineDb::Open(Options options, std::unique_ptr<BaselineDb>* db) {
  Status s = options.Validate();
  if (!s.ok()) return s;
  *db = std::make_unique<BaselineDb>(options);
  return Status::OK();
}

BaselineDb::BaselineDb(Options options)
    : options_(options),
      init_status_(options.Validate()),
      views_(&chunks_, options.view_options) {
  // Clamp a rejected block size so sealing cannot spin even if the
  // caller ignores init_status_.
  if (options_.block_size == 0) options_.block_size = 128;
  write_ns_ = registry_.histogram("baseline.db.write_latency_ns");
  read_ns_ = registry_.histogram("baseline.db.read_latency_ns");
  verified_read_ns_ =
      registry_.histogram("baseline.db.verified_read_latency_ns");
  scan_ns_ = registry_.histogram("baseline.db.scan_latency_ns");
  chunks_.ExportMetrics(&registry_);
}

std::string BaselineDb::EncodeLocation(uint64_t height, uint64_t index) {
  std::string out;
  PutVarint64(&out, height);
  PutVarint64(&out, index);
  return out;
}

Status BaselineDb::DecodeLocation(const Slice& in, uint64_t* height,
                                  uint64_t* index) {
  Slice input = in;
  Status s = GetVarint64(&input, height);
  if (!s.ok()) return s;
  return GetVarint64(&input, index);
}

namespace {
// History-view key: length-prefixed user key, then big-endian sequence
// so versions of one key are contiguous and time-ordered.
std::string HistoryKey(const Slice& key, uint64_t seq) {
  std::string out;
  PutLengthPrefixedSlice(&out, key);
  PutFixed64(&out, __builtin_bswap64(seq));
  return out;
}
}  // namespace

Status BaselineDb::Put(const Slice& key, const Slice& value) {
  if (!init_status_.ok()) return init_status_;
  ScopedTimer timer(write_ns_);
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t ts = clock_.Allocate();
  // Materialized value view: immediately queryable.
  Status s = views_.Put(value_view_, key, value, &value_view_);
  if (!s.ok()) return s;
  // Ledger entry: buffered until the block seals.
  LedgerEntry entry;
  entry.op = LedgerEntry::Op::kPut;
  entry.key = key.ToString();
  entry.value_hash = Hash256::Of(value);
  entry.txn_id = ts;
  entry.commit_ts = ts;
  pending_.push_back(std::move(entry));
  pending_keys_.push_back(key.ToString());
  if (pending_.size() >= options_.block_size) SealBlockLocked();
  return Status::OK();
}

Status BaselineDb::Delete(const Slice& key) {
  if (!init_status_.ok()) return init_status_;
  ScopedTimer timer(write_ns_);
  std::lock_guard<std::mutex> lock(mu_);
  Status s = views_.Delete(value_view_, key, &value_view_);
  if (!s.ok()) return s;
  uint64_t ts = clock_.Allocate();
  LedgerEntry entry;
  entry.op = LedgerEntry::Op::kDelete;
  entry.key = key.ToString();
  entry.value_hash = Hash256();
  entry.txn_id = ts;
  entry.commit_ts = ts;
  pending_.push_back(std::move(entry));
  pending_keys_.push_back(key.ToString());
  if (pending_.size() >= options_.block_size) SealBlockLocked();
  return Status::OK();
}

Status BaselineDb::BulkLoad(std::vector<PosEntry> entries) {
  if (!init_status_.ok()) return init_status_;
  std::lock_guard<std::mutex> lock(mu_);
  if (!value_view_.IsZero() || ledger_.block_count() != 0 ||
      !pending_.empty()) {
    return Status::InvalidArgument("bulk load requires an empty database");
  }
  uint64_t ts = clock_.AllocateBatch(entries.size());
  // Journal blocks.
  std::vector<PosEntry> meta_entries;
  std::vector<PosEntry> history_entries;
  meta_entries.reserve(entries.size());
  history_entries.reserve(entries.size());
  std::vector<LedgerEntry> block;
  uint64_t seq = 0;
  for (size_t i = 0; i < entries.size(); i++) {
    LedgerEntry entry;
    entry.op = LedgerEntry::Op::kPut;
    entry.key = entries[i].key;
    entry.value_hash = Hash256::Of(entries[i].value);
    entry.txn_id = ts + i;
    entry.commit_ts = ts + i;
    block.push_back(std::move(entry));
    if (block.size() == options_.block_size) {
      uint64_t height = ledger_.Append(std::move(block), Hash256(),
                                       NowMicros());
      block.clear();
      for (size_t j = 0; j < options_.block_size; j++) {
        size_t idx = i + 1 - options_.block_size + j;
        std::string loc = EncodeLocation(height, j);
        meta_entries.push_back(PosEntry{entries[idx].key, loc});
        std::string hkey;
        PutLengthPrefixedSlice(&hkey, entries[idx].key);
        PutFixed64(&hkey, __builtin_bswap64(seq + j));
        history_entries.push_back(PosEntry{std::move(hkey), loc});
      }
      seq += options_.block_size;
    }
  }
  // Tail entries stay pending (unsealed), as with incremental writes.
  for (size_t i = entries.size() - block.size(); i < entries.size(); i++) {
    pending_keys_.push_back(entries[i].key);
  }
  pending_ = std::move(block);

  Status s = views_.Build(std::move(meta_entries), &meta_view_);
  if (!s.ok()) return s;
  s = views_.Build(std::move(history_entries), &history_view_);
  if (!s.ok()) return s;
  return views_.Build(std::move(entries), &value_view_);
}

void BaselineDb::SealBlockLocked() {
  if (pending_.empty()) return;
  size_t count = pending_.size();
  uint64_t first_seq = ledger_.entry_count();
  uint64_t height =
      ledger_.Append(std::move(pending_), Hash256(), NowMicros());
  pending_.clear();
  // Materialize the meta and history views for the sealed entries.
  for (size_t i = 0; i < count; i++) {
    const std::string& key = pending_keys_[i];
    std::string loc = EncodeLocation(height, i);
    views_.Put(meta_view_, key, loc, &meta_view_);
    views_.Put(history_view_, HistoryKey(key, first_seq + i), loc,
               &history_view_);
  }
  pending_keys_.clear();
}

void BaselineDb::FlushBlock() {
  std::lock_guard<std::mutex> lock(mu_);
  SealBlockLocked();
}

Status BaselineDb::Get(const Slice& key, std::string* value) const {
  ScopedTimer timer(read_ns_);
  Hash256 view;
  {
    std::lock_guard<std::mutex> lock(mu_);
    view = value_view_;
  }
  return views_.Get(view, key, value, nullptr);
}

Status BaselineDb::GetVerified(const Slice& key, VerifiedValue* out) const {
  ScopedTimer timer(verified_read_ns_);
  Hash256 value_view, meta_view;
  {
    std::lock_guard<std::mutex> lock(mu_);
    value_view = value_view_;
    meta_view = meta_view_;
  }
  Status s = views_.Get(value_view, key, &out->value, nullptr);
  if (!s.ok()) return s;
  // Locate the latest journal entry for this key, then rebuild the
  // within-block proof — the separate, per-record ledger search that
  // the unified Spitz index avoids.
  std::string loc;
  s = views_.Get(meta_view, key, &loc, nullptr);
  if (!s.ok()) {
    return Status::Busy("record not yet sealed into the ledger");
  }
  uint64_t height = 0, index = 0;
  s = DecodeLocation(loc, &height, &index);
  if (!s.ok()) return s;
  std::lock_guard<std::mutex> lock(mu_);
  return ledger_.ProveEntry(height, index, &out->proof, &out->entry);
}

Status BaselineDb::Scan(const Slice& start, const Slice& end, size_t limit,
                        std::vector<PosEntry>* out) const {
  ScopedTimer timer(scan_ns_);
  Hash256 view;
  {
    std::lock_guard<std::mutex> lock(mu_);
    view = value_view_;
  }
  return views_.Scan(view, start, end, limit, out, nullptr);
}

Status BaselineDb::ScanVerified(const Slice& start, const Slice& end,
                                size_t limit,
                                std::vector<VerifiedValue>* out) const {
  ScopedTimer timer(verified_read_ns_);
  Hash256 value_view, meta_view;
  {
    std::lock_guard<std::mutex> lock(mu_);
    value_view = value_view_;
    meta_view = meta_view_;
  }
  std::vector<PosEntry> rows;
  Status s = views_.Scan(value_view, start, end, limit, &rows, nullptr);
  if (!s.ok()) return s;
  out->clear();
  out->reserve(rows.size());
  for (auto& row : rows) {
    VerifiedValue vv;
    vv.value = std::move(row.value);
    std::string loc;
    s = views_.Get(meta_view, row.key, &loc, nullptr);
    if (!s.ok()) {
      return Status::Busy("record not yet sealed into the ledger");
    }
    uint64_t height = 0, index = 0;
    s = DecodeLocation(loc, &height, &index);
    if (!s.ok()) return s;
    // One ledger search per resultant record (section 6.2.2: proofs
    // "must be processed by searching the digest in the ledger
    // individually").
    {
      std::lock_guard<std::mutex> lock(mu_);
      s = ledger_.ProveEntry(height, index, &vv.proof, &vv.entry);
    }
    if (!s.ok()) return s;
    out->push_back(std::move(vv));
  }
  return Status::OK();
}

JournalDigest BaselineDb::Digest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ledger_.Digest();
}

Status BaselineDb::VerifyValue(const JournalDigest& digest, const Slice& key,
                               const VerifiedValue& vv) {
  if (Slice(vv.entry.key) != key) {
    return Status::VerificationFailed("proof is for a different key");
  }
  if (Hash256::Of(vv.value) != vv.entry.value_hash) {
    return Status::VerificationFailed("value does not match ledger entry");
  }
  return Journal::VerifyEntry(vv.entry, vv.proof, digest);
}

Status BaselineDb::ProveConsistency(uint64_t old_block_count,
                                    MerkleConsistencyProof* proof) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ledger_.ConsistencyProof(old_block_count, proof);
}

Status BaselineDb::History(
    const Slice& key,
    std::vector<std::pair<uint64_t, uint64_t>>* positions) const {
  Hash256 history_view;
  {
    std::lock_guard<std::mutex> lock(mu_);
    history_view = history_view_;
  }
  positions->clear();
  std::string lo = HistoryKey(key, 0);
  std::string hi = HistoryKey(key, UINT64_MAX);
  std::vector<PosEntry> rows;
  Status s = views_.Scan(history_view, lo, hi, 0, &rows, nullptr);
  if (!s.ok()) return s;
  for (const PosEntry& row : rows) {
    uint64_t height = 0, index = 0;
    s = DecodeLocation(row.value, &height, &index);
    if (!s.ok()) return s;
    positions->emplace_back(height, index);
  }
  if (positions->empty()) return Status::NotFound("no history for key");
  return Status::OK();
}

uint64_t BaselineDb::entry_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ledger_.entry_count() + pending_.size();
}

}  // namespace spitz
