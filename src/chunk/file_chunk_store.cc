#include "chunk/file_chunk_store.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <set>
#include <vector>

#include "chunk/segment_gc.h"
#include "common/codec.h"
#include "common/crc32c.h"
#include "common/fork_join.h"

namespace spitz {

namespace {

// Segment replay: records whose chunk id is hashed per piece.
constexpr size_t kReplayHashGrain = 256;

// A delta chain longer than this can only be a loop of forged records;
// chains the store writes stop at kMaxChainDepth.
constexpr size_t kChainReadLimit = 64;

// Depth of a replayed delta until ResolveChains sets it.
constexpr uint8_t kUnresolvedDepth = UINT8_MAX;

// The GC manifest: [varint count][4B segment id]...[4B masked CRC32C].
constexpr char kGcManifest[] = "gc-victims";

// chunk-NNNNNN.seg → segment id; false for anything else in the dir.
bool ParseSegmentFileName(const std::string& name, uint32_t* id) {
  static const char kPrefix[] = "chunk-";
  static const char kSuffix[] = ".seg";
  const size_t prefix_len = sizeof(kPrefix) - 1;
  const size_t suffix_len = sizeof(kSuffix) - 1;
  if (name.size() <= prefix_len + suffix_len) return false;
  if (name.compare(0, prefix_len, kPrefix) != 0) return false;
  if (name.compare(name.size() - suffix_len, suffix_len, kSuffix) != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = prefix_len; i < name.size() - suffix_len; i++) {
    if (name[i] < '0' || name[i] > '9') return false;
    value = value * 10 + static_cast<uint64_t>(name[i] - '0');
    if (value > UINT32_MAX) return false;
  }
  *id = static_cast<uint32_t>(value);
  return true;
}

// The chunk of a full record read into *buf: the buffer becomes the
// payload, its framing dropped in place rather than the payload copied.
Chunk TakePayload(const ChunkRecord& record, std::string* buf) {
  const size_t payload_size = record.body.size();
  buf->erase(0, static_cast<size_t>(record.body.data() - buf->data()));
  buf->resize(payload_size);
  return Chunk(record.type, std::move(*buf));
}

}  // namespace

std::string FileChunkStore::SegmentFileName(uint32_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "chunk-%06u.seg", id);
  return buf;
}

Status FileChunkStore::Open(Env* env, const std::string& dir,
                            const Options& options,
                            std::unique_ptr<FileChunkStore>* store) {
  if (options.segment_bytes == 0 ||
      options.segment_bytes > kMaxSegmentBytes) {
    return Status::InvalidArgument(
        "segment_bytes must be between 1 and " +
        std::to_string(kMaxSegmentBytes) + " (got " +
        std::to_string(options.segment_bytes) + ")");
  }
  auto s = std::unique_ptr<FileChunkStore>(new FileChunkStore());
  s->env_ = env;
  s->dir_ = dir;
  s->segment_bytes_ = options.segment_bytes;
  if (options.cache != nullptr) {
    s->cache_ = options.cache;
  } else {
    s->owned_cache_ =
        std::make_unique<BufferCache>(BufferCache::kDefaultCapacityBytes);
    s->cache_ = s->owned_cache_.get();
  }

  uint64_t tail_valid = 0;
  Status st = env->CreateDir(dir);
  if (st.ok()) st = s->FinishInterruptedGc();
  if (st.ok()) st = s->Replay(&tail_valid);
  if (!st.ok()) return st;

  bool fresh = s->segments_.empty();
  if (fresh) {
    auto seg = std::make_shared<Segment>();
    seg->id = 1;
    seg->path = dir + "/" + SegmentFileName(1);
    s->segments_.emplace(1, seg);
    s->active_segment_ = 1;
  } else {
    Segment* last = s->segments_.rbegin()->second.get();
    // Cut any torn tail back to the last intact record *before*
    // reopening for append: a record appended after crash garbage
    // would be unreachable by every future replay.
    uint64_t size = 0;
    Status size_status = env->FileSize(last->path, &size);
    if (size_status.ok() && size > tail_valid) {
      Status t = env->Truncate(last->path, tail_valid);
      if (!t.ok()) return t;
      s->truncated_bytes_.Increment(size - tail_valid);
    }
    last->size = tail_valid;
    s->active_segment_ = last->id;
    s->active_offset_.store(tail_valid, std::memory_order_relaxed);
  }
  s->flushed_.store(uint64_t{s->active_segment_} << 32 |
                        s->active_offset_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);

  Segment* active = s->segments_[s->active_segment_].get();
  Status open_status = env->NewWritableLog(active->path, &s->log_);
  if (!open_status.ok()) {
    return Status::IOError("cannot open chunk segment: " + active->path +
                           ": " + open_status.message());
  }
  if (fresh) {
    Status ds = env->SyncDir(dir);
    if (!ds.ok()) return ds;
  }
  s->ReadHandle(s->segments_[s->active_segment_]);
  *store = std::move(s);
  return Status::OK();
}

Status FileChunkStore::Open(Env* env, const std::string& dir,
                            std::unique_ptr<FileChunkStore>* store) {
  return Open(env, dir, Options(), store);
}

Status FileChunkStore::Open(const std::string& dir,
                            std::unique_ptr<FileChunkStore>* store) {
  return Open(Env::Default(), dir, Options(), store);
}

FileChunkStore::~FileChunkStore() {
  if (log_ != nullptr) log_->Close();
}

Status FileChunkStore::FinishInterruptedGc() {
  const std::string path = dir_ + "/" + kGcManifest;
  if (!env_->FileExists(path)) return Status::OK();
  std::string contents;
  Status s = env_->ReadFileToString(path, &contents);
  if (!s.ok()) return s;
  // A manifest that does not check out was never synced, and no pass
  // unlinks a victim before its manifest is synced: nothing to finish.
  bool intact = false;
  uint64_t count = 0;
  Slice input;
  if (contents.size() >= sizeof(uint32_t)) {
    const size_t body = contents.size() - sizeof(uint32_t);
    input = Slice(contents.data(), body);
    intact = crc32c::Unmask(DecodeFixed32(contents.data() + body)) ==
                 crc32c::Value(contents.data(), body) &&
             GetCount(&input, sizeof(uint32_t), &count).ok() &&
             input.size() == count * sizeof(uint32_t);
  }
  if (intact) {
    for (uint64_t i = 0; i < count; i++) {
      const uint32_t id = DecodeFixed32(input.data() + i * sizeof(uint32_t));
      Status d = env_->DeleteFile(dir_ + "/" + SegmentFileName(id));
      if (!d.ok() && !d.IsNotFound()) return d;
    }
    s = env_->SyncDir(dir_);
    if (!s.ok()) return s;
  }
  s = env_->DeleteFile(path);
  if (!s.ok() && !s.IsNotFound()) return s;
  return env_->SyncDir(dir_);
}

Status FileChunkStore::WriteGcManifest(const std::set<uint32_t>& victims) {
  const std::string path = dir_ + "/" + kGcManifest;
  Status s = env_->DeleteFile(path);  // the log appends
  if (!s.ok() && !s.IsNotFound()) return s;
  std::string contents;
  PutVarint64(&contents, victims.size());
  for (uint32_t id : victims) PutFixed32(&contents, id);
  PutFixed32(&contents,
             crc32c::Mask(crc32c::Value(contents.data(), contents.size())));
  std::unique_ptr<WritableLog> log;
  s = env_->NewWritableLog(path, &log);
  if (s.ok()) s = log->Append(contents);
  if (s.ok()) s = log->Sync();
  if (log != nullptr) log->Close();
  if (s.ok()) s = env_->SyncDir(dir_);
  return s;
}

Status FileChunkStore::Replay(uint64_t* tail_valid) {
  *tail_valid = 0;
  std::vector<std::string> names;
  Status ls = env_->ListDir(dir_, &names);
  if (ls.IsNotFound()) return Status::OK();
  if (!ls.ok()) return ls;

  std::vector<uint32_t> ids;
  for (const std::string& name : names) {
    uint32_t id = 0;
    if (ParseSegmentFileName(name, &id)) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());

  std::vector<Hash256> bases;
  for (size_t i = 0; i < ids.size(); i++) {
    const bool is_last = (i + 1 == ids.size());
    const std::string path = dir_ + "/" + SegmentFileName(ids[i]);
    uint64_t valid = 0;
    Status s = ReplaySegment(ids[i], path, is_last, &bases, &valid);
    if (!s.ok()) return s;
    if (is_last) *tail_valid = valid;
  }
  return ResolveChains(bases);
}

Status FileChunkStore::ReplaySegment(uint32_t segment_id,
                                     const std::string& path, bool is_last,
                                     std::vector<Hash256>* bases,
                                     uint64_t* valid_offset) {
  *valid_offset = 0;
  std::string contents;
  Status read_status = env_->ReadFileToString(path, &contents);
  if (!read_status.ok() && !read_status.IsNotFound()) return read_status;

  auto seg = std::make_shared<Segment>();
  seg->id = segment_id;
  seg->path = path;
  segments_.emplace(segment_id, seg);

  // Three passes. Parsing and CRC checks go in file order: they fix the
  // record boundaries and meet a torn tail or a corrupt record where a
  // one-pass replay would. The ids of full records are then hashed on
  // every core, straight from the segment bytes; a delta carries its
  // id. Last, the entries are published in file order.
  struct Record {
    ChunkRecord record;  // views into `contents`
    uint64_t offset;
    uint32_t length;
  };
  std::vector<Record> records;
  Slice input(contents);
  uint64_t consumed = 0;
  while (!input.empty()) {
    ChunkRecord record;
    bool torn = false;
    const size_t before = input.size();
    Status ps = ParseChunkRecord(&input, &record, &torn);
    if (!ps.ok()) {
      return Status::Corruption(ps.message() + " at offset " +
                                std::to_string(consumed) + " in " + path);
    }
    if (torn) {
      if (!is_last) {
        // Sealed segments are fsynced before the store rolls past
        // them, so a torn record here cannot be crash debris.
        return Status::Corruption("torn record in sealed segment " + path +
                                  " at offset " + std::to_string(consumed));
      }
      break;
    }
    const uint64_t record_len = before - input.size();
    if (consumed > UINT32_MAX) {
      // A store never appends there (kMaxSegmentBytes); the index could
      // not address the record.
      return Status::Corruption("chunk segment " + path +
                                " holds a record past offset 2^32");
    }
    records.push_back(
        Record{record, consumed, static_cast<uint32_t>(record_len)});
    consumed += record_len;
  }

  std::vector<Hash256> ids(records.size());
  ParallelFor(records.size(), kReplayHashGrain, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; i++) {
      const ChunkRecord& r = records[i].record;
      ids[i] = r.delta ? r.id : Chunk::IdOf(r.type, r.body);
    }
  });

  for (size_t i = 0; i < records.size(); i++) {
    const Record& record = records[i];
    Entry entry;
    entry.id = ids[i];
    entry.segment = segment_id;
    entry.offset = static_cast<uint32_t>(record.offset);
    entry.length = record.length;
    if (record.record.delta) {
      entry.depth = kUnresolvedDepth;
      entry.base = static_cast<uint32_t>(bases->size());
      bases->push_back(record.record.base);
    }
    puts_.Increment();
    logical_bytes_.Increment(StoredBytes(entry));
    ReplayPublish(entry);
    replayed_bytes_.Increment(record.length);
  }

  seg->size = consumed;
  ReadHandle(seg);
  *valid_offset = consumed;
  return Status::OK();
}

void FileChunkStore::ReplayPublish(Entry entry) {
  // Open is single-threaded: nothing publishes between the two locks.
  if (!Contains(entry.id)) {
    PublishEntry(entry);
    recovered_.Increment();
    return;
  }
  // A second copy: a GC pass crashed after rewriting this chunk but
  // before unlinking its old home, flattened a delta whose old copy
  // outlives the pass, or the chunk was Put again after a pass
  // unpublished its dead copy. The later copy is the one the store
  // pointed at; only its base is sure to be on disk.
  dedup_hits_.Increment();
  MapShard& shard = map_shards_[MapShardOf(entry.id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  CondemnSegment(Supersede(&shard.index.at(shard.index.Find(entry.id)), entry));
}

uint32_t FileChunkStore::Supersede(Entry* published, Entry entry) {
  const uint32_t superseded =
      published->depth != 0 ? published->segment : kResidentOnly;
  physical_bytes_.Sub(StoredBytes(*published));
  physical_bytes_.Add(StoredBytes(entry));
  entry.seq = published->seq;
  *published = entry;
  return superseded;
}

Status FileChunkStore::ResolveChains(const std::vector<Hash256>& bases) {
  // Open is single-threaded, so the walk takes no shard lock.
  auto at = [this](uint32_t ref) -> Entry& {
    return ShardOfRef(ref).index.at(SlotOfRef(ref));
  };
  std::vector<uint32_t> deltas;
  for (size_t i = 0; i < kMapShards; i++) {
    map_shards_[i].index.ForEach([&](uint32_t slot, const Entry& entry) {
      if (entry.depth == kUnresolvedDepth) deltas.push_back(RefOf(i, slot));
    });
  }
  // Each delta names its base's slot in place of the base id it was
  // replayed with: a later copy of the base replaced the record in the
  // same slot, so this is the copy the store points at.
  for (const uint32_t ref : deltas) {
    const Hash256& base = bases[at(ref).base];
    const size_t base_shard = MapShardOf(base);
    const uint32_t slot = map_shards_[base_shard].index.Find(base);
    if (slot == ChunkIndex::kNone) {
      return Status::Corruption("delta base " + base.ToHex() +
                                " absent from the chunk segments");
    }
    at(ref).base = RefOf(base_shard, slot);
  }
  std::vector<uint32_t> chain;
  for (const uint32_t ref : deltas) {
    chain.clear();
    uint32_t link = ref;
    while (at(link).depth == kUnresolvedDepth) {
      chain.push_back(link);
      if (chain.size() > kChainReadLimit) {
        return Status::Corruption("delta chain of chunk " +
                                  at(ref).id.ToHex() + " loops");
      }
      link = at(link).base;
    }
    uint8_t depth = at(link).depth;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      // A chain the store wrote is at most kMaxChainDepth long; a longer
      // one still reads, and Put never extends it.
      depth = static_cast<uint8_t>(
          std::min<size_t>(depth + 1, kUnresolvedDepth - 1));
      at(*it).depth = depth;
    }
  }
  return Status::OK();
}

void FileChunkStore::CondemnSegment(uint32_t id) {
  std::lock_guard<std::mutex> lock(seg_mu_);
  auto it = segments_.find(id);
  if (it != segments_.end()) it->second->condemned = true;
}

uint32_t FileChunkStore::StoredBytes(const Entry& entry) {
  if (entry.depth != 0) return entry.length;
  // A full record's payload and type byte.
  return static_cast<uint32_t>(FullRecordBody(entry.length)) + 1;
}

void FileChunkStore::PublishEntry(Entry entry) {
  MapShard& shard = map_shards_[MapShardOf(entry.id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  entry.seq = NextInsertSeq();
  shard.index.Insert(entry);
  chunk_count_.Add(1);
  physical_bytes_.Add(StoredBytes(entry));
}

bool FileChunkStore::OnDisk(const Hash256& id, Entry* entry) const {
  const MapShard& shard = map_shards_[MapShardOf(id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const uint32_t slot = shard.index.Find(id);
  if (slot == ChunkIndex::kNone) return false;
  *entry = shard.index.at(slot);
  return entry->segment != kResidentOnly;
}

FileChunkStore::Entry FileChunkStore::At(uint32_t ref) const {
  const MapShard& shard = ShardOfRef(ref);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.index.at(SlotOfRef(ref));
}

std::shared_ptr<const Chunk> FileChunkStore::ChainStart(
    const Hash256& id) const {
  Entry entry;
  if (!OnDisk(id, &entry)) return nullptr;
  for (size_t hops = 0; entry.depth != 0; hops++) {
    // A link a GC pass collected, or a looping chain: no start to use.
    if (hops >= kChainReadLimit) return nullptr;
    entry = At(entry.base);
    if (entry.length == 0 || entry.segment == kResidentOnly) return nullptr;
  }
  const Hash256 at = entry.id;
  if (auto cached = cache_->Lookup(BufferCache::kRawChunk, at)) {
    return std::static_pointer_cast<const Chunk>(cached);
  }
  std::shared_ptr<const Chunk> hit;
  if (!Locate(at, &entry, &hit).ok()) return nullptr;
  if (hit != nullptr) return hit;
  rebase_reads_.Increment();
  std::string buf;
  ChunkRecord record;
  if (!ReadRecord(entry, &buf, &record).ok() || record.delta) return nullptr;
  auto full = std::make_shared<const Chunk>(TakePayload(record, &buf));
  return full->id() == at ? full : nullptr;
}

bool FileChunkStore::EncodeDelta(const Chunk& chunk, const Chunk& base,
                                 std::string* record, Entry* entry) {
  Entry base_entry;
  if (!OnDisk(base.id(), &base_entry)) return false;
  // At the cap, rebase onto the full record the chain starts from: the
  // delta then carries every change since that record, and the next
  // full record is written once those changes are as large as the node.
  std::shared_ptr<const Chunk> start;
  if (base_entry.depth >= kMaxChainDepth) {
    start = ChainStart(base.id());
    if (start == nullptr) return false;
  }
  const Chunk& on = start != nullptr ? *start : base;
  std::string delta;
  if (!EncodeDeltaRecord(chunk, on, &delta)) return false;
  {
    // A GC pass may have unpublished the base meanwhile.
    const size_t shard_index = MapShardOf(on.id());
    MapShard& shard = map_shards_[shard_index];
    std::lock_guard<std::mutex> lock(shard.mu);
    const uint32_t slot = shard.index.Find(on.id());
    if (slot == ChunkIndex::kNone) return false;
    Entry& named = shard.index.at(slot);
    if (named.segment == kResidentOnly || named.depth >= kMaxChainDepth) {
      return false;
    }
    // Naming a base re-references it, as a dedup hit does: a GC pass
    // marking now keeps it.
    named.seq = NextInsertSeq();
    base_entry = named;
    entry->base = RefOf(shard_index, slot);
  }
  entry->depth = base_entry.depth + 1;
  *record = std::move(delta);
  return start != nullptr;
}

bool FileChunkStore::Dedup(const Hash256& id) {
  MapShard& shard = map_shards_[MapShardOf(id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const uint32_t slot = shard.index.Find(id);
  if (slot == ChunkIndex::kNone) return false;
  dedup_hits_.Increment();
  shard.index.at(slot).seq = NextInsertSeq();
  return true;
}

Hash256 FileChunkStore::Put(Chunk chunk, const Chunk* base) {
  const Hash256 id = chunk.id();
  const size_t stored = chunk.stored_size();
  puts_.Increment();
  logical_bytes_.Increment(stored);
  if (Dedup(id)) return id;

  Entry entry;
  entry.id = id;
  std::string record;
  bool rebased = false;
  if (base != nullptr && !(base->id() == id)) {
    rebased = EncodeDelta(chunk, *base, &record, &entry);
  }
  if (record.empty()) EncodeChunkRecord(chunk, &record);
  auto sp = std::make_shared<const Chunk>(std::move(chunk));
  {
    std::unique_lock<std::mutex> lock(file_mu_);
    // An identical concurrent Put may have published since the check
    // above; checking again under the append lock appends each chunk
    // once, so no record is left that no entry points at.
    if (Dedup(id)) return id;
    const bool appended = AppendRecordLocked(lock, record, sp, &entry).ok();
    if (appended && entry.depth != 0) {
      delta_records_.Increment();
      delta_bytes_.Increment(record.size());
      if (rebased) delta_rebases_.Increment();
    }
    PublishEntry(entry);
  }
  // A rewritten node is what the next operation reads; every other
  // put (a bulk build's, a blob's) writes around the cache.
  if (base != nullptr) cache_->Insert(BufferCache::kRawChunk, id, sp, stored);
  return id;
}

Status FileChunkStore::AppendRecordLocked(std::unique_lock<std::mutex>& lock,
                                          const std::string& record,
                                          std::shared_ptr<const Chunk> chunk,
                                          Entry* entry) {
  // Hard cap: a store not driven through OnBlockSealed() still rolls,
  // just not aligned to block boundaries.
  if (append_status_.ok() &&
      active_offset_.load(std::memory_order_relaxed) > 0 &&
      active_offset_.load(std::memory_order_relaxed) + record.size() >
          2 * segment_bytes_) {
    RollSegmentLocked(lock);
  }
  // Held until the flush: pread cannot see a record still sitting in
  // the log's user-space buffer, nor one the log never took.
  const size_t held = chunk->stored_size();
  const Hash256 id = chunk->id();
  if (unflushed_.emplace(id, std::move(chunk)).second) {
    unflushed_bytes_ += held;
  }
  if (append_status_.ok()) {
    Status s = log_->Append(record);
    if (s.ok()) {
      entry->segment = active_segment_;
      entry->offset = static_cast<uint32_t>(
          active_offset_.load(std::memory_order_relaxed));
      entry->length = static_cast<uint32_t>(record.size());
      active_offset_.fetch_add(record.size(), std::memory_order_relaxed);
      appended_bytes_.Increment(record.size());
      if (unflushed_bytes_ >= kMaxHeldBytes) FlushLocked();  // sticky
      return Status::OK();
    }
    // After a failed append the log tail is suspect (a short write may
    // have left a partial record); appending more would strand those
    // records past the failure point, so the store stays read/memory-
    // only and the sticky error surfaces via Sync()/status().
    append_status_ = s;
  }
  // The record never reached the log: the unflushed map serves the
  // chunk for the life of the process.
  entry->segment = kResidentOnly;  // never treated as flushed
  entry->offset = 0;
  entry->length = static_cast<uint32_t>(record.size());
  return append_status_;
}

Status FileChunkStore::FlushLocked() {
  if (!append_status_.ok()) return append_status_;
  const uint64_t appended =
      uint64_t{active_segment_} << 32 |
      active_offset_.load(std::memory_order_relaxed);
  if (flushed_.load(std::memory_order_relaxed) == appended) {
    return Status::OK();
  }
  // A failed flush means buffered records never reached the kernel —
  // the same divergence as a failed append, and just as sticky.
  Status s = log_->Flush();
  if (!s.ok()) {
    append_status_ = s;
    return s;
  }
  flushed_.store(appended, std::memory_order_release);
  unflushed_.clear();
  unflushed_bytes_ = 0;
  return Status::OK();
}

Status FileChunkStore::FlushAndSync() {
  WritableLog* log = nullptr;
  {
    std::unique_lock<std::mutex> lock(file_mu_);
    Status s = FlushLocked();
    if (!s.ok()) return s;
    syncs_in_flight_++;
    log = log_.get();
  }
  // The disk barrier runs outside file_mu_: it covers every record
  // flushed above, while later Puts keep appending without waiting on
  // the disk (their records simply ride the next Sync). A concurrent
  // roll waits for syncs_in_flight_ to drain before closing the log.
  Status s = log->SyncFlushed();
  fsyncs_.Increment();
  {
    std::lock_guard<std::mutex> lock(file_mu_);
    syncs_in_flight_--;
    if (syncs_in_flight_ == 0) roll_cv_.notify_all();
  }
  return s;
}

Status FileChunkStore::Sync() { return FlushAndSync(); }

Status FileChunkStore::RollSegmentLocked(std::unique_lock<std::mutex>& lock) {
  if (!append_status_.ok()) return append_status_;
  // An in-flight SyncFlushed barrier holds a raw pointer to the log;
  // closing it under the barrier would be a use-after-free.
  roll_cv_.wait(lock, [this] { return syncs_in_flight_ == 0; });
  Status s = FlushLocked();
  if (!s.ok()) return s;
  // Seal with a full fsync: replay is entitled to find every sealed
  // segment intact, which is also what keeps the chunks-before-journal
  // recovery invariant true across a segment switch (the records of
  // every sealed block in this segment are durable before any journal
  // entry written after the switch can be).
  s = log_->Sync();
  fsyncs_.Increment();
  if (!s.ok()) {
    append_status_ = s;
    return s;
  }
  log_->Close();

  const uint32_t sealed_id = active_segment_;
  const uint64_t sealed_size = active_offset_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> seg_lock(seg_mu_);
    auto it = segments_.find(sealed_id);
    if (it != segments_.end()) it->second->size = sealed_size;
  }

  const uint32_t next_id = sealed_id + 1;
  auto seg = std::make_shared<Segment>();
  seg->id = next_id;
  seg->path = dir_ + "/" + SegmentFileName(next_id);
  std::unique_ptr<WritableLog> next_log;
  s = env_->NewWritableLog(seg->path, &next_log);
  if (!s.ok()) {
    append_status_ = Status::IOError("cannot open chunk segment: " +
                                     seg->path + ": " + s.message());
    return append_status_;
  }
  s = env_->SyncDir(dir_);
  if (!s.ok()) {
    append_status_ = s;
    return s;
  }
  ReadHandle(seg);
  log_ = std::move(next_log);
  active_segment_ = next_id;
  active_offset_.store(0, std::memory_order_relaxed);
  flushed_.store(uint64_t{next_id} << 32, std::memory_order_release);
  {
    std::lock_guard<std::mutex> seg_lock(seg_mu_);
    segments_.emplace(next_id, std::move(seg));
  }
  rolls_.Increment();
  return Status::OK();
}

void FileChunkStore::OnBlockSealed() {
  std::unique_lock<std::mutex> lock(file_mu_);
  if (active_offset_.load(std::memory_order_relaxed) >= segment_bytes_) {
    RollSegmentLocked(lock);  // failures are sticky
  }
}

Status FileChunkStore::Get(const Hash256& id,
                           std::shared_ptr<const Chunk>* chunk) const {
  return Load(id, /*gc_window=*/nullptr, chunk);
}

Status FileChunkStore::Load(const Hash256& id, ReadWindow* gc_window,
                            std::shared_ptr<const Chunk>* chunk) const {
  if (auto cached = cache_->Lookup(BufferCache::kRawChunk, id)) {
    *chunk = std::static_pointer_cast<const Chunk>(cached);
    return Status::OK();
  }
  Entry entry;
  std::shared_ptr<const Chunk> hit;
  Status s = Locate(id, &entry, &hit);
  if (!s.ok()) return s;
  if (hit != nullptr) {
    *chunk = std::move(hit);
    return Status::OK();
  }
  return ReadChunkAt(id, entry, gc_window, chunk);
}

Status FileChunkStore::Locate(const Hash256& id, Entry* entry,
                              std::shared_ptr<const Chunk>* hit) const {
  {
    const MapShard& shard = map_shards_[MapShardOf(id)];
    std::lock_guard<std::mutex> lock(shard.mu);
    const uint32_t slot = shard.index.Find(id);
    if (slot == ChunkIndex::kNone) {
      return Status::NotFound("chunk " + id.ToHex());
    }
    *entry = shard.index.at(slot);
  }
  if (!Flushed(*entry)) {
    // The record was unflushed a moment ago: the unflushed map holds
    // the chunk unless a flush has since made the record visible to
    // pread.
    std::lock_guard<std::mutex> lock(file_mu_);
    auto it = unflushed_.find(id);
    if (it != unflushed_.end()) *hit = it->second;
  }
  return Status::OK();
}

bool FileChunkStore::Flushed(const Entry& entry) const {
  // A stale read of flushed_ errs towards "unflushed", which only sends
  // the read to the unflushed map first.
  const uint64_t flushed = flushed_.load(std::memory_order_acquire);
  const uint32_t segment = static_cast<uint32_t>(flushed >> 32);
  return entry.segment < segment ||
         (entry.segment == segment &&
          uint64_t{entry.offset} + entry.length <= (flushed & UINT32_MAX));
}

bool FileChunkStore::Contains(const Hash256& id) const {
  const MapShard& shard = map_shards_[MapShardOf(id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.index.Find(id) != ChunkIndex::kNone;
}

Status FileChunkStore::ReadHandle(
    const std::shared_ptr<Segment>& segment,
    std::shared_ptr<RandomAccessFile>* file) const {
  std::lock_guard<std::mutex> lock(segment->open_mu);
  if (segment->file == nullptr) {
    std::unique_ptr<RandomAccessFile> f;
    Status s = env_->NewRandomAccessFile(segment->path, &f);
    if (!s.ok()) {
      return Status::IOError("cannot open chunk segment " + segment->path +
                             ": " + s.message());
    }
    segment->file = std::move(f);
  }
  if (file != nullptr) *file = segment->file;
  return Status::OK();
}

Status FileChunkStore::ReadRecord(const Entry& entry, std::string* buf,
                                  ChunkRecord* record,
                                  ReadWindow* window) const {
  std::shared_ptr<Segment> segment;
  uint64_t settled = 0;  // the segment's bytes known never to change
  {
    std::lock_guard<std::mutex> lock(seg_mu_);
    auto it = segments_.find(entry.segment);
    if (it == segments_.end()) {
      // The GC unlinked the segment after this location was copied
      // out; the id no longer resolves (documented for reads of
      // collected versions).
      return Status::NotFound("segment " + std::to_string(entry.segment) +
                              " collected");
    }
    segment = it->second;
    settled = segment->size;
  }
  std::shared_ptr<RandomAccessFile> file;
  Status hs = ReadHandle(segment, &file);
  if (!hs.ok()) {
    read_errors_.Increment();
    return hs;
  }
  const uint64_t end = uint64_t{entry.offset} + entry.length;
  Status rs;
  if (window != nullptr && end <= settled) {
    // A segment's bytes below its recorded size (sealed, or replayed)
    // never change, so one read of up to kReadWindowBytes serves every
    // record after this one that it covers.
    if (window->segment != entry.segment || entry.offset < window->offset ||
        end > window->offset + window->bytes.size()) {
      window->segment = entry.segment;
      window->offset = entry.offset;
      reads_.Increment();
      rs = file->Read(entry.offset,
                      std::max<uint64_t>(
                          entry.length,
                          std::min<uint64_t>(kReadWindowBytes,
                                             settled - entry.offset)),
                      &window->bytes);
      if (rs.ok()) {
        read_bytes_.Increment(window->bytes.size());
      } else {
        window->bytes.clear();
      }
    }
    if (rs.ok() && end <= window->offset + window->bytes.size()) {
      buf->assign(window->bytes, entry.offset - window->offset, entry.length);
    } else {
      buf->clear();
    }
  } else {
    reads_.Increment();
    rs = file->Read(entry.offset, entry.length, buf);
    if (rs.ok() && buf->size() == entry.length) {
      read_bytes_.Increment(entry.length);
    }
  }
  if (rs.ok() && buf->size() < entry.length) {
    rs = Status::IOError("short read (" + std::to_string(buf->size()) +
                         " of " + std::to_string(entry.length) + " bytes)");
  }
  if (!rs.ok()) {
    read_errors_.Increment();
    return Status::IOError("chunk read failed in " +
                           SegmentFileName(entry.segment) + " at offset " +
                           std::to_string(entry.offset) + ": " + rs.message());
  }

  Slice input(*buf);
  bool torn = false;
  Status ps = ParseChunkRecord(&input, record, &torn);
  if (!ps.ok() || torn) {
    return Status::Corruption(
        "chunk record damaged in " + SegmentFileName(entry.segment) +
        " at offset " + std::to_string(entry.offset));
  }
  return Status::OK();
}

Status FileChunkStore::ReadChunkAt(const Hash256& id, const Entry& entry,
                                   ReadWindow* gc_window,
                                   std::shared_ptr<const Chunk>* chunk) const {
  std::string buf;
  ChunkRecord record;
  Status s = ReadRecord(entry, &buf, &record, gc_window);
  if (s.IsNotFound()) {
    return Status::NotFound("chunk " + id.ToHex() + " (" + s.message() + ")");
  }
  if (!s.ok()) return s;
  const std::string where = " in " + SegmentFileName(entry.segment) +
                            " at offset " + std::to_string(entry.offset);
  Chunk decoded;
  if (record.delta) {
    if (!(record.id == id)) {
      return Status::Corruption("delta record of another chunk" + where);
    }
    std::string base;
    s = BasePayload(record.base, 1, &base);
    if (s.ok()) s = RebuildChunk(record, base, &decoded);
    if (!s.ok()) {
      return s.IsNotFound() ? s
                            : Status::Corruption(s.message() + where);
    }
  } else {
    decoded = TakePayload(record, &buf);
    if (!(decoded.id() == id)) {
      // The record round-trips its checksum but hashes to a different
      // id: the location table routed us to the wrong bytes.
      return Status::Corruption("chunk content hash mismatch" + where +
                                " (wanted " + id.ToHex() + ")");
    }
  }
  auto sp = std::make_shared<const Chunk>(std::move(decoded));
  if (gc_window == nullptr) {
    cache_->Insert(BufferCache::kRawChunk, id, sp, sp->stored_size());
  }
  *chunk = std::move(sp);
  return Status::OK();
}

Status FileChunkStore::BasePayload(const Hash256& id, size_t hops,
                                   std::string* payload) const {
  if (hops > kChainReadLimit) {
    return Status::Corruption("delta chain through " + id.ToHex() + " loops");
  }
  std::shared_ptr<const Chunk> hit = std::static_pointer_cast<const Chunk>(
      cache_->Lookup(BufferCache::kRawChunk, id));
  Entry entry;
  if (hit == nullptr) {
    Status s = Locate(id, &entry, &hit);
    if (s.IsNotFound()) {
      return Status::NotFound("delta base " + id.ToHex() + " collected");
    }
    if (!s.ok()) return s;
  }
  if (hit != nullptr) {
    payload->assign(hit->payload());
    return Status::OK();
  }
  chain_reads_.Increment();
  std::string buf;
  ChunkRecord record;
  Status s = ReadRecord(entry, &buf, &record);
  if (!s.ok()) return s;
  if (!record.delta) {
    payload->assign(record.body.data(), record.body.size());
    return Status::OK();
  }
  if (!(record.id == id)) {
    return Status::Corruption("delta base " + id.ToHex() +
                              " resolves to another chunk's record");
  }
  std::string below;
  s = BasePayload(record.base, hops + 1, &below);
  if (!s.ok()) return s;
  return ApplyDelta(record, below, payload);
}

Status FileChunkStore::RewriteFull(uint32_t ref,
                                   const std::set<uint32_t>& condemns,
                                   ReadWindow* window,
                                   uint64_t* rewritten_bytes) {
  const Hash256 id = At(ref).id;
  std::shared_ptr<const Chunk> chunk;
  Status s = Load(id, window, &chunk);
  if (!s.ok()) return s;
  std::string record;
  EncodeChunkRecord(*chunk, &record);
  Entry fresh;
  fresh.id = id;
  {
    std::unique_lock<std::mutex> lock(file_mu_);
    s = AppendRecordLocked(lock, record, chunk, &fresh);
    if (!s.ok()) return s;
  }
  *rewritten_bytes += record.size();
  MapShard& shard = ShardOfRef(ref);
  std::lock_guard<std::mutex> lock(shard.mu);
  const uint32_t superseded = Supersede(&shard.index.at(SlotOfRef(ref)), fresh);
  if (condemns.count(superseded) != 0) CondemnSegment(superseded);
  return Status::OK();
}

Status FileChunkStore::RetainLive(
    const std::unordered_set<Hash256, Hash256Hasher>& live, uint64_t mark_seq,
    ChunkGcStats* stats) {
  std::lock_guard<std::mutex> sweep_lock(sweep_mu_);
  uint32_t active_snapshot = 0;
  {
    std::unique_lock<std::mutex> lock(file_mu_);
    // Seal the active segment first, so this pass can condemn its dead
    // records too. Delta records make it fill slowly: left open, it
    // would hold every dead chunk written since the last roll.
    if (append_status_.ok() &&
        active_offset_.load(std::memory_order_relaxed) > 0) {
      RollSegmentLocked(lock);
    }
    if (!append_status_.ok()) {
      // A poisoned store cannot rewrite live records safely.
      return append_status_;
    }
    active_snapshot = active_segment_;
  }

  // Phase 1: plan the pass (segment_gc.h) from one walk of the index,
  // whose rows come in reference order; a reference stays valid for the
  // pass, as only a pass frees a slot. Every record inserted before the
  // mark is in a sealed segment once the active one rolled above;
  // segments created since carry ids from active_snapshot up and are
  // never victims, so concurrent Puts and rewrites land on safe ground.
  std::vector<GcRow> rows;
  for (size_t i = 0; i < kMapShards; i++) {
    std::lock_guard<std::mutex> lock(map_shards_[i].mu);
    map_shards_[i].index.ForEach([&](uint32_t slot, const Entry& entry) {
      rows.push_back({RefOf(i, slot), entry.segment, entry.offset,
                      entry.base, static_cast<uint8_t>(entry.depth),
                      entry.seq < mark_seq &&
                          entry.segment < active_snapshot &&
                          live.find(entry.id) == live.end()});
    });
  }
  std::set<uint32_t> condemned;
  {
    std::lock_guard<std::mutex> lock(seg_mu_);
    for (const auto& [id, segment] : segments_) {
      if (segment->condemned) condemned.insert(id);
    }
  }
  const GcPlan plan = PlanSegmentGc(rows, condemned, active_snapshot);

  ChunkGcStats result;

  // Phase 2: rewrite the plan's records as full ones. Locations update
  // in place, keeping the original insertion sequence (the chunk is the
  // same age for future marks). Reads verify but skip the cache, so a
  // pass does not evict the readers' working set. The records are read
  // in segment and offset order through one window, so a victim costs
  // a few large reads rather than one per record.
  ReadWindow window;
  for (const size_t row : plan.rewrites) {
    Status s = RewriteFull(rows[row].ref, plan.condemned, &window,
                           &result.rewritten_bytes);
    if (!s.ok()) return s;
  }

  // Phase 3: harden the rewrites before anything is unpublished — a
  // crash from here on replays either the old copies (victims still
  // present) or both (the later, rewritten copy wins), never neither.
  if (result.rewritten_bytes > 0) {
    Status s = FlushAndSync();
    if (!s.ok()) return s;
  }

  // Phase 4: wait for every traversal that may still resolve condemned
  // ids through the pre-sweep map.
  epochs().WaitForQuiescence();

  // Phase 5: unpublish the dead, deepest deltas first so a base goes
  // after every delta on it. An id re-referenced since BeginGc carries
  // a renewed sequence — it stays, and its record, which sits in a
  // victim, is re-appended (rebuilt through bases still published)
  // before the unlink.
#ifndef NDEBUG
  // No delta on disk outlives its base, which is what keeps a base
  // reference from naming a reused slot: a delta on a base this pass
  // erases is dead too (and erased first, being deeper) or was
  // flattened above, unless naming the base renewed its sequence. Nothing is
  // unpublished yet, so a dead base's slot still holds its id.
  std::vector<uint32_t> dead_bases;
  for (size_t i = 0; i < kMapShards; i++) {
    std::lock_guard<std::mutex> lock(map_shards_[i].mu);
    map_shards_[i].index.ForEach([&](uint32_t slot, const Entry& entry) {
      if (entry.depth == 0) return;
      const GcRow* base = FindGcRow(rows, entry.base);
      if (base == nullptr || !base->dead) return;
      const GcRow* self = FindGcRow(rows, RefOf(i, slot));
      if (self == nullptr || !self->dead) dead_bases.push_back(entry.base);
    });
  }
  for (const uint32_t ref : dead_bases) {
    assert(At(ref).seq >= mark_seq && "a delta outlives its base");
  }
#endif
  const uint64_t rewritten_before = result.rewritten_bytes;
  for (const size_t row : plan.dead) {
    const uint32_t ref = rows[row].ref;
    Hash256 id;
    bool renewed = false;
    {
      MapShard& shard = ShardOfRef(ref);
      std::lock_guard<std::mutex> lock(shard.mu);
      const Entry& entry = shard.index.at(SlotOfRef(ref));
      id = entry.id;
      renewed = entry.seq >= mark_seq;
      if (!renewed) {
        chunk_count_.Sub(1);
        physical_bytes_.Sub(StoredBytes(entry));
        result.dead_chunks++;
        result.reclaimed_bytes += StoredBytes(entry);
        shard.index.Erase(SlotOfRef(ref));
      }
    }
    if (!renewed) {
      cache_->Erase(id);
      continue;
    }
    Status s = RewriteFull(ref, plan.condemned, &window,
                           &result.rewritten_bytes);
    if (!s.ok()) return s;
  }
  if (result.rewritten_bytes > rewritten_before) {
    Status s = FlushAndSync();
    if (!s.ok()) return s;
  }

  // Phase 6: unlink the victims. Their dead records are unpublished
  // now, so each is condemned until it is gone: one whose unlink fails
  // stays in the segment table for the next pass to take again. The
  // synced manifest lets Open finish the unlinks a crash cuts short (a
  // delta in one victim may name a base in another). A straggling
  // reader that copied a location before phase 5 keeps preading through
  // the open handle the Segment holds.
  Status first_error = Status::OK();
  if (!plan.victims.empty()) {
    for (uint32_t victim : plan.victims) CondemnSegment(victim);
    first_error = WriteGcManifest(plan.victims);
    if (!first_error.ok()) return first_error;
  }
  for (uint32_t victim : plan.victims) {
    Status s = env_->DeleteFile(dir_ + "/" + SegmentFileName(victim));
    if (s.ok() || s.IsNotFound()) {
      std::lock_guard<std::mutex> lock(seg_mu_);
      segments_.erase(victim);
      result.segments_deleted++;
    } else if (first_error.ok()) {
      first_error = s;
    }
  }
  if (!plan.victims.empty() && first_error.ok()) {
    first_error = env_->SyncDir(dir_);
    if (first_error.ok()) {
      first_error = env_->DeleteFile(dir_ + "/" + kGcManifest);
    }
  }

  result.live_chunks = rows.size() - result.dead_chunks;
  if (stats != nullptr) *stats = result;
  return first_error;
}

Status FileChunkStore::status() const {
  std::lock_guard<std::mutex> lock(file_mu_);
  return append_status_;
}

uint64_t FileChunkStore::segment_count() const {
  std::lock_guard<std::mutex> lock(seg_mu_);
  return segments_.size();
}

uint64_t FileChunkStore::IndexTotal(
    size_t (ChunkIndex::*measure)() const) const {
  uint64_t total = 0;
  for (const MapShard& shard : map_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += (shard.index.*measure)();
  }
  return total;
}

void FileChunkStore::ExportMetrics(MetricsRegistry* registry) const {
  ChunkStore::ExportMetrics(registry);
  registry->RegisterCounter("chunk.file.replayed_chunks", &recovered_);
  registry->RegisterCounter("chunk.file.replayed_bytes", &replayed_bytes_);
  registry->RegisterCounter("chunk.file.appended_bytes", &appended_bytes_);
  registry->RegisterCounter("chunk.file.truncated_bytes", &truncated_bytes_);
  registry->RegisterCounter("chunk.file.reads", &reads_);
  registry->RegisterCounter("chunk.file.read_bytes", &read_bytes_);
  registry->RegisterCounter("chunk.file.read_errors", &read_errors_);
  registry->RegisterCounter("chunk.file.fsyncs", &fsyncs_);
  registry->RegisterCounter("chunk.file.delta_records", &delta_records_);
  registry->RegisterCounter("chunk.file.delta_bytes", &delta_bytes_);
  registry->RegisterCounter("chunk.file.chain_reads", &chain_reads_);
  registry->RegisterCounter("chunk.file.delta_rebases", &delta_rebases_);
  registry->RegisterCounter("chunk.file.rebase_reads", &rebase_reads_);
  registry->RegisterCounter("chunk.segment.rolls", &rolls_);
  registry->RegisterGaugeFn("chunk.file.index_entries", [this] {
    return IndexTotal(&ChunkIndex::size);
  });
  registry->RegisterGaugeFn("chunk.file.index_bytes", [this] {
    return IndexTotal(&ChunkIndex::bytes);
  });
  registry->RegisterGaugeFn("chunk.segment.count",
                            [this] { return segment_count(); });
  registry->RegisterGaugeFn("chunk.segment.active_bytes", [this] {
    return active_offset_.load(std::memory_order_relaxed);
  });
}

}  // namespace spitz
