#include "chunk/file_chunk_store.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <set>
#include <vector>

#include "common/codec.h"
#include "common/crc32c.h"
#include "common/fork_join.h"

namespace spitz {

namespace {

// Segment replay: records whose chunk id is hashed per piece.
constexpr size_t kReplayHashGrain = 256;

// [1B type][varint len][payload][4B masked crc32c(type + payload)]
void EncodeChunkRecord(const Chunk& chunk, std::string* out) {
  char type = static_cast<char>(chunk.type());
  out->push_back(type);
  PutVarint64(out, chunk.payload().size());
  out->append(chunk.payload());
  uint32_t crc = crc32c::Extend(0, &type, 1);
  crc = crc32c::Extend(crc, chunk.payload().data(), chunk.payload().size());
  PutFixed32(out, crc32c::Mask(crc));
}

// Parses one record from *input, advancing it past the record. A record
// the input ends inside sets *torn (nothing consumed); a complete record
// whose checksum does not match is Corruption.
Status ParseChunkRecord(Slice* input, char* type, Slice* payload, bool* torn) {
  *torn = false;
  if (input->empty()) {
    *torn = true;
    return Status::OK();
  }
  Slice rest = *input;
  char type_byte = rest[0];
  rest.remove_prefix(1);
  uint64_t len = 0;
  if (!GetVarint64(&rest, &len).ok() || rest.size() < len + sizeof(uint32_t)) {
    *torn = true;
    return Status::OK();
  }
  const char* data = rest.data();
  rest.remove_prefix(static_cast<size_t>(len));
  uint32_t stored_crc = DecodeFixed32(rest.data());
  rest.remove_prefix(sizeof(uint32_t));
  uint32_t crc = crc32c::Extend(0, &type_byte, 1);
  crc = crc32c::Extend(crc, data, static_cast<size_t>(len));
  if (crc32c::Unmask(stored_crc) != crc) {
    return Status::Corruption("chunk record CRC mismatch");
  }
  *type = type_byte;
  *payload = Slice(data, static_cast<size_t>(len));
  *input = rest;
  return Status::OK();
}

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

}  // namespace

std::string FileChunkStore::SegmentFileName(uint32_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "chunk-%06u.seg", id);
  return buf;
}

Status FileChunkStore::Open(Env* env, const std::string& dir,
                            const Options& options,
                            std::unique_ptr<FileChunkStore>* store) {
  auto s = std::unique_ptr<FileChunkStore>(new FileChunkStore());
  s->env_ = env;
  s->dir_ = dir;
  s->segment_bytes_ = options.segment_bytes > 0 ? options.segment_bytes : 1;
  if (options.cache != nullptr) {
    s->cache_ = options.cache;
  } else {
    s->owned_cache_ =
        std::make_unique<BufferCache>(BufferCache::kDefaultCapacityBytes);
    s->cache_ = s->owned_cache_.get();
  }

  Status cd = env->CreateDir(dir);
  if (!cd.ok()) return cd;

  uint64_t tail_valid = 0;
  Status replay_status = s->Replay(&tail_valid);
  if (!replay_status.ok()) return replay_status;

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
  {
    std::unique_ptr<RandomAccessFile> f;
    if (env->NewRandomAccessFile(active->path, &f).ok()) {
      active->file = std::move(f);
    }
  }
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

  for (size_t i = 0; i < ids.size(); i++) {
    const bool is_last = (i + 1 == ids.size());
    const std::string path = dir_ + "/" + SegmentFileName(ids[i]);
    uint64_t valid = 0;
    Status s = ReplaySegment(ids[i], path, is_last, &valid);
    if (!s.ok()) return s;
    if (is_last) *tail_valid = valid;
  }
  return Status::OK();
}

Status FileChunkStore::ReplaySegment(uint32_t segment_id,
                                     const std::string& path, bool is_last,
                                     uint64_t* valid_offset) {
  *valid_offset = 0;
  std::string contents;
  Status read_status = env_->ReadFileToString(path, &contents);
  if (!read_status.ok() && !read_status.IsNotFound()) return read_status;

  // Three passes. Parsing and CRC checks go in file order: they fix the
  // record boundaries and meet a torn tail or a corrupt record where a
  // one-pass replay would. The chunk ids are then hashed on every core,
  // straight from the segment bytes. Last, the entries are published in
  // file order, so the first copy of a duplicate still wins.
  struct Record {
    ChunkType type;
    Slice payload;  // into `contents`
    uint64_t offset;
    uint32_t length;
  };
  std::vector<Record> records;
  Slice input(contents);
  uint64_t consumed = 0;
  while (!input.empty()) {
    char type = 0;
    Slice payload;
    bool torn = false;
    const size_t before = input.size();
    Status ps = ParseChunkRecord(&input, &type, &payload, &torn);
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
    records.push_back(Record{static_cast<ChunkType>(type), payload, consumed,
                             static_cast<uint32_t>(record_len)});
    consumed += record_len;
  }

  std::vector<Hash256> ids(records.size());
  ParallelFor(records.size(), kReplayHashGrain, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; i++) {
      ids[i] = Chunk::IdOf(records[i].type, records[i].payload);
    }
  });

  for (size_t i = 0; i < records.size(); i++) {
    const Record& record = records[i];
    const size_t stored = record.payload.size() + 1;  // Chunk::stored_size
    puts_.Increment();
    logical_bytes_.Increment(stored);

    Entry entry;
    entry.segment = segment_id;
    entry.offset = record.offset;
    entry.length = record.length;
    entry.stored = static_cast<uint32_t>(stored);
    entry.global_end = 0;  // on disk already: always pread-visible
    if (PublishEntry(ids[i], entry)) {
      recovered_.Increment();
    } else {
      // A duplicate record (a GC pass crashed after rewriting this
      // chunk but before unlinking its old home): first wins.
      dedup_hits_.Increment();
    }
    replayed_bytes_.Increment(record.length);
  }

  auto seg = std::make_shared<Segment>();
  seg->id = segment_id;
  seg->path = path;
  seg->size = consumed;
  {
    std::unique_ptr<RandomAccessFile> f;
    if (env_->NewRandomAccessFile(path, &f).ok()) seg->file = std::move(f);
  }
  segments_.emplace(segment_id, std::move(seg));
  *valid_offset = consumed;
  return Status::OK();
}

bool FileChunkStore::PublishEntry(const Hash256& id, Entry entry) {
  MapShard& shard = map_shards_[MapShardOf(id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  entry.seq = NextInsertSeq();
  auto inserted = shard.entries.emplace(id, entry);
  if (!inserted.second) return false;
  chunk_count_.Add(1);
  physical_bytes_.Add(entry.stored);
  return true;
}

Hash256 FileChunkStore::Put(Chunk chunk) {
  const Hash256 id = chunk.id();
  const size_t stored = chunk.stored_size();
  puts_.Increment();
  logical_bytes_.Increment(stored);
  {
    MapShard& shard = map_shards_[MapShardOf(id)];
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.entries.find(id) != shard.entries.end()) {
      dedup_hits_.Increment();
      NoteDedupResurrection(id);
      return id;
    }
  }

  std::string record;
  EncodeChunkRecord(chunk, &record);
  auto sp = std::make_shared<const Chunk>(std::move(chunk));

  Entry entry;
  entry.stored = static_cast<uint32_t>(stored);
  {
    std::unique_lock<std::mutex> lock(file_mu_);
    AppendRecordLocked(lock, record, sp, &entry);
  }
  if (!PublishEntry(id, entry)) {
    // Lost a publication race against an identical concurrent Put; the
    // duplicate record is harmless (first-wins replay skips it) and
    // the double cache pin is balanced by the two flush unpins.
    dedup_hits_.Increment();
  }
  return id;
}

Status FileChunkStore::AppendRecordLocked(
    std::unique_lock<std::mutex>& lock, const std::string& record,
    const std::shared_ptr<const Chunk>& chunk, Entry* entry) {
  // Hard cap: a store not driven through OnBlockSealed() still rolls,
  // just not aligned to block boundaries.
  if (append_status_.ok() &&
      active_offset_.load(std::memory_order_relaxed) > 0 &&
      active_offset_.load(std::memory_order_relaxed) + record.size() >
          2 * segment_bytes_) {
    RollSegmentLocked(lock);
  }
  if (append_status_.ok()) {
    Status s = log_->Append(record);
    if (s.ok()) {
      entry->segment = active_segment_;
      entry->offset = active_offset_.load(std::memory_order_relaxed);
      entry->length = static_cast<uint32_t>(record.size());
      active_offset_.fetch_add(record.size(), std::memory_order_relaxed);
      const uint64_t end =
          appended_total_.load(std::memory_order_relaxed) + record.size();
      appended_total_.store(end, std::memory_order_release);
      entry->global_end = end;
      appended_bytes_.Increment(record.size());
      // Pin until the flush watermark passes `end`: pread cannot see a
      // record still sitting in the log's user-space buffer.
      cache_->Insert(BufferCache::kRawChunk, chunk->id(), chunk,
                     chunk->stored_size(), /*pin=*/true);
      unflushed_.emplace_back(chunk->id(), end);
      return Status::OK();
    }
    // After a failed append the log tail is suspect (a short write may
    // have left a partial record); appending more would strand those
    // records past the failure point, so the store stays read/memory-
    // only and the sticky error surfaces via Sync()/status().
    append_status_ = s;
  }
  // The record never reached the log: keep the chunk readable for the
  // life of the process as a permanently pinned cache entry.
  entry->segment = kResidentOnly;
  entry->offset = 0;
  entry->length = static_cast<uint32_t>(record.size());
  entry->global_end = UINT64_MAX;  // never treated as flushed
  cache_->Insert(BufferCache::kRawChunk, chunk->id(), chunk,
                 chunk->stored_size(), /*pin=*/true);
  return append_status_;
}

Status FileChunkStore::FlushLocked() const {
  if (!append_status_.ok()) return append_status_;
  if (appended_total_.load(std::memory_order_relaxed) ==
      flushed_total_.load(std::memory_order_relaxed)) {
    return Status::OK();
  }
  // A failed flush means buffered records never reached the kernel —
  // the same divergence as a failed append, and just as sticky.
  Status s = log_->Flush();
  if (!s.ok()) {
    append_status_ = s;
    return s;
  }
  flushed_total_.store(appended_total_.load(std::memory_order_relaxed),
                       std::memory_order_release);
  for (const auto& pending : unflushed_) {
    cache_->Unpin(BufferCache::kRawChunk, pending.first);
  }
  unflushed_.clear();
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
  {
    std::unique_ptr<RandomAccessFile> f;
    if (env_->NewRandomAccessFile(seg->path, &f).ok()) seg->file = std::move(f);
  }
  log_ = std::move(next_log);
  active_segment_ = next_id;
  active_offset_.store(0, std::memory_order_relaxed);
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
  if (auto hit = cache_->Lookup(BufferCache::kRawChunk, id)) {
    *chunk = std::static_pointer_cast<const Chunk>(hit);
    return Status::OK();
  }
  Entry entry;
  {
    const MapShard& shard = map_shards_[MapShardOf(id)];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(id);
    if (it == shard.entries.end()) {
      return Status::NotFound("chunk " + id.ToHex());
    }
    entry = it->second;
  }
  if (entry.global_end > flushed_total_.load(std::memory_order_acquire)) {
    // The record is (or was, when the entry was published) invisible to
    // pread. Its pin means a cache retry hits unless a flush raced in
    // between — in which case the pread below is valid anyway.
    if (auto hit = cache_->Lookup(BufferCache::kRawChunk, id)) {
      *chunk = std::static_pointer_cast<const Chunk>(hit);
      return Status::OK();
    }
    if (entry.segment == kResidentOnly) {
      return Status::IOError("resident-only chunk " + id.ToHex() +
                             " missing from cache");
    }
    std::lock_guard<std::mutex> lock(file_mu_);
    Status s = FlushLocked();
    if (!s.ok()) return s;
  }
  return ReadChunkAt(id, entry, chunk);
}

bool FileChunkStore::Contains(const Hash256& id) const {
  const MapShard& shard = map_shards_[MapShardOf(id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.entries.find(id) != shard.entries.end();
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
  *file = segment->file;
  return Status::OK();
}

Status FileChunkStore::ReadChunkAt(const Hash256& id, const Entry& entry,
                                   std::shared_ptr<const Chunk>* chunk) const {
  std::shared_ptr<Segment> segment;
  {
    std::lock_guard<std::mutex> lock(seg_mu_);
    auto it = segments_.find(entry.segment);
    if (it == segments_.end()) {
      // The GC unlinked the segment after this location was copied
      // out; the id no longer resolves (documented for reads of
      // collected versions).
      return Status::NotFound("chunk " + id.ToHex() + " (segment " +
                              std::to_string(entry.segment) + " collected)");
    }
    segment = it->second;
  }
  std::shared_ptr<RandomAccessFile> file;
  Status hs = ReadHandle(segment, &file);
  if (!hs.ok()) {
    read_errors_.Increment();
    return hs;
  }
  reads_.Increment();
  std::string buf;
  Status rs = file->Read(entry.offset, entry.length, &buf);
  if (rs.ok() && buf.size() < entry.length) {
    rs = Status::IOError("short read (" + std::to_string(buf.size()) + " of " +
                         std::to_string(entry.length) + " bytes)");
  }
  if (!rs.ok()) {
    read_errors_.Increment();
    return Status::IOError("chunk read failed in " +
                           SegmentFileName(entry.segment) + " at offset " +
                           std::to_string(entry.offset) + ": " + rs.message());
  }
  read_bytes_.Increment(entry.length);

  Slice input(buf);
  char type = 0;
  Slice payload;
  bool torn = false;
  Status ps = ParseChunkRecord(&input, &type, &payload, &torn);
  if (!ps.ok() || torn) {
    return Status::Corruption(
        "chunk record damaged in " + SegmentFileName(entry.segment) +
        " at offset " + std::to_string(entry.offset));
  }
  // The record buffer becomes the chunk's payload: drop the framing
  // around the payload in place rather than copy it out.
  const size_t payload_size = payload.size();
  buf.erase(0, static_cast<size_t>(payload.data() - buf.data()));
  buf.resize(payload_size);
  Chunk decoded(static_cast<ChunkType>(type), std::move(buf));
  if (!(decoded.id() == id)) {
    // The record round-trips its checksum but hashes to a different
    // id: the location table routed us to the wrong bytes.
    return Status::Corruption(
        "chunk content hash mismatch in " + SegmentFileName(entry.segment) +
        " at offset " + std::to_string(entry.offset) + " (wanted " +
        id.ToHex() + ")");
  }
  auto sp = std::make_shared<const Chunk>(std::move(decoded));
  cache_->Insert(BufferCache::kRawChunk, id, sp, sp->stored_size());
  *chunk = std::move(sp);
  return Status::OK();
}

Status FileChunkStore::RetainLive(
    const std::unordered_set<Hash256, Hash256Hasher>& live, uint64_t mark_seq,
    ChunkGcStats* stats) {
  std::lock_guard<std::mutex> sweep_lock(sweep_mu_);
  uint32_t active_snapshot = 0;
  {
    std::unique_lock<std::mutex> lock(file_mu_);
    if (!append_status_.ok()) {
      // A poisoned store cannot rewrite live records safely.
      Status s = append_status_;
      lock.unlock();
      EndGc();
      return s;
    }
    active_snapshot = active_segment_;
  }

  // Phase 1: classify. Dead = inserted before the mark, not reachable
  // from any retained root. Segments created after the snapshot carry
  // ids above active_snapshot and are never victims, so concurrent
  // Puts and rewrites land on safe ground.
  std::vector<std::pair<Hash256, Entry>> dead;
  std::unordered_set<Hash256, Hash256Hasher> dead_ids;
  std::set<uint32_t> dead_segments;
  uint64_t total_entries = 0;
  for (size_t i = 0; i < kMapShards; i++) {
    MapShard& shard = map_shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& kv : shard.entries) {
      total_entries++;
      const Entry& entry = kv.second;
      if (entry.seq < mark_seq && entry.segment != kResidentOnly &&
          live.find(kv.first) == live.end()) {
        dead.emplace_back(kv.first, entry);
        dead_ids.insert(kv.first);
        dead_segments.insert(entry.segment);
      }
    }
  }

  std::set<uint32_t> victims;
  for (uint32_t seg : dead_segments) {
    if (seg < active_snapshot) victims.insert(seg);
  }

  ChunkGcStats result;

  // Phase 2: rewrite the still-live records of every victim into the
  // active segment. Locations update in place, keeping the original
  // insertion sequence (the chunk is the same age for future marks).
  if (!victims.empty()) {
    std::vector<std::pair<Hash256, Entry>> movers;
    for (size_t i = 0; i < kMapShards; i++) {
      MapShard& shard = map_shards_[i];
      std::lock_guard<std::mutex> lock(shard.mu);
      for (const auto& kv : shard.entries) {
        if (victims.count(kv.second.segment) != 0 &&
            dead_ids.find(kv.first) == dead_ids.end()) {
          movers.emplace_back(kv.first, kv.second);
        }
      }
    }
    for (const auto& mover : movers) {
      std::shared_ptr<const Chunk> chunk;
      Status s = Get(mover.first, &chunk);
      if (!s.ok()) {
        EndGc();
        return s;
      }
      std::string record;
      EncodeChunkRecord(*chunk, &record);
      Entry fresh;
      fresh.stored = static_cast<uint32_t>(chunk->stored_size());
      {
        std::unique_lock<std::mutex> lock(file_mu_);
        Status as = AppendRecordLocked(lock, record, chunk, &fresh);
        if (!as.ok()) {
          lock.unlock();
          EndGc();
          return as;
        }
      }
      result.rewritten_bytes += record.size();
      MapShard& shard = map_shards_[MapShardOf(mover.first)];
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.entries.find(mover.first);
      if (it != shard.entries.end()) {
        fresh.seq = it->second.seq;
        it->second = fresh;
      }
    }
  }

  // Phase 3: harden the rewrites before anything is unpublished — a
  // crash from here on replays either the old copies (victims still
  // present) or both (first wins), never neither.
  if (result.rewritten_bytes > 0) {
    Status s = FlushAndSync();
    if (!s.ok()) {
      EndGc();
      return s;
    }
  }

  // Phase 4: wait for every traversal that may still resolve condemned
  // ids through the pre-sweep map.
  epochs().Advance();
  epochs().WaitForQuiescence();

  // Phase 5: unpublish the dead. A dedup hit since BeginGc resurrects
  // the id — it stays, and if its only record sits in a victim it is
  // re-appended from the still-present file before the unlink.
  uint64_t late_rewrites = 0;
  for (const auto& victim_entry : dead) {
    const Hash256& id = victim_entry.first;
    const Entry& entry = victim_entry.second;
    bool resurrected = false;
    {
      MapShard& shard = map_shards_[MapShardOf(id)];
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.entries.find(id);
      if (it == shard.entries.end()) continue;
      if (WasResurrected(id)) {
        resurrected = true;
      } else {
        chunk_count_.Sub(1);
        physical_bytes_.Sub(it->second.stored);
        shard.entries.erase(it);
        result.dead_chunks++;
        result.reclaimed_bytes += entry.stored;
      }
    }
    if (!resurrected) {
      cache_->Erase(id);
      continue;
    }
    if (victims.count(entry.segment) != 0) {
      std::shared_ptr<const Chunk> chunk;
      Status s = ReadChunkAt(id, entry, &chunk);
      if (!s.ok()) {
        EndGc();
        return s;
      }
      std::string record;
      EncodeChunkRecord(*chunk, &record);
      Entry fresh;
      fresh.stored = static_cast<uint32_t>(chunk->stored_size());
      {
        std::unique_lock<std::mutex> lock(file_mu_);
        Status as = AppendRecordLocked(lock, record, chunk, &fresh);
        if (!as.ok()) {
          lock.unlock();
          EndGc();
          return as;
        }
      }
      result.rewritten_bytes += record.size();
      late_rewrites++;
      MapShard& shard = map_shards_[MapShardOf(id)];
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.entries.find(id);
      if (it != shard.entries.end()) {
        fresh.seq = it->second.seq;
        it->second = fresh;
      }
    }
  }
  if (late_rewrites > 0) {
    Status s = FlushAndSync();
    if (!s.ok()) {
      EndGc();
      return s;
    }
  }

  // Phase 6: unlink the victims. A straggling reader that copied a
  // location before phase 5 keeps preading through the open handle the
  // Segment holds; everyone else can no longer reach the segment.
  Status first_error = Status::OK();
  for (uint32_t victim : victims) {
    std::shared_ptr<Segment> seg;
    {
      std::lock_guard<std::mutex> lock(seg_mu_);
      auto it = segments_.find(victim);
      if (it == segments_.end()) continue;
      seg = it->second;
      segments_.erase(it);
    }
    Status s = env_->DeleteFile(seg->path);
    if (s.ok() || s.IsNotFound()) {
      result.segments_deleted++;
    } else if (first_error.ok()) {
      first_error = s;
    }
  }
  if (!victims.empty() && first_error.ok()) {
    first_error = env_->SyncDir(dir_);
  }

  EndGc();
  result.live_chunks =
      total_entries > result.dead_chunks ? total_entries - result.dead_chunks
                                         : 0;
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
  registry->RegisterCounter("chunk.segment.rolls", &rolls_);
  registry->RegisterGaugeFn("chunk.segment.count",
                            [this] { return segment_count(); });
  registry->RegisterGaugeFn("chunk.segment.active_bytes", [this] {
    return active_offset_.load(std::memory_order_relaxed);
  });
}

}  // namespace spitz
