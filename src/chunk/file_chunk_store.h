#ifndef SPITZ_CHUNK_FILE_CHUNK_STORE_H_
#define SPITZ_CHUNK_FILE_CHUNK_STORE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "chunk/buffer_cache.h"
#include "chunk/chunk_store.h"
#include "common/env.h"

namespace spitz {

// The paged, durable chunk store (DESIGN.md section 12): a directory of
// fixed-size segment files, each an append-only log of chunk records,
// fronted by a resident map that holds only locations — id → {segment,
// offset, length} — instead of the chunk bytes themselves. Reads go
// through the unified BufferCache; a miss costs one positional read
// (pread) against the owning segment plus a CRC and content-hash check,
// so the store serves datasets far larger than RAM with memory bounded
// by the map and the cache budget.
//
// Record format (unchanged from the single-log store):
//   [1B type] [varint payload length] [payload bytes] [4B masked CRC32C]
// The checksum covers the type byte and the payload. Replay walks every
// segment in numeric order and registers locations; a record that is
// *incomplete* in the highest-numbered segment is a torn tail from a
// crash — replay stops there and Open() truncates back to the last
// valid record. An incomplete record in any *sealed* segment, or a
// complete record with a bad checksum anywhere, is Corruption: sealed
// segments are fsynced before the store moves past them, so nothing
// short of bit rot explains damage there.
//
// Durability contract: Put() appends to the active segment (buffered);
// only Sync() makes appended records crash-safe. Until the log flushes,
// a record's bytes are invisible to pread — the store keeps such chunks
// pinned in the cache so Get() always works after Put(). A failed or
// short append poisons the store with a sticky I/O error exactly as
// before; chunks that never reached the log stay pinned in the cache so
// they remain readable for the life of the process.
//
// Segment lifecycle: the active segment rolls once it crosses
// segment_bytes — normally right after a sealed-block boundary (the
// database calls OnBlockSealed() so switches line up with commit
// durability), with a 2× hard cap as the standalone fallback. A roll
// fsyncs the outgoing segment before creating its successor, which is
// what lets replay demand sealed segments be intact. The version GC
// (RetainLive) rewrites the still-live records of condemned sealed
// segments into the active one, fsyncs, waits for in-flight reader
// epochs to drain, then unpublishes the dead ids and unlinks the
// victims — a straggling reader that already resolved a location keeps
// working off the open file handle (POSIX keeps the inode alive), it
// just can no longer find the id in the map afterwards.
class FileChunkStore : public ChunkStore {
 public:
  struct Options {
    // Soft segment size: OnBlockSealed() rolls once the active segment
    // is at least this big; Put() force-rolls at twice this.
    size_t segment_bytes = 8 << 20;
    // Cache fronting chunk reads. When null the store owns a private
    // cache of BufferCache::kDefaultCapacityBytes; a database passes
    // its unified cache here so raw chunks and index nodes share one
    // budget.
    BufferCache* cache = nullptr;
  };

  // Opens (creating if necessary) the segment directory at `dir`
  // through `env`, replays every segment, and truncates any torn tail
  // of the active one. `env` and `options.cache` (when set) must
  // outlive the store.
  static Status Open(Env* env, const std::string& dir, const Options& options,
                     std::unique_ptr<FileChunkStore>* store);
  static Status Open(Env* env, const std::string& dir,
                     std::unique_ptr<FileChunkStore>* store);
  // Same, on the default POSIX environment.
  static Status Open(const std::string& dir,
                     std::unique_ptr<FileChunkStore>* store);

  ~FileChunkStore() override;

  FileChunkStore(const FileChunkStore&) = delete;
  FileChunkStore& operator=(const FileChunkStore&) = delete;

  // The file name of segment `id` within the store directory.
  static std::string SegmentFileName(uint32_t id);

  // Stores the chunk; a previously unseen chunk is appended to the
  // active segment and pinned in the cache until the log flushes.
  // Append failures are sticky and surface through Sync()/status().
  Hash256 Put(Chunk chunk) override;

  // Resolves the id to its segment location and serves the bytes from
  // the cache or via one positional read (verifying the record CRC and
  // the content hash). See ChunkStore::Get for the lifetime contract.
  Status Get(const Hash256& id,
             std::shared_ptr<const Chunk>* chunk) const override;

  bool Contains(const Hash256& id) const override;

  // Flushes buffered appends and fsyncs; on success every record
  // appended so far survives a crash. Returns the sticky append error
  // if any Put since Open failed to reach the log. The fsync itself
  // runs outside file_mu_ (only the buffer flush holds it), so
  // concurrent Puts append behind the barrier instead of waiting on
  // the disk.
  Status Sync() override;

  // Rolls the active segment if it has reached segment_bytes. The
  // database calls this from the group-commit leader right after a
  // block seals, so segment boundaries coincide with sealed-block
  // boundaries and recovery's chunks-before-journal reasoning carries
  // over segment switches unchanged.
  void OnBlockSealed() override;

  // Collects dead chunks and reclaims their disk space: sealed
  // segments containing at least one dead record are condemned, their
  // live records rewritten into the active segment and fsynced, then —
  // after in-flight reader epochs drain — the dead ids are unpublished
  // and the victim files unlinked. Dead records still in the active
  // segment survive until it seals and a later pass condemns it.
  Status RetainLive(const std::unordered_set<Hash256, Hash256Hasher>& live,
                    uint64_t mark_seq, ChunkGcStats* stats) override;

  // The sticky I/O state: OK until an append fails, that failure
  // afterwards.
  Status status() const;

  // Number of chunk records registered from the segments at open time.
  uint64_t recovered_chunks() const { return recovered_.value(); }

  // Crash-garbage bytes cut from the active segment's tail by Open().
  uint64_t truncated_bytes() const { return truncated_bytes_.value(); }

  // Failed positional reads (chunk.file.read_errors).
  uint64_t read_errors() const { return read_errors_.value(); }

  // Segment files currently on disk (including the active one).
  uint64_t segment_count() const;

  // The cache this store reads through (shared or private).
  BufferCache* cache() const { return cache_; }

  // Base export plus the paged-store accounting: `chunk.file.*`
  // (replay, append, positional-read, read-error and fsync counts) and
  // `chunk.segment.*` (segment count, active-segment fill, rolls).
  void ExportMetrics(MetricsRegistry* registry) const override;

 private:
  // A chunk's location. Copied out under the shard lock and then used
  // without it; the segment table keeps victim segments alive until
  // every location copied before the GC's quiescence point is dead.
  struct Entry {
    uint32_t segment = 0;
    uint32_t length = 0;  // full record length
    uint64_t offset = 0;
    uint32_t stored = 0;      // chunk.stored_size(), for accounting
    uint64_t seq = 0;         // insertion sequence (GC mark comparison)
    uint64_t global_end = 0;  // append-stream offset after this record;
                              // > flushed watermark ⇒ pread can't see it
  };

  // One segment file. `file` opens eagerly at creation/replay and is
  // retried lazily under open_mu if that failed; readers copy the
  // shared_ptr under open_mu and pread outside it.
  struct Segment {
    uint32_t id = 0;
    std::string path;
    uint64_t size = 0;  // valid bytes (exact once sealed)
    std::mutex open_mu;
    std::shared_ptr<RandomAccessFile> file;
  };

  struct MapShard {
    mutable std::mutex mu;
    std::unordered_map<Hash256, Entry, Hash256Hasher> entries;
  };

  FileChunkStore() = default;

  static size_t MapShardOf(const Hash256& id) {
    return id.data()[7] % kMapShards;
  }

  // Replays every segment in `dir_`, registering locations. On return
  // the segment table is populated and *tail_valid is the end of the
  // last intact record of the highest-numbered segment.
  Status Replay(uint64_t* tail_valid);
  Status ReplaySegment(uint32_t segment_id, const std::string& path,
                       bool is_last, uint64_t* valid_offset);

  // Opens (or retries opening) the segment's read handle and returns
  // it; null plus an error status if the open fails.
  Status ReadHandle(const std::shared_ptr<Segment>& segment,
                    std::shared_ptr<RandomAccessFile>* file) const;

  // Reads the record at `entry`, verifies CRC and content hash, and
  // returns the chunk (also inserting it into the cache, unpinned).
  Status ReadChunkAt(const Hash256& id, const Entry& entry,
                     std::shared_ptr<const Chunk>* chunk) const;

  // Pushes buffered appends to the kernel, advances the flushed
  // watermark and releases the pins of now-readable records. Caller
  // holds file_mu_.
  Status FlushLocked() const;

  // Appends an encoded record to the active segment, force-rolling at
  // the hard cap first. On success fills *entry (seq left 0) and pins
  // `chunk` in the cache; on failure poisons the store and leaves the
  // chunk pinned as a resident-only entry. Caller holds file_mu_ via
  // `lock`.
  Status AppendRecordLocked(std::unique_lock<std::mutex>& lock,
                            const std::string& record,
                            const std::shared_ptr<const Chunk>& chunk,
                            Entry* entry);

  // Seals the active segment (flush + fsync + close) and starts its
  // successor. Waits for in-flight SyncFlushed barriers first. Caller
  // holds file_mu_ via `lock`; failures are sticky.
  Status RollSegmentLocked(std::unique_lock<std::mutex>& lock);

  // Publishes `entry` for `id` unless the id is already mapped;
  // updates the base accounting on first publication. Returns true if
  // this call published it.
  bool PublishEntry(const Hash256& id, Entry entry);

  // Flush + fsync of the active log with the in-flight barrier
  // bookkeeping (the body of Sync(), reused by the GC).
  Status FlushAndSync();

  static constexpr size_t kMapShards = 16;
  // Entry.segment for chunks that never reached the log (sticky append
  // failure): they live only as permanently pinned cache entries.
  static constexpr uint32_t kResidentOnly = UINT32_MAX;

  Env* env_ = nullptr;
  std::string dir_;
  size_t segment_bytes_ = 8 << 20;

  BufferCache* cache_ = nullptr;
  std::unique_ptr<BufferCache> owned_cache_;

  MapShard map_shards_[kMapShards];

  // Segment table. seg_mu_ is a leaf lock (no other lock is taken
  // under it); RollSegmentLocked takes it while holding file_mu_.
  mutable std::mutex seg_mu_;
  std::map<uint32_t, std::shared_ptr<Segment>> segments_;

  // Append state. file_mu_ orders appends, flushes and rolls; the
  // fsync of Sync() runs outside it (syncs_in_flight_ keeps a roll
  // from closing the log under an in-flight barrier).
  mutable std::mutex file_mu_;
  mutable std::condition_variable roll_cv_;
  std::unique_ptr<WritableLog> log_;
  uint32_t active_segment_ = 0;
  std::atomic<uint64_t> active_offset_{0};  // written under file_mu_
  mutable Status append_status_;  // sticky: first append failure
  uint64_t syncs_in_flight_ = 0;
  // Records appended but not yet flushed, in order; each holds one
  // cache pin released when the watermark passes its global_end.
  mutable std::deque<std::pair<Hash256, uint64_t>> unflushed_;
  std::atomic<uint64_t> appended_total_{0};          // written under file_mu_
  mutable std::atomic<uint64_t> flushed_total_{0};   // written under file_mu_

  // One GC pass at a time.
  std::mutex sweep_mu_;

  Counter recovered_;        // records registered at Open()
  Counter replayed_bytes_;   // segment bytes consumed by replay
  Counter appended_bytes_;   // bytes appended since Open()
  Counter truncated_bytes_;  // torn-tail bytes discarded by Open()
  mutable Counter reads_;        // positional reads issued
  mutable Counter read_bytes_;   // bytes fetched by positional reads
  mutable Counter read_errors_;  // positional reads that failed
  Counter rolls_;            // segment switches since Open()
  // Segment-log fsyncs: every Sync() barrier, GC rewrite and roll.
  Counter fsyncs_;
};

}  // namespace spitz

#endif  // SPITZ_CHUNK_FILE_CHUNK_STORE_H_
