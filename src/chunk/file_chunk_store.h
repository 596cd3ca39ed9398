#ifndef SPITZ_CHUNK_FILE_CHUNK_STORE_H_
#define SPITZ_CHUNK_FILE_CHUNK_STORE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "chunk/buffer_cache.h"
#include "chunk/chunk_index.h"
#include "chunk/chunk_record.h"
#include "chunk/chunk_store.h"
#include "common/env.h"

namespace spitz {

// The paged, durable chunk store (DESIGN.md section 12): a directory of
// fixed-size segment files, each an append-only log of chunk records,
// fronted by a resident index that holds only locations instead of the
// chunk bytes themselves: one 56-byte record per chunk (id, segment,
// offset, length, chain depth, insertion sequence and, for a delta, a
// 4-byte reference to its base's record) in a ChunkIndex per shard.
// Reads go through the unified BufferCache; a miss costs one
// positional read (pread) against the owning segment plus a CRC and
// content-hash check, so the store serves datasets far larger than RAM
// with memory bounded by the index, ~64 B per stored chunk with its
// table, and the cache budget.
//
// A record (chunk/chunk_record.h) holds a chunk in full or as a delta
// on the payload of a base. Put writes a delta when the caller names
// the chunk it replaces (a rewritten POS node) and the delta is the
// shorter record. Its base is the named chunk while that chunk's chain
// of deltas is shorter than kMaxChainDepth; at the cap it is the full
// record the chain starts from (a rebase), so a node is written in full
// again only once its changes since that record are as large as it is.
// A cache miss on a delta reads its chain of records down to a full one
// (or to a verified base in the cache), caching no base, and serves the
// rebuilt chunk only once it hashes to the id, as for a full record.
//
// Replay walks every segment in numeric order and registers locations:
// a full record under the hash of its bytes, a delta under the id
// stored in it. Of two copies of one id it keeps the later, which is
// the full one whenever a GC pass wrote the second copy (a crash cut
// the pass between its rewrites and its unlinks); a segment left
// holding a delta copy no entry points at is condemned, so the next GC
// pass deletes it. Put publishes under the append lock, so racing Puts
// of one chunk append it once. Open fails with Corruption when a
// registered delta's base is absent. A record that is *incomplete* in
// the highest-numbered segment is a torn tail from a crash — replay
// stops there and Open() truncates back to the last valid record. An
// incomplete record in any *sealed* segment, or a
// complete record with a bad checksum anywhere, is Corruption: sealed
// segments are fsynced before the store moves past them, so nothing
// short of bit rot explains damage there. Stores written before delta
// records existed open unchanged; a store holding deltas cannot be read
// by a binary that predates them.
//
// Durability contract: Put() appends to the active segment (buffered);
// only Sync() makes appended records crash-safe. Until the log flushes,
// a record's bytes are invisible to pread, so the store holds every
// chunk whose record is unflushed (a Put's or a GC rewrite's) in its
// own map and serves reads of those records from it: a read never
// flushes the log. A flush clears the map, and the log flushes at the
// latest once the map holds kMaxHeldBytes. A failed or short append or
// flush poisons the store with a sticky I/O error; the map then stays
// for the life of the process, and every chunk put afterwards joins it
// without reaching the log, so all of them remain readable in-process.
// The cache holds nothing a read needs: a Put that names a base (a
// rewritten node, which the next operation reads) inserts its chunk,
// any other put writes around it.
//
// Segment lifecycle: the active segment rolls once it crosses
// segment_bytes — normally right after a sealed-block boundary (the
// database calls OnBlockSealed() so switches line up with commit
// durability), with a 2× hard cap as the standalone fallback. A roll
// fsyncs the outgoing segment before creating its successor, which is
// what lets replay demand sealed segments be intact. A GC pass
// (RetainLive) rolls a non-empty active segment, so that every dead
// record sits in a sealed one, and lets PlanSegmentGc
// (chunk/segment_gc.h) pick the victim segments and the records to
// rewrite whole from one snapshot of the index. It rewrites and fsyncs
// them, waits for in-flight reader epochs to drain, unpublishes the
// dead ids and unlinks the victims, which a synced manifest names
// first so that Open finishes the unlinks a crash cut short; a victim
// whose unlink fails stays condemned for the next pass. A straggling
// reader that resolved a location keeps working off the open file
// handle (POSIX keeps the inode alive).
class FileChunkStore : public ChunkStore {
 public:
  struct Options {
    // Soft segment size: OnBlockSealed() rolls once the active segment
    // is at least this big; Put() force-rolls at twice this. Between 1
    // and kMaxSegmentBytes.
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
  // outlive the store. InvalidArgument when options.segment_bytes is 0
  // or above kMaxSegmentBytes.
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

  // Largest segment_bytes: a record starts below the 2x hard cap, and
  // the index keeps a record's offset, and the end of the flushed
  // bytes, in 32 bits.
  static constexpr size_t kMaxSegmentBytes = (size_t{1} << 31) - 1;

  // The file name of segment `id` within the store directory.
  static std::string SegmentFileName(uint32_t id);

  // Longest chain of delta records a chunk may sit on, so a cache miss
  // reads at most this many bases: a base whose own chain is this deep
  // gets its successor written as a delta on the chain's full record
  // (depth 1), or in full when that delta is not the shorter record.
  static constexpr uint8_t kMaxChainDepth = 8;

  // Stores the chunk; a previously unseen chunk is appended to the
  // active segment (as a delta on `base`, or at the cap on the full
  // record its chain starts from, when that is shorter; see the record
  // format above) and held until the log flushes. With a `base`
  // it is also cached. Append failures are sticky and surface through
  // Sync()/status().
  Hash256 Put(Chunk chunk, const Chunk* base = nullptr) override;

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

  // Collects dead chunks and reclaims their disk space (see the class
  // comment). Records appended during the pass wait for the next one.
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
  // (replay, append, positional-read, read-error, fsync, delta-record,
  // chain-read, rebase and rebase-read counts; the index's entries and
  // heap bytes) and `chunk.segment.*` (segment count, active-segment
  // fill, rolls).
  void ExportMetrics(MetricsRegistry* registry) const override;

 private:
  // A chunk's location: its record in the shard's ChunkIndex, copied
  // out under the shard lock and then used without it; the segment
  // table keeps victim segments alive until every location copied
  // before the GC's quiescence point is dead. A delta's `base` is a
  // reference (RefOf) to its base's slot, which stays the base's while
  // the delta is stored: the GC erases a base only once every delta on
  // it is gone or flattened.
  using Entry = ChunkIndex::Record;

  // One segment file. `file` opens eagerly at creation/replay and is
  // retried lazily under open_mu if that failed; readers copy the
  // shared_ptr under open_mu and pread outside it.
  struct Segment {
    uint32_t id = 0;
    std::string path;
    uint64_t size = 0;  // valid bytes (exact once sealed)
    // Set when the first GC pass after this segment seals must delete
    // it, whether or not a published record in it is dead: it holds a
    // delta copy no entry points at, or a pass unpublished its dead
    // records and failed before unlinking it. Guarded by seg_mu_.
    bool condemned = false;
    std::mutex open_mu;
    std::shared_ptr<RandomAccessFile> file;
  };

  struct MapShard {
    mutable std::mutex mu;
    ChunkIndex index;
  };

  FileChunkStore() = default;

  static size_t MapShardOf(const Hash256& id) {
    return id.data()[7] % kMapShards;
  }

  // A reference to a record: its shard and its slot there. A delta
  // names its base by one.
  static uint32_t RefOf(size_t shard, uint32_t slot) {
    return static_cast<uint32_t>(shard) << kSlotBits | slot;
  }
  const MapShard& ShardOfRef(uint32_t ref) const {
    return map_shards_[ref >> kSlotBits];
  }
  MapShard& ShardOfRef(uint32_t ref) { return map_shards_[ref >> kSlotBits]; }
  static uint32_t SlotOfRef(uint32_t ref) {
    return ref & ((uint32_t{1} << kSlotBits) - 1);
  }

  // The stored bytes a record accounts for: a delta record's length, a
  // full record's chunk.stored_size() (its payload and type byte).
  static uint32_t StoredBytes(const Entry& entry);

  // Replays every segment in `dir_`, registering locations, then
  // resolves every delta's chain. On return the segment table is
  // populated and *tail_valid is the end of the last intact record of
  // the highest-numbered segment.
  Status Replay(uint64_t* tail_valid);
  // A replayed delta's `base` indexes *bases, which holds its base id
  // until ResolveChains.
  Status ReplaySegment(uint32_t segment_id, const std::string& path,
                       bool is_last, std::vector<Hash256>* bases,
                       uint64_t* valid_offset);
  // Registers one replayed record. Of two copies of one id the later
  // wins (Supersede): it is the one the entry pointed at when the store
  // closed (a GC pass's full rewrite, a flattened delta, a chunk Put
  // again after its dead copy was unpublished).
  void ReplayPublish(Entry entry);
  // Points *published at `entry`, a later copy of its chunk, keeping
  // the insertion sequence. Returns the segment of a superseded delta
  // copy, which that copy condemns, else kResidentOnly. Caller holds
  // the shard lock.
  uint32_t Supersede(Entry* published, Entry entry);
  // Points every replayed delta at its base's slot and sets its depth;
  // Corruption when a base is absent or a chain loops.
  Status ResolveChains(const std::vector<Hash256>& bases);

  // Unlinks the segments a GC manifest names (a pass a crash cut short)
  // and removes the manifest. Called by Open before replay.
  Status FinishInterruptedGc();
  // Writes and syncs the manifest naming `victims`.
  Status WriteGcManifest(const std::set<uint32_t>& victims);

  // Marks segment `id` condemned (see Segment::condemned); no-op for
  // an id not in the table (kResidentOnly).
  void CondemnSegment(uint32_t id);

  // Opens (or retries opening) the segment's read handle and returns
  // it through `file`, if given; an error status if the open fails.
  Status ReadHandle(const std::shared_ptr<Segment>& segment,
                    std::shared_ptr<RandomAccessFile>* file = nullptr) const;

  // Copies out `id`'s entry. When its record is still unflushed, *hit
  // holds the chunk from the unflushed map instead; otherwise the
  // record is visible to pread.
  Status Locate(const Hash256& id, Entry* entry,
                std::shared_ptr<const Chunk>* hit) const;

  // A run of one segment's settled bytes (below Segment::size) that a
  // GC pass read at once; it serves every record it covers.
  struct ReadWindow {
    uint32_t segment = 0;
    uint64_t offset = 0;
    std::string bytes;
  };

  // The cache, else Locate and the verifying read of ReadChunkAt. A
  // client's read (`gc_window` null) goes into the cache; the GC's
  // reads do not, and read settled records through *gc_window.
  Status Load(const Hash256& id, ReadWindow* gc_window,
              std::shared_ptr<const Chunk>* chunk) const;

  // Under the shard lock of `id`: true (counting a dedup hit and
  // renewing the entry's sequence, so a marking GC pass keeps it) when
  // `id` is stored.
  bool Dedup(const Hash256& id);

  // Reads and CRC-checks the record at `entry` into *buf; *record views
  // it. With a `window`, a record in the segment's settled bytes comes
  // from the window, which is refilled from the record on when it does
  // not cover it.
  Status ReadRecord(const Entry& entry, std::string* buf,
                    ChunkRecord* record, ReadWindow* window = nullptr) const;

  // Reads the record at `entry` and rebuilds the chunk (walking a
  // delta's chain), verifies its content hash, and returns it; inserts
  // it into the cache when `gc_window` is null (see Load).
  Status ReadChunkAt(const Hash256& id, const Entry& entry,
                     ReadWindow* gc_window,
                     std::shared_ptr<const Chunk>* chunk) const;

  // The payload of `id` as a delta base: from the cache (verified) or
  // rebuilt from its chain of records, unverified and not cached.
  // `hops` counts the bases read so far, to refuse a looping chain.
  Status BasePayload(const Hash256& id, size_t hops,
                     std::string* payload) const;

  // Copies out `id`'s entry when its record reached the log (a delta
  // base must have).
  bool OnDisk(const Hash256& id, Entry* entry) const;
  // Copies out the record `ref` names (a free slot has length 0).
  Entry At(uint32_t ref) const;

  // True when the record at `entry` is visible to pread: it lies in a
  // sealed segment (a roll flushes before it seals) or below the active
  // segment's flushed offset.
  bool Flushed(const Entry& entry) const;

  // The chunk of the full record `id`'s chain of deltas starts from,
  // found by walking the base references: from the cache, the
  // unflushed map or one verified record read (chunk.file.rebase_reads),
  // not cached. Null when a link or the record is gone or does not
  // check out.
  std::shared_ptr<const Chunk> ChainStart(const Hash256& id) const;

  // Encodes `chunk` as a delta record into *record when the delta is
  // the shorter record: on `base` while its chain is below the cap, at
  // the cap on the full record that chain starts from (ChainStart).
  // Fills entry->base and depth, and returns true when it rebased.
  // Leaves *record empty otherwise.
  bool EncodeDelta(const Chunk& chunk, const Chunk& base,
                   std::string* record, Entry* entry);

  // Pushes buffered appends to the kernel, advances flushed_ and clears
  // the unflushed map; a failure is sticky and keeps the map. Caller
  // holds file_mu_.
  Status FlushLocked();

  // Appends an encoded record of `chunk` to the active segment, force-
  // rolling at the hard cap first, and holds `chunk` in the unflushed
  // map, flushing once the map reaches kMaxHeldBytes. On success fills
  // entry->segment, offset and length; on failure poisons the store and
  // makes *entry resident-only. Caller holds file_mu_ via `lock`.
  Status AppendRecordLocked(std::unique_lock<std::mutex>& lock,
                            const std::string& record,
                            std::shared_ptr<const Chunk> chunk, Entry* entry);

  // Rewrites the record `ref` names as a full record through the
  // verifying read (via `window`), without caching it, keeping its
  // insertion sequence. A superseded delta copy in one of `condemns`
  // (the GC plan's flattened deltas) condemns its segment.
  Status RewriteFull(uint32_t ref, const std::set<uint32_t>& condemns,
                     ReadWindow* window, uint64_t* rewritten_bytes);

  // Seals the active segment (flush + fsync + close) and starts its
  // successor. Waits for in-flight SyncFlushed barriers first. Caller
  // holds file_mu_ via `lock`; failures are sticky.
  Status RollSegmentLocked(std::unique_lock<std::mutex>& lock);

  // Publishes `entry`, whose id is not mapped, and updates the base
  // accounting. Caller holds file_mu_.
  void PublishEntry(Entry entry);

  // The sum of `measure` over the shards' indexes.
  uint64_t IndexTotal(size_t (ChunkIndex::*measure)() const) const;

  // Flush + fsync of the active log with the in-flight barrier
  // bookkeeping (the body of Sync(), reused by the GC).
  Status FlushAndSync();

  static constexpr size_t kMapShards = 16;
  // A reference's low bits hold the slot, the high 4 the shard: 2^28
  // records a shard, far past what a node's RAM holds.
  static constexpr int kSlotBits = 28;
  // Chunk bytes the unflushed map holds before an append flushes.
  static constexpr size_t kMaxHeldBytes = 1 << 20;
  // Bytes one ReadWindow read fetches (a GC pass reads its movers so).
  static constexpr size_t kReadWindowBytes = 1 << 20;
  // Entry.segment for chunks that never reached the log (sticky append
  // failure): they live only in the unflushed map.
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
  // The active segment's id (high 32 bits) and the bytes of it the log
  // has flushed (low 32): every record below is visible to pread.
  // Written under file_mu_.
  std::atomic<uint64_t> flushed_{0};
  Status append_status_;  // sticky: first append failure
  uint64_t syncs_in_flight_ = 0;
  // The chunks of records appended since the last flush (and, once the
  // store is poisoned, of every record after it), served to reads that
  // pread cannot. Guarded by file_mu_.
  std::unordered_map<Hash256, std::shared_ptr<const Chunk>, Hash256Hasher>
      unflushed_;
  size_t unflushed_bytes_ = 0;

  // One GC pass at a time.
  std::mutex sweep_mu_;

  Counter recovered_;        // records registered at Open()
  Counter replayed_bytes_;   // segment bytes consumed by replay
  Counter appended_bytes_;   // bytes appended since Open()
  Counter truncated_bytes_;  // torn-tail bytes discarded by Open()
  mutable Counter reads_;        // positional reads issued
  mutable Counter read_bytes_;   // bytes fetched by positional reads
  mutable Counter read_errors_;  // positional reads that failed
  Counter delta_records_;    // delta records appended since Open()
  Counter delta_bytes_;      // bytes appended as delta records
  mutable Counter chain_reads_;  // base records read to rebuild a delta
  Counter delta_rebases_;    // deltas written on their chain's full record
  mutable Counter rebase_reads_;  // full records a rebase read from segments
  Counter rolls_;            // segment switches since Open()
  // Segment-log fsyncs: every Sync() barrier, GC rewrite and roll.
  Counter fsyncs_;
};

}  // namespace spitz

#endif  // SPITZ_CHUNK_FILE_CHUNK_STORE_H_
