#ifndef SPITZ_CORE_SPITZ_OPTIONS_H_
#define SPITZ_CORE_SPITZ_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "chunk/buffer_cache.h"
#include "common/env.h"
#include "common/status.h"
#include "index/pos_tree.h"
#include "index/siri.h"

namespace spitz {

// The configuration of a SpitzDb (core/spitz_db.h).
struct SpitzOptions {
  SpitzOptions() {}
  // Which SIRI instance backs the unified index (paper 3.1/6.1). The
  // POS-tree is the default; MPT and MBT are plug-compatible but do not
  // support ordered scans, so ReadRange and Scan return NotSupported.
  SiriBackend index_backend = SiriBackend::kPosTree;
  // Ledger entries per sealed block (paper 6.1: "records are collected
  // into blocks and appended to a ledger").
  size_t block_size = 64;
  // Deferred-verification batch for the auditor (0 = online; paper 5.3
  // uses deferred).
  size_t audit_batch_size = 64;
  // Worker threads draining the deferred-verification queue (0 = one
  // per hardware thread). Ignored in online mode.
  size_t audit_workers = 0;
  // Byte budget for the unified buffer cache (DESIGN.md section 12):
  // one budget shared by raw chunk bytes (the paged durable store reads
  // through it) and decoded POS-tree nodes. Must be positive — with no
  // cache every traversal re-reads and re-hashes each node it visits;
  // size it small instead of disabling it.
  size_t buffer_cache_bytes = BufferCache::kDefaultCapacityBytes;
  // Target size of one chunk segment file (durable mode). The active
  // segment rolls at the first sealed-block boundary past this size,
  // and at twice it regardless. Between 1 and
  // FileChunkStore::kMaxSegmentBytes (2 GiB - 1): the chunk index keeps
  // a record's offset in 32 bits.
  size_t chunk_segment_bytes = 8 << 20;
  // How many of the most recent sealed blocks' index roots the version
  // GC (gc()->Collect) keeps readable, in addition to the live root.
  // Chunks reachable only from older versions are reclaimed. Must be
  // positive — the current version is always retained.
  size_t retain_versions = 8;
  // When positive, a background thread runs gc()->Collect() every this
  // many sealed blocks. 0 (default) leaves GC entirely manual.
  size_t gc_interval_blocks = 0;
  // When non-empty, the database is durable: chunks and sealed ledger
  // blocks are persisted under this directory and recovered by Open().
  // Durability is at block boundaries — call FlushBlock() to seal the
  // most recent writes and SyncStorage() to make them crash-safe.
  std::string data_dir;
  // File-system seam for the durable mode (DESIGN.md section 9):
  // nullptr means the default POSIX environment. Tests substitute a
  // FaultInjectionEnv to script write/sync failures and crashes. Must
  // outlive the database.
  Env* env = nullptr;
  PosTreeOptions index_options;
  // Bucket count for the kMerkleBucketTree backend (ignored otherwise).
  uint32_t mbt_bucket_count = 256;
  // Durable-put mode: every write behaves as if WriteOptions::sync were
  // set — the database acknowledges a Put only after its journal blocks
  // are fsync'd. This is how a served deployment (SpitzServer) turns
  // every client Put durable without a wire-protocol change; group
  // commit keeps fsyncs ≪ puts under concurrency. Durable databases
  // only (ignored in-memory).
  bool sync_writes = false;
  // Hot-path instrumentation (latency and proof-size histograms). On by
  // default — the recording cost is a handful of relaxed atomic adds —
  // but can be switched off to measure the overhead itself (the
  // micro_benchmarks Put benchmark compares both settings).
  bool enable_metrics = true;

  // Rejects nonsensical configurations: block_size == 0 (degenerate
  // sealing), bucket_count == 0 for the MBT backend, a zero buffer
  // cache (nothing correctness needs lives there, but every traversal
  // would re-read and re-hash each node it visits) and
  // retain_versions == 0 (the live version cannot be collected).
  // Checked by Open() and by the in-memory constructor (whose write
  // paths then fail with the validation error).
  Status Validate() const;
};

}  // namespace spitz

#endif  // SPITZ_CORE_SPITZ_OPTIONS_H_
