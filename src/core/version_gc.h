#ifndef SPITZ_CORE_VERSION_GC_H_
#define SPITZ_CORE_VERSION_GC_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "chunk/chunk_store.h"
#include "common/metrics.h"
#include "common/status.h"
#include "crypto/hash.h"
#include "index/siri.h"

namespace spitz {

// The epoch-based version GC of a SpitzDb (DESIGN.md section 12), owned
// by it and reached through SpitzDb::gc(): the pass lock, the mark of
// the retained roots, RetainLive, and the optional background thread
// that runs a pass every `interval_blocks` sealed blocks.
class VersionGc {
 public:
  // Fills *roots with the retained roots — the live root plus the index
  // roots of the last retain_versions sealed blocks — and returns the
  // store's mark sequence (ChunkStore::BeginGc).
  // The owner runs both under its writer lock: every commit after the
  // mark carries a later insertion sequence, so the roots cover
  // everything the pass may collect.
  using ArmFn = std::function<uint64_t(std::vector<Hash256>* roots)>;

  // Starts the background thread when `interval_blocks` > 0. A non-OK
  // `status` — the owner's rejected configuration — is every pass's
  // answer. `registry` (null = no metrics) receives the gc.*
  // instruments. Every pointer must outlive this object.
  VersionGc(ChunkStore* chunks, const SiriIndex* index, ArmFn arm,
            size_t interval_blocks, Status status, MetricsRegistry* registry);
  // Stops and joins the background thread.
  ~VersionGc();

  VersionGc(const VersionGc&) = delete;
  VersionGc& operator=(const VersionGc&) = delete;

  // Reclaims chunks unreachable from the retained versions. The mark
  // phase walks the retained roots outside the writer lock (chunks are
  // immutable); the sweep rewrites still-live records out of condemned
  // segments, waits for in-flight reader epochs, then unpublishes the
  // dead ids and unlinks the victim files. Reads of retained versions —
  // and traversals that began before the sweep — are never disturbed;
  // reads of collected versions begin returning NotFound. Safe to call
  // concurrently with reads, writes and audits; passes themselves
  // serialize. Fills *stats when non-null.
  Status Collect(ChunkGcStats* stats = nullptr);

  // Whether a pass has collected the version `index_root`: waits out an
  // in-flight pass; a version the last sweep kept is not collected, any
  // other is once a chunk it reaches is gone (a pass may keep the root
  // itself as a delta base). Tells a deferred read's failure on a
  // collected version from damage. Call with no read in flight on this
  // thread (a pass waits on read pins while holding the pass lock).
  bool Collected(const Hash256& index_root);

  // Called after every seal with the new block count; wakes the
  // background thread once `interval_blocks` blocks have sealed since
  // its last pass.
  void OnSealed(uint64_t blocks);
  // Called when a bulk load has sealed the first `blocks` blocks. A load
  // replaces no version, so it leaves nothing to collect: the interval
  // count starts at its height.
  void OnLoaded(uint64_t blocks);

 private:
  void ThreadMain();

  ChunkStore* const chunks_;
  const SiriIndex* const index_;
  const ArmFn arm_;
  const size_t interval_blocks_;
  const Status status_;

  // One pass at a time (manual callers and the background thread
  // contend here, never inside the store). Lock order: run_mu_, then
  // the owner's writer lock (inside arm_).
  std::mutex run_mu_;
  // The roots the last pass that reached its sweep kept, whole; none
  // is collected. Guarded by run_mu_.
  bool swept_ = false;
  std::vector<Hash256> kept_;

  // Background-thread wakeup state. wake_mu_ is a leaf lock.
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool stop_ = false;
  uint64_t sealed_height_ = 0;  // latest ledger height seen at a seal
  uint64_t ran_height_ = 0;     // height at the last background pass

  // gc.runs and gc.failures count passes; gc.{dead_chunks,
  // reclaimed_bytes,rewritten_bytes,segments_deleted} read the running
  // sums of every pass's record, and gc.live_chunks the survivor count
  // of the most recent one. totals_mu_ is a leaf lock.
  Counter runs_;
  Counter failures_;
  // gc.mark_latency_ns times each pass's walk of the retained roots,
  // gc.sweep_latency_ns its RetainLive (a failed mark records no sweep).
  Histogram mark_ns_;
  Histogram sweep_ns_;
  mutable std::mutex totals_mu_;
  ChunkGcStats totals_;

  // Last: it runs passes over every member above.
  std::thread thread_;
};

}  // namespace spitz

#endif  // SPITZ_CORE_VERSION_GC_H_
