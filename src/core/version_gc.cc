#include "core/version_gc.h"

#include <algorithm>

namespace spitz {

VersionGc::VersionGc(ChunkStore* chunks, const SiriIndex* index, ArmFn arm,
                     size_t interval_blocks, Status status,
                     MetricsRegistry* registry)
    : chunks_(chunks),
      index_(index),
      arm_(std::move(arm)),
      interval_blocks_(interval_blocks),
      status_(std::move(status)) {
  if (registry != nullptr) {
    registry->RegisterCounter("gc.runs", &runs_);
    registry->RegisterCounter("gc.failures", &failures_);
    registry->RegisterHistogram("gc.mark_latency_ns", &mark_ns_);
    registry->RegisterHistogram("gc.sweep_latency_ns", &sweep_ns_);
    auto total = [this](uint64_t ChunkGcStats::*field) {
      return [this, field] {
        std::lock_guard<std::mutex> lock(totals_mu_);
        return totals_.*field;
      };
    };
    registry->RegisterCounterFn("gc.dead_chunks",
                                total(&ChunkGcStats::dead_chunks));
    registry->RegisterCounterFn("gc.reclaimed_bytes",
                                total(&ChunkGcStats::reclaimed_bytes));
    registry->RegisterCounterFn("gc.rewritten_bytes",
                                total(&ChunkGcStats::rewritten_bytes));
    registry->RegisterCounterFn("gc.segments_deleted",
                                total(&ChunkGcStats::segments_deleted));
    registry->RegisterGaugeFn("gc.live_chunks",
                              total(&ChunkGcStats::live_chunks));
  }
  if (interval_blocks_ > 0) thread_ = std::thread(&VersionGc::ThreadMain, this);
}

VersionGc::~VersionGc() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  thread_.join();
}

void VersionGc::ThreadMain() {
  std::unique_lock<std::mutex> lock(wake_mu_);
  for (;;) {
    wake_cv_.wait(lock, [&] {
      return stop_ || sealed_height_ - ran_height_ >= interval_blocks_;
    });
    if (stop_) return;
    ran_height_ = sealed_height_;
    lock.unlock();
    // Failures already land in gc.failures; a background pass has no
    // caller to hand the status to.
    Collect(nullptr);
    lock.lock();
  }
}

void VersionGc::OnSealed(uint64_t blocks) {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    if (blocks > sealed_height_) sealed_height_ = blocks;
  }
  wake_cv_.notify_one();
}

void VersionGc::OnLoaded(uint64_t blocks) {
  std::lock_guard<std::mutex> lock(wake_mu_);
  sealed_height_ = std::max(sealed_height_, blocks);
  ran_height_ = sealed_height_;
}

bool VersionGc::Collected(const Hash256& index_root) {
  if (index_root.IsZero()) return false;
  // No pass erases while the version is walked.
  std::lock_guard<std::mutex> lock(run_mu_);
  // A kept version lost no chunk to a pass, so a failure on it is
  // damage.
  if (!swept_ ||
      std::find(kept_.begin(), kept_.end(), index_root) != kept_.end()) {
    return false;
  }
  // A pass can collect a version and keep its root, or another of its
  // nodes: a chunk named as a delta base, or hit by a dedup, while the
  // pass runs survives without the chunks it references. So a version
  // the pass did not keep is collected once any chunk it reaches is
  // gone.
  std::unordered_set<Hash256, Hash256Hasher> reachable;
  Status s = index_->CollectChunks(index_root, &reachable);
  if (s.IsNotFound()) return true;
  if (!s.ok()) return false;  // damage, not collection
  for (const Hash256& id : reachable) {
    if (!chunks_->Contains(id)) return true;
  }
  return false;
}

Status VersionGc::Collect(ChunkGcStats* stats_out) {
  if (!status_.ok()) return status_;
  std::lock_guard<std::mutex> run_lock(run_mu_);
  std::vector<Hash256> roots;
  const uint64_t mark_seq = arm_(&roots);
  // Mark outside the writer lock — the roots are immutable versions, so
  // the walk never races a commit. The epoch pin keeps a concurrent
  // (second) collector from sweeping mid-walk.
  std::unordered_set<Hash256, Hash256Hasher> live;
  {
    ScopedTimer timer(&mark_ns_);
    auto pin = chunks_->PinReads();
    for (const Hash256& root : roots) {
      Status s = index_->CollectChunks(root, &live);
      if (!s.ok()) {
        failures_.Increment();
        return s;
      }
    }
  }
  ChunkGcStats stats;
  Status s;
  {
    ScopedTimer timer(&sweep_ns_);
    s = chunks_->RetainLive(live, mark_seq, &stats);
  }
  // Even a failed sweep may have erased what these roots do not reach.
  swept_ = true;
  kept_ = std::move(roots);
  if (!s.ok()) {
    failures_.Increment();
    return s;
  }
  {
    std::lock_guard<std::mutex> lock(totals_mu_);
    totals_.live_chunks = stats.live_chunks;
    totals_.dead_chunks += stats.dead_chunks;
    totals_.reclaimed_bytes += stats.reclaimed_bytes;
    totals_.rewritten_bytes += stats.rewritten_bytes;
    totals_.segments_deleted += stats.segments_deleted;
  }
  runs_.Increment();
  if (stats_out != nullptr) *stats_out = stats;
  return Status::OK();
}

}  // namespace spitz
