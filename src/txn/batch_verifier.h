#ifndef SPITZ_TXN_BATCH_VERIFIER_H_
#define SPITZ_TXN_BATCH_VERIFIER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/queue.h"
#include "common/status.h"

namespace spitz {

// The deferred verification scheme of paper section 5.3: "to improve
// verification throughput, we use a deferred scheme, which means the
// transactions are verified asynchronously in batch."
//
// Checks (arbitrary Status-returning closures — typically proof
// re-computations) are queued and executed by a pool of background
// workers draining a bounded MPMC queue in batches. In online mode
// (batch_size == 0) Submit runs the check synchronously, modelling
// commit-after-verification; the ablation_verification benchmark
// compares the two.
//
// Concurrency contract:
//  * Submit is safe from any number of producer threads. When the
//    pending queue is full, Submit blocks (backpressure) rather than
//    letting an unbounded verification backlog accumulate behind fast
//    writers.
//  * Flush() is an exact barrier: every check submitted (from any
//    thread) before the Flush call has executed by the time it returns.
//    Checks submitted concurrently with the Flush may or may not be
//    covered.
//  * Counter coherence: verified_count(), failure_count() and failed()
//    are monotone atomics readable from any thread at any time. A
//    Flush() additionally establishes a happens-before edge with every
//    check it waited for, so counters read after a Flush() reflect at
//    least all checks submitted before it (acquire/release ordering plus
//    the flush mutex).
//  * Shutdown: the destructor closes the queue, drains every check that
//    was accepted, and joins the workers — nothing submitted is ever
//    dropped. A Flush() that races destruction-begin is safe: workers
//    publish completions before exiting, and the destructor takes the
//    flush mutex after the join so no waiter can miss the final wakeup.
//    (As with any object, calls after the destructor *returns* are
//    undefined.)
class DeferredVerifier {
 public:
  struct Options {
    Options() {}
    explicit Options(size_t n) : batch_size(n) {}
    Options(size_t n, size_t workers) : batch_size(n), num_workers(workers) {}
    // Maximum checks a worker drains per queue acquisition.
    // 0 = online (synchronous) verification, no workers.
    size_t batch_size = 64;
    // Worker pool size in deferred mode. 0 = one per hardware thread.
    size_t num_workers = 0;
    // Pending-check capacity before Submit blocks. 0 = derived from
    // batch_size and the worker count.
    size_t queue_capacity = 0;
  };

  using Check = std::function<Status()>;

  explicit DeferredVerifier(Options options = Options());
  ~DeferredVerifier();

  DeferredVerifier(const DeferredVerifier&) = delete;
  DeferredVerifier& operator=(const DeferredVerifier&) = delete;

  // Queues a check (deferred mode) or runs it inline (online mode).
  // In online mode the check's status is returned directly; in deferred
  // mode OK is returned immediately and failures are counted (visible
  // via failure_count() and failed()).
  Status Submit(Check check);

  // Blocks until every check submitted before this call has executed.
  void Flush();

  uint64_t verified_count() const {
    return verified_.load(std::memory_order_acquire);
  }
  uint64_t failure_count() const {
    return failures_.load(std::memory_order_acquire);
  }

  // True once any deferred check has failed — the timely-detection
  // signal a client polls.
  bool failed() const {
    return failures_.load(std::memory_order_acquire) > 0;
  }

  size_t worker_count() const { return workers_.size(); }
  size_t queue_depth() const { return queue_.size(); }

  // Registers the verification pipeline's counters, queue-wait and
  // verify-latency histograms under `txn.verifier.*`. The verifier must
  // outlive the registry's use.
  void ExportMetrics(MetricsRegistry* registry) const;

 private:
  // A queued check stamped with its enqueue time, so the worker can
  // attribute latency to queueing vs. verification separately (the
  // deferred scheme's lag is the queue wait).
  struct Task {
    Check check;
    uint64_t enqueue_ns = 0;
    uint64_t seq = 0;  // submission order
  };

  void WorkerLoop();
  // Runs one check and records its latency and outcome.
  Status RunCheck(const Check& check);
  // Marks submission `seq` finished and advances retired_below_.
  // Caller holds flush_mu_.
  void RetireLocked(uint64_t seq);

  const Options options_;
  BoundedQueue<Task> queue_;
  // Hands out submission sequence numbers; Flush waits until every
  // sequence below the value it observed has retired.
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> verified_{0};
  std::atomic<uint64_t> failures_{0};
  Histogram queue_wait_ns_;
  Histogram verify_ns_;
  mutable std::mutex flush_mu_;
  std::condition_variable flush_cv_;
  // Guarded by flush_mu_. Every sequence below retired_below_ has run
  // (or was refused at shutdown); retired_ahead_ holds those that
  // finished out of order above it. Workers finish batches in any
  // order, so a bare completion count could reach a flusher's target
  // while one of its own checks is still running.
  uint64_t retired_below_ = 0;
  std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<>>
      retired_ahead_;
  std::vector<std::thread> workers_;
};

}  // namespace spitz

#endif  // SPITZ_TXN_BATCH_VERIFIER_H_
