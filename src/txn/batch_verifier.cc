#include "txn/batch_verifier.h"

#include <algorithm>

#include "common/clock.h"

namespace spitz {

namespace {

size_t ResolveWorkers(const DeferredVerifier::Options& options) {
  if (options.batch_size == 0) return 0;  // online mode: no pool
  if (options.num_workers > 0) return options.num_workers;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

size_t ResolveCapacity(const DeferredVerifier::Options& options,
                       size_t workers) {
  if (options.queue_capacity > 0) return options.queue_capacity;
  // Enough headroom that every worker can hold a full batch in flight
  // while another full round waits, but bounded so a stalled verifier
  // exerts backpressure instead of buffering the whole workload.
  return std::max<size_t>(1024, options.batch_size * workers * 4);
}

}  // namespace

DeferredVerifier::DeferredVerifier(Options options)
    : options_(options),
      queue_(ResolveCapacity(options, ResolveWorkers(options))) {
  size_t n = ResolveWorkers(options_);
  workers_.reserve(n);
  for (size_t i = 0; i < n; i++) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

DeferredVerifier::~DeferredVerifier() {
  // Closing the queue lets workers drain everything already accepted and
  // then observe end-of-stream; nothing submitted is dropped.
  queue_.Close();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  // A Flush() racing this destructor may still be between its predicate
  // check and its wait. Taking the flush mutex once after the join
  // orders this destructor after any such waiter's wakeup.
  { std::lock_guard<std::mutex> lock(flush_mu_); }
  flush_cv_.notify_all();
}

Status DeferredVerifier::RunCheck(const Check& check) {
  uint64_t start = MonotonicNanos();
  Status s = check();
  verify_ns_.Record(MonotonicNanos() - start);
  verified_.fetch_add(1, std::memory_order_release);
  if (!s.ok()) failures_.fetch_add(1, std::memory_order_release);
  return s;
}

Status DeferredVerifier::Submit(Check check) {
  // Online verification: the caller waits for the outcome. There is no
  // queue, so only the verification latency is recorded.
  if (options_.batch_size == 0) return RunCheck(check);
  const uint64_t seq = submitted_.fetch_add(1, std::memory_order_acq_rel);
  if (!queue_.Push(Task{std::move(check), MonotonicNanos(), seq})) {
    // Queue already closed (shutdown race): the check was not enqueued,
    // so no worker will run it. Retire its sequence number so Flush
    // barriers do not wait for it.
    {
      std::lock_guard<std::mutex> lock(flush_mu_);
      RetireLocked(seq);
    }
    flush_cv_.notify_all();
    return Status::InvalidArgument("verifier is shut down");
  }
  return Status::OK();
}

void DeferredVerifier::WorkerLoop() {
  std::vector<Task> batch;
  const size_t max_batch = std::max<size_t>(1, options_.batch_size);
  while (queue_.PopBatch(max_batch, &batch)) {
    for (const Task& task : batch) {
      queue_wait_ns_.Record(MonotonicNanos() - task.enqueue_ns);
      RunCheck(task.check);
    }
    // Publish completions under the flush mutex so a flusher's predicate
    // check cannot interleave between the retirement and the notify.
    {
      std::lock_guard<std::mutex> lock(flush_mu_);
      for (const Task& task : batch) RetireLocked(task.seq);
    }
    flush_cv_.notify_all();
    batch.clear();
  }
}

void DeferredVerifier::RetireLocked(uint64_t seq) {
  retired_ahead_.push(seq);
  while (!retired_ahead_.empty() && retired_ahead_.top() == retired_below_) {
    retired_ahead_.pop();
    retired_below_++;
  }
}

void DeferredVerifier::Flush() {
  if (options_.batch_size == 0) return;  // online checks ran inline
  // Exact barrier: wait until every sequence number handed out before
  // this call has retired. The flush mutex synchronizes with workers'
  // completion publishing, so counter reads after Flush() see every
  // check it waited for.
  const uint64_t target = submitted_.load(std::memory_order_acquire);
  std::unique_lock<std::mutex> lock(flush_mu_);
  flush_cv_.wait(lock, [&] { return retired_below_ >= target; });
}

void DeferredVerifier::ExportMetrics(MetricsRegistry* registry) const {
  registry->RegisterCounterFn("txn.verifier.submitted", [this] {
    return submitted_.load(std::memory_order_acquire);
  });
  registry->RegisterCounterFn("txn.verifier.verified", [this] {
    return verified_.load(std::memory_order_acquire);
  });
  registry->RegisterCounterFn("txn.verifier.failures", [this] {
    return failures_.load(std::memory_order_acquire);
  });
  registry->RegisterGaugeFn("txn.verifier.queue_depth",
                            [this] { return queue_.size(); });
  registry->RegisterGaugeFn("txn.verifier.workers",
                            [this] { return workers_.size(); });
  registry->RegisterHistogram("txn.verifier.queue_wait_ns", &queue_wait_ns_);
  registry->RegisterHistogram("txn.verifier.verify_latency_ns", &verify_ns_);
}

}  // namespace spitz
