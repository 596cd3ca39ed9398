#ifndef SPITZ_COMMON_QUEUE_H_
#define SPITZ_COMMON_QUEUE_H_

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace spitz {

// A bounded multi-producer multi-consumer blocking queue. Models the
// global message queue that Spitz processor nodes consume requests from
// (paper section 5), and the RPC channels in the non-intrusive design.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity = 1024) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  // Blocks while the queue is full. Returns false if the queue has been
  // closed and the item was not enqueued.
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [&] { return items_.size() < capacity_ || closed_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  // Non-blocking push; returns false if full or closed.
  bool TryPush(T item) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  // Blocks until an item is available or the queue is closed and drained.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return item;
  }

  // Blocks until at least one item is available (or the queue is closed),
  // then moves up to `max_items` into *out in FIFO order. Returns false
  // only when the queue is closed and fully drained — the consumer-pool
  // exit signal. Draining several items per lock acquisition is what
  // lets a pool of consumers amortize synchronization under load.
  bool PopBatch(size_t max_items, std::vector<T>* out) {
    out->clear();
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return false;
    size_t n = std::min(max_items, items_.size());
    out->reserve(n);
    for (size_t i = 0; i < n; i++) {
      out->push_back(std::move(items_.front()));
      items_.pop_front();
    }
    // Several producer slots may have opened up at once.
    if (n > 1) {
      not_full_.notify_all();
    } else {
      not_full_.notify_one();
    }
    return true;
  }

  // After Close(), producers fail and consumers drain remaining items
  // then receive nullopt.
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace spitz

#endif  // SPITZ_COMMON_QUEUE_H_
