#ifndef SPITZ_TXN_TIMESTAMP_ORACLE_H_
#define SPITZ_TXN_TIMESTAMP_ORACLE_H_

#include <atomic>
#include <cstdint>

namespace spitz {

// A centralized timestamp allocation service in the style of Percolator's
// Timestamp Oracle (cited as [41] in the paper). SpitzDb, Table and the
// baseline stamp their commits with one.
class TimestampOracle {
 public:
  explicit TimestampOracle(uint64_t start = 1) : next_(start) {}

  TimestampOracle(const TimestampOracle&) = delete;
  TimestampOracle& operator=(const TimestampOracle&) = delete;

  // Strictly increasing, globally unique.
  uint64_t Allocate() { return next_.fetch_add(1, std::memory_order_relaxed); }

  // Allocates a contiguous batch [first, first + n) and returns first.
  // Batching amortizes contention, the standard mitigation for the
  // oracle bottleneck.
  uint64_t AllocateBatch(uint64_t n) {
    return next_.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Peek() const { return next_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> next_;
};

}  // namespace spitz

#endif  // SPITZ_TXN_TIMESTAMP_ORACLE_H_
