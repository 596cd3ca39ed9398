#ifndef SPITZ_CHUNK_EPOCH_H_
#define SPITZ_CHUNK_EPOCH_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>

namespace spitz {

// Epoch-based quiescence for the chunk-store GC (DESIGN.md section 12),
// in the manner of SRCU.
//
// Readers bracket every multi-chunk traversal (a proof build, a scan)
// with a Guard, and each slot counts its live guards under each parity
// of the epoch. The collector calls WaitForQuiescence() before it
// removes dead chunks: it flips the parity and waits until every
// slot's count under the old parity is zero, so every traversal that
// began before the call, and may be walking a version the pass
// collects, has finished. Guards taken after the flip count under the
// new parity and do not delay it: a read that picks its version after
// pinning picks one the pass kept, since the pass armed before the
// flip. Because a slot counts live guards rather than entries and
// exits, a guard taken after the flip on the same slot (a nested guard
// on one thread, or another thread sharing the slot) cannot stand in
// for one taken before it.
//
// The slots are striped (cache-line sized) so concurrent readers on
// different cores do not bounce one counter; a thread picks its slot by
// a cheap thread-local token. Enter is an atomic add and a load of the
// parity, Release one atomic subtract — negligible next to the
// traversal they bracket.
class EpochManager {
 public:
  class Guard {
   public:
    Guard() = default;
    Guard(Guard&& other) noexcept
        : live_(std::exchange(other.live_, nullptr)) {}
    Guard& operator=(Guard&& other) noexcept {
      Release();
      live_ = std::exchange(other.live_, nullptr);
      return *this;
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    ~Guard() { Release(); }

   private:
    friend class EpochManager;
    explicit Guard(std::atomic<uint64_t>* live) : live_(live) {}
    void Release() {
      if (live_ != nullptr) {
        live_->fetch_sub(1, std::memory_order_release);
        live_ = nullptr;
      }
    }
    std::atomic<uint64_t>* live_ = nullptr;  // the count this guard holds
  };

  EpochManager() = default;
  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  Guard Enter() {
    Slot& slot = slots_[SlotOfThisThread()];
    size_t parity = parity_.load(std::memory_order_seq_cst);
    for (;;) {
      slot.live[parity].fetch_add(1, std::memory_order_seq_cst);
      // A flip between the load and the add may have scanned this slot
      // before the add: count the guard under the new parity instead.
      const size_t now = parity_.load(std::memory_order_seq_cst);
      if (now == parity) return Guard(&slot.live[parity]);
      slot.live[parity].fetch_sub(1, std::memory_order_release);
      parity = now;
    }
  }

  // Blocks until every Guard live at the time of the call has been
  // released. Guards taken after the call do not delay it. Waits are
  // serialized, so a flip never overtakes a wait on the other parity.
  void WaitForQuiescence() {
    std::lock_guard<std::mutex> lock(wait_mu_);
    const size_t old = parity_.load(std::memory_order_relaxed);
    parity_.store(old ^ 1, std::memory_order_seq_cst);
    for (Slot& slot : slots_) {
      while (slot.live[old].load(std::memory_order_seq_cst) != 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  }

 private:
  static constexpr size_t kSlots = 32;

  struct alignas(64) Slot {
    std::atomic<uint64_t> live[2]{};  // live guards under each parity
  };

  static size_t SlotOfThisThread() {
    // A per-thread token assigned round-robin on first use; cheaper and
    // better spread than hashing thread ids.
    static std::atomic<size_t> next{0};
    thread_local size_t slot = next.fetch_add(1, std::memory_order_relaxed) %
                               kSlots;
    return slot;
  }

  Slot slots_[kSlots];
  std::atomic<size_t> parity_{0};
  std::mutex wait_mu_;
};

}  // namespace spitz

#endif  // SPITZ_CHUNK_EPOCH_H_
