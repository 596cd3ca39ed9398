#ifndef SPITZ_CHUNK_EPOCH_H_
#define SPITZ_CHUNK_EPOCH_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>

namespace spitz {

// Epoch-based quiescence for the chunk-store GC (DESIGN.md section 12).
//
// Readers bracket every multi-chunk traversal (a proof build, a scan)
// with a Guard. The collector, after unpublishing dead chunks from the
// resident index, calls WaitForQuiescence(): it snapshots every slot's
// enter counter and waits until each slot's exit counter
// catches up — at which point every traversal that might still hold a
// location into a victim segment has finished, and the segment files can
// be unlinked. Readers that started *after* the snapshot are ignored:
// they can only observe the post-sweep index, which no longer routes any
// id into a victim.
//
// The slots are striped (cache-line sized) so concurrent readers on
// different cores do not bounce one counter pair; a thread picks its
// slot by a cheap thread-local token. Enter/Exit are two relaxed-ish
// atomic increments — negligible next to the traversal they bracket.
class EpochManager {
 public:
  class Guard {
   public:
    Guard() = default;
    Guard(EpochManager* mgr, size_t slot) : mgr_(mgr), slot_(slot) {}
    Guard(Guard&& other) noexcept
        : mgr_(std::exchange(other.mgr_, nullptr)), slot_(other.slot_) {}
    Guard& operator=(Guard&& other) noexcept {
      Release();
      mgr_ = std::exchange(other.mgr_, nullptr);
      slot_ = other.slot_;
      return *this;
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    ~Guard() { Release(); }

   private:
    void Release() {
      if (mgr_ != nullptr) {
        mgr_->slots_[slot_].exits.fetch_add(1, std::memory_order_release);
        mgr_ = nullptr;
      }
    }
    EpochManager* mgr_ = nullptr;
    size_t slot_ = 0;
  };

  EpochManager() = default;
  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  Guard Enter() {
    size_t slot = SlotOfThisThread();
    slots_[slot].enters.fetch_add(1, std::memory_order_acq_rel);
    return Guard(this, slot);
  }

  // Advances the GC epoch (pure accounting; exposed as gc.epoch).
  uint64_t Advance() {
    return epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  // Blocks until every Guard live at the time of the call has been
  // released. Guards taken after the call do not delay it.
  void WaitForQuiescence() const {
    uint64_t snapshot[kSlots];
    for (size_t i = 0; i < kSlots; i++) {
      snapshot[i] = slots_[i].enters.load(std::memory_order_acquire);
    }
    for (size_t i = 0; i < kSlots; i++) {
      while (slots_[i].exits.load(std::memory_order_acquire) < snapshot[i]) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  }

 private:
  static constexpr size_t kSlots = 32;

  struct alignas(64) Slot {
    std::atomic<uint64_t> enters{0};
    std::atomic<uint64_t> exits{0};
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
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace spitz

#endif  // SPITZ_CHUNK_EPOCH_H_
