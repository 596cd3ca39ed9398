#ifndef SPITZ_BENCH_ALLOC_COUNTER_H_
#define SPITZ_BENCH_ALLOC_COUNTER_H_

// Counts the bytes every thread allocates through the global operator
// new while counting is on: the allocation budgets of a test or a
// benchmark. It replaces the global operator new and delete, so include
// it in exactly one translation unit of a test or benchmark binary.
// Under AddressSanitizer or ThreadSanitizer, whose runtimes own
// operator new, it replaces nothing and kEnabled is false.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace spitz {
namespace alloc_counter {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

inline std::atomic<bool> counting{false};
inline std::atomic<uint64_t> bytes{0};

// Bytes allocated while `fn` runs, on every thread.
template <typename Fn>
uint64_t BytesAllocatedBy(Fn&& fn) {
  const uint64_t before = bytes.load();
  counting.store(true);
  fn();
  counting.store(false);
  return bytes.load() - before;
}

inline void* Allocate(std::size_t n, std::size_t align) {
  if (counting.load(std::memory_order_relaxed)) {
    bytes.fetch_add(n, std::memory_order_relaxed);
  }
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n == 0 ? 1 : n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace alloc_counter
}  // namespace spitz

#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)

void* operator new(std::size_t n) {
  return spitz::alloc_counter::Allocate(n, 1);
}
void* operator new[](std::size_t n) {
  return spitz::alloc_counter::Allocate(n, 1);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return spitz::alloc_counter::Allocate(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return spitz::alloc_counter::Allocate(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return spitz::alloc_counter::Allocate(n, 1);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return spitz::alloc_counter::Allocate(n, 1);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif

#endif  // SPITZ_BENCH_ALLOC_COUNTER_H_
