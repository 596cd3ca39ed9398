#ifndef SPITZ_COMMON_CLOCK_H_
#define SPITZ_COMMON_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace spitz {

// Wall-clock microseconds since the unix epoch.
inline uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

// Monotonic nanoseconds; use for measuring durations.
inline uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace spitz

#endif  // SPITZ_COMMON_CLOCK_H_
