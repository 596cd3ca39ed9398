#include "common/fork_join.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <system_error>
#include <thread>
#include <vector>

namespace spitz {

void ParallelFor(size_t n, size_t grain,
                 const std::function<void(size_t begin, size_t end)>& fn) {
  grain = std::max<size_t>(grain, 1);
  const size_t pieces = n / grain + (n % grain != 0 ? 1 : 0);
  // Only two pieces or more ask for the core count, a read of /sys.
  const size_t cores = pieces > 1 ? std::thread::hardware_concurrency() : 1;
  const size_t threads = std::min<size_t>(pieces, std::max<size_t>(1, cores));
  if (threads <= 1) {
    if (n > 0) fn(0, n);
    return;
  }
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t begin = next.fetch_add(grain); begin < n;
         begin = next.fetch_add(grain)) {
      fn(begin, std::min(n, begin + grain));
    }
  };
  std::vector<std::thread> helpers;
  helpers.reserve(threads - 1);
  for (size_t i = 1; i < threads; i++) {
    try {
      helpers.emplace_back(work);
    } catch (const std::system_error&) {
      break;  // no thread to spare: the ones running take the rest
    }
  }
  work();
  for (std::thread& helper : helpers) helper.join();
}

void RunBeside(const std::function<void()>& beside,
               const std::function<void()>& fn) {
  std::optional<std::thread> helper;
  try {
    helper.emplace(beside);
  } catch (const std::system_error&) {
    // No thread to spare: `beside` runs after `fn` instead.
  }
  fn();
  if (helper.has_value()) {
    helper->join();
  } else {
    beside();
  }
}

}  // namespace spitz
