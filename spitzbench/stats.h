#ifndef SPITZBENCH_STATS_H_
#define SPITZBENCH_STATS_H_

// Exact latency statistics. Every generator thread appends raw samples to
// its own pre-reserved vector; after a phase the vectors are merged and
// sorted, and percentiles are read off by nearest rank. Nothing goes
// through the log2-bucket histograms of common/metrics.h, whose
// percentiles can be off by up to 2x.

#include <algorithm>
#include <cstdint>
#include <vector>

namespace spitz {
namespace bench {

// Percentiles are given in basis points (9900 = p99) so that ranks are
// exact integer arithmetic.
inline size_t NearestRank(size_t n, uint64_t basis_points) {
  const size_t rank = static_cast<size_t>((n * basis_points + 9999) / 10000);
  return rank == 0 ? 1 : rank;
}

// The smallest sample with at least `basis_points` of all samples at or
// below it. `sorted` must be ascending and non-empty.
inline uint64_t Percentile(const std::vector<uint64_t>& sorted,
                           uint64_t basis_points) {
  return sorted[NearestRank(sorted.size(), basis_points) - 1];
}

// A percentile is reported only when at least ten samples lie beyond it;
// with fewer, it is the maximum in disguise.
inline bool PercentileSupported(size_t n, uint64_t basis_points) {
  return n > 0 && n - NearestRank(n, basis_points) >= 10;
}

inline std::vector<uint64_t> MergeSorted(
    const std::vector<const std::vector<uint64_t>*>& parts) {
  std::vector<uint64_t> all;
  size_t total = 0;
  for (const auto* part : parts) total += part->size();
  all.reserve(total);
  for (const auto* part : parts) {
    all.insert(all.end(), part->begin(), part->end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

// Fixed-input check of the helpers above, run by --smoke. Returns false
// (and names the failing case) on any mismatch.
inline bool PercentileSelfCheck(const char** failed) {
  std::vector<uint64_t> hundred;
  for (uint64_t v = 1; v <= 100; v++) hundred.push_back(v);
  struct Case {
    const char* name;
    bool ok;
  } cases[] = {
      {"p50 of 1..100 is 50", Percentile(hundred, 5000) == 50},
      {"p99 of 1..100 is 99", Percentile(hundred, 9900) == 99},
      {"p100 of 1..100 is 100", Percentile(hundred, 10000) == 100},
      {"p1 of 1..100 is 1", Percentile(hundred, 100) == 1},
      {"p50 of {7} is 7", Percentile({7}, 5000) == 7},
      {"p50 of 1..4 is 2", Percentile({1, 2, 3, 4}, 5000) == 2},
      {"p99 needs 10 samples beyond: n=1000 yes",
       PercentileSupported(1000, 9900)},
      {"p99 needs 10 samples beyond: n=999 no",
       !PercentileSupported(999, 9900)},
      {"p50 of 19 samples is unsupported", !PercentileSupported(19, 5000)},
      {"p50 of 20 samples is supported", PercentileSupported(20, 5000)},
  };
  for (const Case& c : cases) {
    if (!c.ok) {
      *failed = c.name;
      return false;
    }
  }
  return true;
}

}  // namespace bench
}  // namespace spitz

#endif  // SPITZBENCH_STATS_H_
