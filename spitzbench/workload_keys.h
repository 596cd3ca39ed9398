#ifndef SPITZBENCH_WORKLOAD_KEYS_H_
#define SPITZBENCH_WORKLOAD_KEYS_H_

// Key choosers and the record-key format of the benchmark's workloads.
// The zipfian chooser, the scramble and the key format repeat the ones in
// bench/ycsb_driver.cc, so a key index names the same record in both.
// That driver keeps them inside its own .cc file, and this package builds
// on its own from ../src, so it cannot include them from there; once they
// move into a header under bench/, this file should include that header.

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/random.h"

namespace spitz {
namespace bench {

// The YCSB zipfian generator (Gray et al.'s rejection-free form): draws
// ranks in [0, items) with P(rank) proportional to 1/(rank+1)^theta.
class ZipfianChooser {
 public:
  explicit ZipfianChooser(uint64_t items, double theta = 0.99)
      : items_(items), theta_(theta) {
    zetan_ = Zeta(items_);
    const double zeta2 = Zeta(2);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(items_), 1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
  }

  uint64_t Next(Random* rng) const {
    const double u = rng->NextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const uint64_t rank = static_cast<uint64_t>(
        static_cast<double>(items_) *
        std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return rank < items_ ? rank : items_ - 1;
  }

 private:
  double Zeta(uint64_t n) const {
    double sum = 0;
    for (uint64_t i = 1; i <= n; i++) {
      sum += 1.0 / std::pow(static_cast<double>(i), theta_);
    }
    return sum;
  }

  uint64_t items_;
  double theta_;
  double zetan_;
  double alpha_;
  double eta_;
};

// SplitMix64 finalizer: scatters zipfian ranks across the key space so the
// hot set is not one dense prefix (and, on a cluster, not one shard).
inline uint64_t Scramble(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Fixed-width, so key order is index order and a range scan starting at
// RecordKey(i) returns RecordKey(i), RecordKey(i + 1), ...
inline std::string RecordKey(uint64_t index) {
  char buf[32];
  snprintf(buf, sizeof(buf), "user%012" PRIu64, index);
  return std::string(buf);
}

// A key index in [0, items): scrambled zipfian (theta 0.99) or uniform.
class KeyChooser {
 public:
  KeyChooser(uint64_t items, bool zipfian)
      : items_(items), zipfian_(zipfian), zipf_(items) {}

  uint64_t Next(Random* rng) const {
    if (!zipfian_) return rng->Uniform(items_);
    return Scramble(zipf_.Next(rng)) % items_;
  }

 private:
  uint64_t items_;
  bool zipfian_;
  ZipfianChooser zipf_;
};

}  // namespace bench
}  // namespace spitz

#endif  // SPITZBENCH_WORKLOAD_KEYS_H_
