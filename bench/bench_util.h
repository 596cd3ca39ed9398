#ifndef SPITZ_BENCH_BENCH_UTIL_H_
#define SPITZ_BENCH_BENCH_UTIL_H_

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "index/pos_tree.h"

namespace spitz {
namespace bench {

// The workload of paper section 6.2: "The number of records ... vary
// from 10,000 to 1,280,000. The length of the key ranges from 5 to 12
// bytes while the size of the value is 20 bytes."
inline std::vector<PosEntry> MakeRecords(size_t n, uint64_t seed = 42) {
  Random rng(seed);
  // Unique keys: a random prefix plus a FIXED-WIDTH zero-padded hex
  // suffix, total length in [5, 12]. The fixed width is what makes the
  // encoding collision-free: every key ends in exactly `width` suffix
  // chars, so equal keys imply equal suffixes imply equal i. (The old
  // variable-width suffix could collide: "12ab" for i=0x12ab vs
  // "1"+"2ab" for i=0x2ab.) The random alphabet (a-zA-Z0-9) overlaps
  // hex digits, so prefix bytes can't be used to disambiguate — only
  // the fixed width can.
  size_t width = 1;
  for (size_t v = n > 0 ? n - 1 : 0; v >= 16; v /= 16) width++;
  std::vector<PosEntry> records;
  records.reserve(n);
  std::string suffix(width, '0');
  for (size_t i = 0; i < n; i++) {
    size_t v = i;
    for (size_t j = width; j-- > 0; v >>= 4) {
      suffix[j] = "0123456789abcdef"[v & 15];
    }
    size_t key_len = rng.Range(5, 12);
    if (key_len < width) key_len = width;
    std::string key = rng.Bytes(key_len - width);
    key.append(suffix);
    records.push_back(PosEntry{std::move(key), rng.Bytes(20)});
  }
  return records;
}

// The record-count sweep of Figures 6-8: 1..128 x 10^4, doubling.
inline std::vector<size_t> RecordScales() {
  std::vector<size_t> scales = {10000,  20000,  40000,  80000,
                                160000, 320000, 640000, 1280000};
  // SPITZ_BENCH_MAX_RECORDS caps the sweep (useful on small machines).
  if (const char* cap_env = std::getenv("SPITZ_BENCH_MAX_RECORDS")) {
    size_t cap = static_cast<size_t>(strtoull(cap_env, nullptr, 10));
    while (!scales.empty() && scales.back() > cap) scales.pop_back();
  }
  return scales;
}

// Measures ops/sec of `fn` called `ops` times.
template <typename Fn>
double MeasureOpsPerSec(size_t ops, Fn&& fn) {
  uint64_t start = MonotonicNanos();
  for (size_t i = 0; i < ops; i++) {
    fn(i);
  }
  uint64_t elapsed = MonotonicNanos() - start;
  if (elapsed == 0) elapsed = 1;
  return static_cast<double>(ops) * 1e9 / static_cast<double>(elapsed);
}

// Table output helpers: one row per record scale, one column per system,
// in thousands of operations per second (the paper's y-axis unit).
inline void PrintHeader(const char* title,
                        const std::vector<std::string>& systems) {
  printf("\n%s\n", title);
  printf("%-12s", "#records");
  for (const auto& s : systems) printf("  %18s", s.c_str());
  printf("\n");
}

inline void PrintRow(size_t records, const std::vector<double>& kops) {
  printf("%-12zu", records);
  for (double v : kops) printf("  %18.2f", v);
  printf("\n");
}

inline void PrintFooter(const char* note) { printf("%s\n", note); }

// The paper's ranks, checked. Each check states that one measurement is
// at least `factor` times another: a rank with a margin, never an
// absolute number, since those depend on the host. Every check prints a
// line to `out`; ExitCode() is non-zero once any failed. EXPERIMENTS.md
// records each margin and the runs it was set from.
class RankChecks {
 public:
  // `unit` names the scale each check is made at.
  explicit RankChecks(const char* unit = "records", FILE* out = stdout)
      : unit_(unit), out_(out) {}

  // Checks higher >= factor * lower at scale `at`.
  bool AtLeast(const std::string& what, size_t at, double higher,
               double lower, double factor) {
    const bool ok = higher >= factor * lower;
    fprintf(out_, "rank %s: %s at %zu %s: ratio %.2f, needs >= %.2f\n",
            ok ? "ok" : "FAILED", what.c_str(), at, unit_,
            lower > 0 ? higher / lower : 0.0, factor);
    failed_ += ok ? 0 : 1;
    return ok;
  }

  int ExitCode() const { return failed_ == 0 ? 0 : 1; }

 private:
  const char* unit_;
  FILE* out_;
  int failed_ = 0;
};

}  // namespace bench
}  // namespace spitz

#endif  // SPITZ_BENCH_BENCH_UTIL_H_
