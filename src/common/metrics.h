#ifndef SPITZ_COMMON_METRICS_H_
#define SPITZ_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/clock.h"
#include "common/status.h"

namespace spitz {

class JsonValue;

// ---------------------------------------------------------------------------
// The unified observability substrate (DESIGN.md section 8).
//
// Every subsystem used to expose its own ad-hoc stats struct (only
// ChunkStoreStats survives, as a component-level API for tests and
// benches that drive a bare ChunkStore); this header replaces them with
// three lock-cheap instruments — Counter, Gauge, Histogram — collected
// by a MetricsRegistry and exported as one MetricsSnapshot that
// serializes to JSON. The paper's evaluation is
// entirely about measured costs (proof generation latency, verification
// latency, proof size, storage amplification — Figures 1, 6-10), so the
// instruments are chosen to answer exactly those questions: counters for
// byte/op accounting, histograms for latency and proof-size
// distributions with p50/p95/p99.
//
// Metric names follow `layer.component.metric`, e.g.
//   chunk.store.physical_bytes
//   index.cache.hits
//   core.db.write_latency_ns
//   index.siri.proof_bytes.pos-tree
//
// Cost model: recording is a handful of relaxed atomic adds (a Counter
// is exactly the relaxed atomic the old stats structs already paid);
// registration and snapshotting take a mutex but run off the hot path.
// ---------------------------------------------------------------------------

// A monotonically increasing relaxed-atomic counter.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// A point-in-time value that can move both ways (queue depths, resident
// bytes, worker counts).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(uint64_t n) { value_.fetch_sub(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// The decoded, immutable view of a Histogram at one instant. Percentiles
// are estimated from the log-scale buckets with linear interpolation
// inside the covering bucket — at most one power-of-two of error, which
// is what latency/size distributions need (the paper reports orders of
// magnitude, not microsecond-exact tails).
struct HistogramSnapshot {
  // Bucket 0 holds zeros; bucket i >= 1 holds values in
  // [2^(i-1), 2^i - 1]. 64 buckets cover the whole uint64 range, so
  // nanosecond latencies (bucket ~30-35 for micro- to millisecond ops)
  // and proof byte sizes (bucket ~8-14) both fit without configuration.
  static constexpr size_t kBuckets = 64;

  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  std::array<uint64_t, kBuckets> buckets{};

  static double BucketLowerBound(size_t i) {
    return i == 0 ? 0.0 : static_cast<double>(uint64_t{1} << (i - 1));
  }
  static double BucketUpperBound(size_t i) {
    return i == 0 ? 0.0 : 2.0 * BucketLowerBound(i) - 1.0;
  }

  // p in (0, 1], e.g. Percentile(0.99). Returns 0 when empty.
  double Percentile(double p) const;
  double p50() const { return Percentile(0.50); }
  double p95() const { return Percentile(0.95); }
  double p99() const { return Percentile(0.99); }
  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

// A fixed-bucket log2-scale histogram. Record() is four relaxed atomic
// operations (bucket, count, sum, max) — cheap enough for every write
// and every proof on the hot path.
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t value) {
    buckets_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t cur = max_.load(std::memory_order_relaxed);
    while (value > cur && !max_.compare_exchange_weak(
                              cur, value, std::memory_order_relaxed)) {
    }
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  HistogramSnapshot Snapshot() const;

  static size_t BucketOf(uint64_t value) {
    if (value == 0) return 0;
    // floor(log2(value)) + 1, capped to the last bucket.
    size_t b = 64 - static_cast<size_t>(__builtin_clzll(value));
    return b < HistogramSnapshot::kBuckets ? b
                                           : HistogramSnapshot::kBuckets - 1;
  }

 private:
  std::array<std::atomic<uint64_t>, HistogramSnapshot::kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

// RAII latency recorder: records elapsed monotonic nanoseconds into the
// histogram at scope exit. Null-safe, so instrumentation can be compiled
// in unconditionally and disabled by configuration (a null histogram
// costs one branch and no clock read).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram)
      : histogram_(histogram),
        start_ns_(histogram ? MonotonicNanos() : 0) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    if (histogram_ != nullptr) {
      histogram_->Record(MonotonicNanos() - start_ns_);
    }
  }

 private:
  Histogram* histogram_;
  uint64_t start_ns_;
};

// The serializable, JSON-convertible view of a registry at one instant.
// Also constructible by hand, for components that aggregate state under
// their own locks or merge several registries (MergeFrom).
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, uint64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  // Lookup helpers; missing names read as zero/null so callers can probe
  // without branching on registry configuration.
  uint64_t CounterValue(const std::string& name) const;
  uint64_t GaugeValue(const std::string& name) const;
  const HistogramSnapshot* FindHistogram(const std::string& name) const;

  // Merges another snapshot: counters/gauges overwrite on name collision,
  // histograms merge bucket-wise. Used to combine per-instance registries
  // (a db's) with the process-wide one (client-side verifiers).
  void MergeFrom(const MetricsSnapshot& other);

  // JSON wire format:
  //   {"counters": {name: n, ...},
  //    "gauges":   {name: n, ...},
  //    "histograms": {name: {"count": n, "sum": n, "max": n,
  //                          "p50": x, "p95": x, "p99": x,
  //                          "buckets": [[bucket_index, count], ...]}}}
  // Buckets are sparse (zero buckets omitted). The p* fields are derived
  // and recomputed from the buckets on parse, so the round trip is exact
  // for count/sum/max/buckets (within JSON's 2^53 integer range).
  JsonValue ToJson() const;
  std::string ToJsonString() const;
  static Status FromJson(const JsonValue& json, MetricsSnapshot* out);
};

// A collection of named instruments. Owns the instruments created
// through counter()/gauge()/histogram(), and can additionally snapshot
// externally-owned instruments and callback-backed values — that is how
// subsystems that keep their own atomics (the chunk store's byte
// accounting, the verifier's watermarks) join a snapshot without
// restructuring.
//
// Thread safety: all methods are thread-safe. Instrument creation and
// registration take a mutex and are meant for setup time; the returned
// pointers are stable for the registry's lifetime and operating on them
// is lock-free.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Get-or-create; repeated calls with one name return the same pointer.
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  // Externally-owned instruments; the owner must outlive the registry's
  // use (in practice: a component registering its members into the
  // registry of the object that owns the component).
  void RegisterCounter(const std::string& name, const Counter* counter);
  void RegisterHistogram(const std::string& name, const Histogram* histogram);
  // Callback-backed values, sampled at snapshot time (off the hot path).
  void RegisterCounterFn(const std::string& name,
                         std::function<uint64_t()> fn);
  void RegisterGaugeFn(const std::string& name, std::function<uint64_t()> fn);

  MetricsSnapshot Snapshot() const;

  // The process-wide default registry: home of metrics with no owning
  // instance, such as the client-side static verification helpers.
  static MetricsRegistry* Global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, const Counter*> external_counters_;
  std::map<std::string, const Histogram*> external_histograms_;
  std::map<std::string, std::function<uint64_t()>> counter_fns_;
  std::map<std::string, std::function<uint64_t()>> gauge_fns_;
};

}  // namespace spitz

#endif  // SPITZ_COMMON_METRICS_H_
