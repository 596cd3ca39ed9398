#ifndef SPITZBENCH_TRACE_H_
#define SPITZBENCH_TRACE_H_

// Spans recorded by the benchmark around its calls into each layer's
// public functions. Each generator thread owns one Tracer; spans stay in
// memory until the run ends. A span's `child_ns` is the time its direct
// children covered, so a whole-op span's unexplained time (the budget
// residual) is its duration minus child_ns.

#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/clock.h"

namespace spitz {
namespace bench {

enum SpanName : uint16_t {
  // Whole operations (roots).
  kOpRead,
  kOpScan,
  kOpWrite,
  // Stages of an operation.
  kNetGetProof,      // SpitzClient::GetProof / GetProofAt
  kNetScanProof,     // SpitzClient::ScanProof / ScanProofAt
  kNetScanDecode,    // ScanProof + SpitzDigest decode of scan evidence
  kNetPut,           // SpitzClient::Put
  kCoreVerifyRead,   // SpitzDb::VerifyRead
  kCoreVerifyScan,   // SpitzDb::VerifyScan
  kClusterSnapshot,  // ClusterClient::GetClusterDigest
  kClusterMerge,     // MergeShardRows
  kClusterWrite1pc,  // ClusterClient::Write, keys on one shard
  kClusterWrite2pc,  // ClusterClient::Write, keys on two shards
  kClusterBackoff,   // sleep before retrying a Busy write
  // Side probes on the served database (roots).
  kProbeGetWithProof,  // SpitzDb::GetWithProof
  kProbeGet,           // SpitzDb::Get
  kProbeProofCodec,    // ReadProof encode + decode
  kProbeSha256,        // Sha256::Digest over a proof-sized buffer
  kSpanNameCount,
};

inline const char* SpanNameString(uint16_t name) {
  static const char* const kNames[kSpanNameCount] = {
      "op.read",          "op.scan",          "op.write",
      "net.get_proof",    "net.scan_proof",   "net.scan_decode",
      "net.put",          "core.verify_read", "core.verify_scan",
      "cluster.snapshot", "cluster.merge",    "cluster.write_1pc",
      "cluster.write_2pc", "cluster.backoff", "probe.get_with_proof",
      "probe.get",        "probe.proof_codec", "probe.sha256",
  };
  return name < kSpanNameCount ? kNames[name] : "unknown";
}

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint16_t name = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t child_ns = 0;
};

class Tracer {
 public:
  // Span ids are unique across tracers: the thread index fills the high
  // bits.
  explicit Tracer(uint64_t thread_index)
      : next_id_((thread_index + 1) << 40) {}

  void Reserve(size_t spans) { records_.reserve(spans); }
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  const std::vector<SpanRecord>& records() const { return records_; }

  // One JSON object per line: {id, parent, name, start_ns, end_ns}.
  void WriteJsonLines(FILE* out) const {
    for (const SpanRecord& r : records_) {
      fprintf(out,
              "{\"id\": %llu, \"parent\": %llu, \"name\": \"%s\", "
              "\"start_ns\": %llu, \"end_ns\": %llu}\n",
              static_cast<unsigned long long>(r.id),
              static_cast<unsigned long long>(r.parent),
              SpanNameString(r.name),
              static_cast<unsigned long long>(r.start_ns),
              static_cast<unsigned long long>(r.end_ns));
    }
  }

 private:
  friend class ScopedSpan;

  struct Open {
    uint64_t id;
    uint64_t start_ns;
    uint64_t child_ns;
  };

  bool enabled_ = false;
  uint64_t next_id_;
  std::vector<Open> open_;
  std::vector<SpanRecord> records_;
};

// Times its scope as one span of `tracer` (nothing when tracing is off).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanName name)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        name_(name) {
    if (tracer_ == nullptr) return;
    tracer_->open_.push_back({tracer_->next_id_++, MonotonicNanos(), 0});
  }

  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    const uint64_t end = MonotonicNanos();
    const Tracer::Open open = tracer_->open_.back();
    tracer_->open_.pop_back();
    const uint64_t parent =
        tracer_->open_.empty() ? 0 : tracer_->open_.back().id;
    if (!tracer_->open_.empty()) {
      tracer_->open_.back().child_ns += end - open.start_ns;
    }
    tracer_->records_.push_back(
        {open.id, parent, name_, open.start_ns, end, open.child_ns});
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  SpanName name_;
};

}  // namespace bench
}  // namespace spitz

#endif  // SPITZBENCH_TRACE_H_
