// spitz_bench — the repository benchmark (see README.md next to this
// file). One process runs one workload: it sets up durable Spitz nodes
// served over loopback TCP, drives them from at most four generator
// threads, checks every answer, and prints every metric as
// `name unit value` lines followed by one JSON object on the last line.
//
// Phases, in order:
//   1. set-up (repeated; the median is `setup_s`, only the last fleet is
//      kept),
//   2. an unmeasured warm-up at the fixed rate,
//   3. an open-loop fixed-rate phase (latencies, each timed from the
//      moment its request was due; disk footprint),
//   4. a closed-loop peak phase (goodput).
// With --trace the same phases run with spans around every call into a
// layer (see trace.h) and the run reports per-layer costs instead of the
// end-to-end metrics, which are always measured with tracing off.

#include <malloc.h>
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_client.h"
#include "cluster/partition.h"
#include "common/codec.h"
#include "common/metrics.h"
#include "core/spitz_db.h"
#include "crypto/sha256.h"
#include "net/spitz_server.h"
#include "replica/backup.h"
#include "replica/replicator.h"
#include "stats.h"
#include "trace.h"
#include "workload_keys.h"

namespace spitz {
namespace bench {
namespace {

namespace fs = std::filesystem;

// Load comes from one process with this many generator threads (the
// benchmark machine has four cores). Single-node workloads give each
// thread its own connection; the cluster workload shares one client.
constexpr size_t kThreads = 4;
constexpr size_t kShards = 3;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
// One op in kProbeEvery also runs the side probes in a traced run.
constexpr uint64_t kProbeEvery = 16;
// Busy (a cluster write racing another transaction's prepared keys) is
// retried this many times, with exponential backoff, before it counts as
// a failure.
constexpr int kBusyRetries = 12;
// A cluster verified read whose pinned root aged out of a busy shard's
// retention window is retried on a fresh snapshot this many times, traced
// or not.
constexpr int kVerifyRetries = 3;

enum OpClass { kRead = 0, kScan = 1, kWrite = 2, kOpClasses = 3 };
const char* const kClassNames[kOpClasses] = {"read", "scan", "write"};

// ---------------------------------------------------------------------------
// Workloads. README.md records why each was chosen.

struct WorkloadSpec {
  const char* name;
  bool cluster;  // kShards primary+backup pairs, else one node
  uint64_t records;
  size_t value_bytes;
  size_t cache_bytes;         // SpitzOptions::buffer_cache_bytes per node
  size_t gc_interval_blocks;  // 0 = no background GC
  int read_pct;               // verified point reads
  int scan_pct;               // verified range scans; the rest are writes
  bool zipfian;               // else uniform keys
  uint64_t max_scan;          // scan limit is uniform in [1, max_scan]
  double fixed_rate;          // ops/s offered in the open-loop phase
  uint64_t limit_us;          // latency limit an op must meet for goodput
  // Validity: the buffer-cache hit ratio over the measured phases must lie
  // in [min_hit_ratio, max_hit_ratio], or the workload did not stress
  // what it was chosen to stress.
  double min_hit_ratio;
  double max_hit_ratio;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"hot-verified-read", false, 200000, 100, 64u << 20, 0, 100, 0, true, 0,
     3000, 5000, 0.95, 1},
    {"durable-update", false, 200000, 100, 64u << 20, 512, 50, 0, false, 0,
     800, 20000, 0, 1},
    {"cold-verified-scan", false, 200000, 512, 8u << 20, 0, 70, 30, false,
     100, 700, 20000, 0, 0.6},
    {"cluster-rmw", true, 200000, 100, 32u << 20, 0, 40, 10, true, 50, 400,
     40000, 0, 1},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

// --smoke shrinks the dataset and GC interval by the same factor, and a
// cache smaller than the dataset with them, so every workload keeps its
// shape (and passes its validity checks) at a tiny size.
WorkloadSpec Smoke(WorkloadSpec spec) {
  constexpr uint64_t kDivisor = 20;
  if (spec.cache_bytes < spec.records * spec.value_bytes) {
    spec.cache_bytes /= kDivisor;
  }
  spec.records /= kDivisor;
  spec.gc_interval_blocks /= kDivisor;
  return spec;
}

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  // measured: half peak, half fixed-rate
  bool trace = false;
  bool smoke = false;
  std::string out_path;
  std::string trace_out;
  std::string data_dir = "spitzbench-data";
};

// ---------------------------------------------------------------------------
// Values: [fixed64 key index][fixed64 generation][filler], the filler a
// SplitMix64 stream seeded by (seed, index, generation). A reader can
// therefore tell whether a value is one that was written to its key.

constexpr size_t kValueHeader = 16;

void Fill(uint64_t seed, uint64_t index, uint64_t generation, char* out,
          size_t bytes) {
  uint64_t state = Scramble(seed ^ Scramble(index ^ Scramble(generation)));
  for (size_t i = 0; i < bytes; i += 8) {
    state += 0x9e3779b97f4a7c15ull;
    const uint64_t word = Scramble(state);
    memcpy(out + i, &word, std::min<size_t>(8, bytes - i));
  }
}

std::string MakeValue(uint64_t seed, uint64_t index, uint64_t generation,
                      size_t bytes) {
  std::string value;
  PutFixed64(&value, index);
  PutFixed64(&value, generation);
  value.resize(bytes);
  Fill(seed, index, generation, value.data() + kValueHeader,
       bytes - kValueHeader);
  return value;
}

bool ValueMatches(uint64_t seed, uint64_t index, size_t bytes,
                  const std::string& value) {
  if (value.size() != bytes || DecodeFixed64(value.data()) != index) {
    return false;
  }
  std::string filler(bytes - kValueHeader, '\0');
  Fill(seed, index, DecodeFixed64(value.data() + 8), filler.data(),
       filler.size());
  return memcmp(filler.data(), value.data() + kValueHeader, filler.size()) ==
         0;
}

// ---------------------------------------------------------------------------
// Server-side instruments, summed over nodes. Means come from exact
// histogram sum/count, never from the log2 bucket percentiles.

struct Totals {
  std::map<std::string, uint64_t> values;  // counters and gauges
  std::map<std::string, std::pair<uint64_t, uint64_t>> hists;  // count, sum

  void Add(const MetricsSnapshot& snap) {
    for (const auto& [name, v] : snap.counters) values[name] += v;
    for (const auto& [name, v] : snap.gauges) values[name] += v;
    for (const auto& [name, h] : snap.histograms) {
      hists[name].first += h.count;
      hists[name].second += h.sum;
    }
  }
  void Add(const Totals& other) {
    for (const auto& [name, v] : other.values) values[name] += v;
    for (const auto& [name, h] : other.hists) {
      hists[name].first += h.first;
      hists[name].second += h.second;
    }
  }

  // Counter and histogram growth since `before`.
  Totals Since(const Totals& before) const {
    Totals d = *this;
    for (auto& [name, v] : d.values) v -= before.Value(name);
    for (auto& [name, h] : d.hists) {
      const auto it = before.hists.find(name);
      if (it == before.hists.end()) continue;
      h.first -= it->second.first;
      h.second -= it->second.second;
    }
    return d;
  }

  uint64_t Value(const std::string& name) const {
    const auto it = values.find(name);
    return it == values.end() ? 0 : it->second;
  }
  uint64_t Count(const std::string& name) const {
    const auto it = hists.find(name);
    return it == hists.end() ? 0 : it->second.first;
  }
  double Mean(const std::string& name) const {
    const auto it = hists.find(name);
    if (it == hists.end() || it->second.first == 0) return 0;
    return static_cast<double>(it->second.second) /
           static_cast<double>(it->second.first);
  }
  double MeanUs(const std::string& name) const { return Mean(name) / 1e3; }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.empty()) return 0;
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ---------------------------------------------------------------------------
// The deployment: durable nodes, each a SpitzDb served by a SpitzServer.

struct Node {
  std::string dir;
  std::unique_ptr<SpitzDb> db;
  std::unique_ptr<BackupReplica> replica;  // backups only
  std::unique_ptr<SpitzServer> server;
};

struct FleetTotals {
  Totals primary;      // primaries' servers and databases
  Totals backup;       // backups' servers, databases and replicas
  Totals replication;  // the primaries' Replicators
  Totals coordinator;  // the cluster client's 2PC coordinator
  uint64_t blocks = 0;  // sealed blocks on the primaries
};

class Fleet {
 public:
  static Status Open(const WorkloadSpec& spec, const std::string& dir,
                     uint64_t seed, std::unique_ptr<Fleet>* out) {
    auto fleet = std::unique_ptr<Fleet>(new Fleet());
    fleet->dir_ = dir;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) return Status::IOError("create " + dir + ": " + ec.message());
    const size_t shards = spec.cluster ? kShards : 1;
    std::vector<std::vector<PosEntry>> parts(shards);
    for (uint64_t i = 0; i < spec.records; i++) {
      PosEntry entry{RecordKey(i), MakeValue(seed, i, 0, spec.value_bytes)};
      parts[shards == 1 ? 0 : PartitionOf(entry.key, shards)].push_back(
          std::move(entry));
    }
    for (size_t s = 0; s < shards; s++) {
      Node node;
      node.dir = dir + "/primary" + std::to_string(s);
      Status st = OpenDb(spec, node.dir, &node.db);
      if (st.ok()) st = node.db->BulkLoad(std::move(parts[s]));
      if (st.ok()) st = node.db->FlushBlock();
      if (st.ok()) st = node.db->SyncStorage();
      if (st.ok()) st = Serve(&node);
      if (!st.ok()) return st;
      fleet->primaries_.push_back(std::move(node));
    }
    if (spec.cluster) {
      for (size_t s = 0; s < shards; s++) {
        Status st = fleet->AddBackup(spec, s);
        if (!st.ok()) return st;
      }
    }
    *out = std::move(fleet);
    return Status::OK();
  }

  size_t shards() const { return primaries_.size(); }
  SpitzDb* db(size_t shard) { return primaries_[shard].db.get(); }
  uint16_t port(size_t shard) const {
    return primaries_[shard].server->port();
  }
  uint16_t backup_port(size_t shard) const {
    return backups_[shard].server->port();
  }
  const std::vector<std::unique_ptr<Replicator>>& replicators() const {
    return replicators_;
  }
  const std::vector<Node>& backups() const { return backups_; }
  const std::vector<Node>& primaries() const { return primaries_; }

  FleetTotals Snapshot() const {
    FleetTotals t;
    for (const Node& n : primaries_) {
      t.primary.Add(n.server->Metrics());
      t.primary.Add(n.db->Metrics());
      t.blocks += n.db->Digest().journal.block_count;
    }
    for (const Node& n : backups_) {
      t.backup.Add(n.server->Metrics());
      t.backup.Add(n.db->Metrics());
      t.backup.Add(n.replica->Metrics());
    }
    for (const auto& r : replicators_) t.replication.Add(r->Metrics());
    return t;
  }

  // Bytes of every file under the fleet's data directories.
  uint64_t DiskBytes() const {
    uint64_t total = 0;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(dir_, ec), end; !ec && it != end;
         it.increment(ec)) {
      std::error_code size_ec;
      const uint64_t size = it->is_regular_file(size_ec)
                                ? fs::file_size(it->path(), size_ec)
                                : 0;
      if (!size_ec) total += size;
    }
    return total;
  }

 private:
  Fleet() = default;

  static Status OpenDb(const WorkloadSpec& spec, const std::string& dir,
                       std::unique_ptr<SpitzDb>* db) {
    SpitzOptions options;
    options.data_dir = dir;
    options.sync_writes = true;  // every acknowledged write is durable
    options.buffer_cache_bytes = spec.cache_bytes;
    options.gc_interval_blocks = spec.gc_interval_blocks;
    return SpitzDb::Open(options, db);
  }

  static Status Serve(Node* node) {
    SpitzServer::Options options;
    options.db = node->db.get();
    options.replica = node->replica.get();
    return SpitzServer::Open(options, &node->server);
  }

  // The backup starts as a byte copy of its freshly loaded primary — the
  // re-seed the Replicator asks for — so its history matches and the
  // Replicator's open-time cross-check accepts the pair without shipping
  // the whole load.
  Status AddBackup(const WorkloadSpec& spec, size_t shard) {
    Node node;
    node.dir = dir_ + "/backup" + std::to_string(shard);
    std::error_code ec;
    fs::copy(primaries_[shard].dir, node.dir, fs::copy_options::recursive, ec);
    if (ec) return Status::IOError("copy to backup: " + ec.message());
    Status s = OpenDb(spec, node.dir, &node.db);
    BackupReplica::Options replica_options;
    replica_options.db = node.db.get();
    if (s.ok()) s = BackupReplica::Open(replica_options, &node.replica);
    if (s.ok()) s = Serve(&node);
    if (!s.ok()) return s;
    Replicator::Options options;
    options.db = primaries_[shard].db.get();
    options.backup.port = node.server->port();
    backups_.push_back(std::move(node));
    std::unique_ptr<Replicator> replicator;
    s = Replicator::Open(options, &replicator);
    if (!s.ok()) return s;
    replicators_.push_back(std::move(replicator));
    return Status::OK();
  }

  std::string dir_;
  // Destroyed bottom-up: streams stop before the servers they ship to,
  // and each Node shuts its server down before its database closes.
  std::vector<Node> primaries_;
  std::vector<Node> backups_;
  std::vector<std::unique_ptr<Replicator>> replicators_;
};

// Samples the fleet's disk footprint every 20 ms until stopped: often
// enough that the lowest sample is the footprint right after a GC pass.
class DiskSampler {
 public:
  explicit DiskSampler(const Fleet* fleet)
      : fleet_(fleet), thread_([this] { Loop(); }) {}
  ~DiskSampler() { Stop(); }
  DiskSampler(const DiskSampler&) = delete;
  DiskSampler& operator=(const DiskSampler&) = delete;

  std::vector<uint64_t> Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return samples_;
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      lock.unlock();
      const uint64_t bytes = fleet_->DiskBytes();
      lock.lock();
      samples_.push_back(bytes);
      cv_.wait_for(lock, std::chrono::milliseconds(20), [&] { return stop_; });
    }
  }

  const Fleet* fleet_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<uint64_t> samples_;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Load generation.

struct Op {
  OpClass cls = kRead;
  uint64_t a = 0;      // key index
  uint64_t b = 0;      // second key of a cluster write
  uint64_t limit = 0;  // scan limit
};

// What one generator thread saw in one phase.
struct PhaseStats {
  std::vector<uint64_t> latency_ns[kOpClasses];
  std::vector<uint64_t> late_ns;  // open loop: start - due
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Ops completed OK within the latency limit, by second of the phase.
  std::vector<uint64_t> good_per_s;
  uint64_t good_traced = 0;
  uint64_t good_untraced = 0;
  uint64_t busy_retries = 0;
  uint64_t read_bytes = 0;     // user bytes returned by reads and scans
  uint64_t written_bytes = 0;  // user bytes written
  uint64_t sha_bytes = 0;      // bytes hashed by the sha256 probe
  uint64_t trace_from = 0;     // first span of this phase in the tracer
  uint64_t start_ns = 0;
};

// The phase statistics of all threads, merged.
struct Phase {
  double seconds = 0;
  std::vector<PhaseStats> threads;

  std::vector<uint64_t> Sorted(OpClass cls) const {
    std::vector<const std::vector<uint64_t>*> parts;
    for (const PhaseStats& t : threads) parts.push_back(&t.latency_ns[cls]);
    return MergeSorted(parts);
  }
  std::vector<uint64_t> SortedLate() const {
    std::vector<const std::vector<uint64_t>*> parts;
    for (const PhaseStats& t : threads) parts.push_back(&t.late_ns);
    return MergeSorted(parts);
  }
  uint64_t Sum(uint64_t PhaseStats::*field) const {
    uint64_t total = 0;
    for (const PhaseStats& t : threads) total += t.*field;
    return total;
  }
  // Median over the phase's whole seconds of the good ops completed in
  // each: a second-long stall or burst on the host moves it less than it
  // moves the phase mean.
  double MedianGoodput() const {
    std::vector<double> per_second;
    for (size_t i = 0; i < static_cast<size_t>(seconds); i++) {
      uint64_t good = 0;
      for (const PhaseStats& t : threads) good += t.good_per_s[i];
      per_second.push_back(static_cast<double>(good));
    }
    return Median(per_second);
  }
  uint64_t Ops(OpClass cls) const {
    uint64_t total = 0;
    for (const PhaseStats& t : threads) total += t.latency_ns[cls].size();
    return total;
  }
};

struct Worker {
  Worker(size_t index, uint64_t seed)
      : index(index), rng(seed), tracer(index) {}
  size_t index;
  std::unique_ptr<SpitzClient> client;  // single-node shape
  Random rng;
  Tracer tracer;
  uint64_t op_count = 0;
};

class Generator {
 public:
  Generator(const WorkloadSpec& spec, uint64_t seed, Fleet* fleet)
      : spec_(spec), seed_(seed), fleet_(fleet),
        chooser_(spec.records, spec.zipfian) {}

  Status Open(bool trace) {
    if (spec_.cluster) {
      ClusterClient::Options options;
      for (size_t s = 0; s < fleet_->shards(); s++) {
        NetClient::Options primary, backup;
        primary.port = fleet_->port(s);
        backup.port = fleet_->backup_port(s);
        options.shards.push_back(primary);
        options.backups.push_back(backup);
      }
      options.txn_id_seed = Scramble(seed_) | 1;
      options.verify_retries = kVerifyRetries;
      Status s = ClusterClient::Open(options, &cluster_);
      if (!s.ok()) return s;
    }
    for (size_t t = 0; t < kThreads; t++) {
      workers_.push_back(
          std::make_unique<Worker>(t, Scramble(seed_ * kThreads + t + 1)));
      if (trace) workers_.back()->tracer.Reserve(1 << 18);
      if (spec_.cluster) continue;
      SpitzClient::Options options;
      options.net.port = fleet_->port(0);
      Status s = SpitzClient::Open(options, &workers_.back()->client);
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  ClusterClient* cluster() { return cluster_.get(); }
  const std::vector<std::unique_ptr<Worker>>& workers() const {
    return workers_;
  }

  // Each thread sends its next op as soon as the previous one returns.
  // With `alternate_tracing`, tracing is on in every other of 20 equal
  // slices, so traced and untraced goodput are measured side by side.
  Phase ClosedLoop(double seconds, bool alternate_tracing) {
    return RunThreads(seconds, [&](Worker& w, PhaseStats* st, uint64_t start,
                                   uint64_t end) {
      const uint64_t slice = (end - start) / 20;
      for (uint64_t now = start; now < end; now = MonotonicNanos()) {
        const bool traced =
            alternate_tracing && ((now - start) / slice) % 2 == 1;
        w.tracer.set_enabled(traced);
        const Op op = NextOp(&w.rng);
        const bool good = Execute(w, op, now, st, false);
        if (good) (traced ? st->good_traced : st->good_untraced)++;
      }
      w.tracer.set_enabled(false);
    });
  }

  // Thread t's i-th op falls due at start + (i * T + t) / rate, whatever
  // the system's speed; it is sent then, or when the thread's previous op
  // returns if that is later. Latency runs from the due time, so a stall
  // is charged to every request it delays.
  Phase OpenLoop(double seconds, bool traced) {
    const double interval_ns = 1e9 / spec_.fixed_rate;
    return RunThreads(seconds, [&](Worker& w, PhaseStats* st, uint64_t start,
                                   uint64_t end) {
      w.tracer.set_enabled(traced);
      for (uint64_t i = 0;; i++) {
        const uint64_t due =
            start + static_cast<uint64_t>(
                        static_cast<double>(i * kThreads + w.index) *
                        interval_ns);
        if (due >= end) break;
        uint64_t now = MonotonicNanos();
        if (now < due) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
          now = MonotonicNanos();
        }
        st->late_ns.push_back(now - due);
        Execute(w, NextOp(&w.rng), due, st, traced);
      }
      w.tracer.set_enabled(false);
    });
  }

  // First failures, for the report.
  std::vector<std::string> failures() {
    std::lock_guard<std::mutex> lock(failure_mu_);
    return failures_;
  }

 private:
  template <typename Body>
  Phase RunThreads(double seconds, Body body) {
    Phase phase;
    phase.seconds = seconds;
    phase.threads.resize(kThreads);
    const uint64_t start = MonotonicNanos() + 1'000'000;
    const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
    // Room for the fastest closed loop seen (~20k ops/s), so recording a
    // sample never reallocates mid-phase.
    const double ops = 25000 * seconds / kThreads;
    const int pct[kOpClasses] = {spec_.read_pct, spec_.scan_pct,
                                 100 - spec_.read_pct - spec_.scan_pct};
    for (size_t t = 0; t < kThreads; t++) {
      PhaseStats& st = phase.threads[t];
      for (int c = 0; c < kOpClasses; c++) {
        st.latency_ns[c].reserve(static_cast<size_t>(ops * pct[c] / 100));
      }
      st.late_ns.reserve(
          static_cast<size_t>(spec_.fixed_rate * seconds / kThreads) + 16);
      st.good_per_s.resize(static_cast<size_t>(seconds) + 1);
      st.trace_from = workers_[t]->tracer.records().size();
      st.start_ns = start;
    }
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; t++) {
      threads.emplace_back([&, t] {
        const uint64_t now = MonotonicNanos();
        if (now < start) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(start - now));
        }
        body(*workers_[t], &phase.threads[t], start, end);
      });
    }
    for (auto& t : threads) t.join();
    return phase;
  }

  Op NextOp(Random* rng) const {
    Op op;
    const uint64_t dice = rng->Uniform(100);
    op.a = chooser_.Next(rng);
    if (dice < static_cast<uint64_t>(spec_.read_pct)) {
      op.cls = kRead;
    } else if (dice < static_cast<uint64_t>(spec_.read_pct + spec_.scan_pct)) {
      op.cls = kScan;
      op.limit = rng->Range(1, spec_.max_scan);
    } else {
      op.cls = kWrite;
      if (spec_.cluster) {
        op.b = chooser_.Next(rng);
        if (op.b == op.a) op.b = (op.a + 1) % spec_.records;
      }
    }
    return op;
  }

  // Runs one op, records it, and returns whether it counts toward
  // goodput. `t0` is when the op was due (open loop) or began.
  bool Execute(Worker& w, const Op& op, uint64_t t0, PhaseStats* st,
               bool probes) {
    st->attempted++;
    Status s;
    {
      static constexpr SpanName kRoots[kOpClasses] = {kOpRead, kOpScan,
                                                      kOpWrite};
      ScopedSpan root(&w.tracer, kRoots[op.cls]);
      switch (op.cls) {
        case kRead:
          s = Read(w, op.a, st);
          break;
        case kScan:
          s = Scan(w, op.a, op.limit, st);
          break;
        default:
          s = Write(w, op, st);
          break;
      }
    }
    const uint64_t latency = MonotonicNanos() - t0;
    st->latency_ns[op.cls].push_back(latency);
    if (probes && w.op_count++ % kProbeEvery == 0) Probe(w, op.a, st);
    if (!s.ok()) {
      st->failed++;
      RecordFailure(std::string(kClassNames[op.cls]) + " of key " +
                    std::to_string(op.a) + ": " + s.ToString());
      return false;
    }
    const bool good = latency <= spec_.limit_us * 1000;
    if (good) {
      const size_t second = (t0 + latency - st->start_ns) / 1'000'000'000;
      if (second < st->good_per_s.size()) st->good_per_s[second]++;
    }
    return good;
  }

  Status Read(Worker& w, uint64_t index, PhaseStats* st) {
    const std::string key = RecordKey(index);
    Tracer* tracer = &w.tracer;
    std::string value;
    Status s;
    if (!tracer->enabled()) {
      s = cluster_ ? cluster_->VerifiedGet(key, &value)
                   : w.client->VerifiedGet(key, &value);
    } else if (!cluster_) {
      // SpitzClient::VerifiedGet, one span per stage.
      SpitzClient::ProofResult result;
      {
        ScopedSpan span(tracer, kNetGetProof);
        s = w.client->GetProof(key, &result);
      }
      if (s.ok()) {
        ScopedSpan span(tracer, kCoreVerifyRead);
        s = SpitzDb::VerifyRead(result.digest, key, result.value,
                                result.proof);
      }
      if (s.ok() && result.value.has_value()) value = *result.value;
    } else {
      // Retried as ClusterClient's verified get retries, so the traced
      // and untraced paths accept the same outcomes.
      for (int attempt = 0; attempt <= kVerifyRetries; attempt++) {
        s = TracedClusterGet(tracer, key, &value);
        if (s.ok() || s.IsNotFound()) break;
      }
    }
    // Every key exists, so a verified NotFound is a wrong answer too.
    if (!s.ok()) return s;
    if (!ValueMatches(seed_, index, spec_.value_bytes, value)) {
      return Status::Corruption("verified read returned a value never "
                                "written to its key");
    }
    st->read_bytes += key.size() + value.size();
    return Status::OK();
  }

  Status Scan(Worker& w, uint64_t index, uint64_t limit, PhaseStats* st) {
    const std::string start = RecordKey(index);
    const std::string end = "user~";  // '~' sorts after every digit
    Tracer* tracer = &w.tracer;
    std::vector<PosEntry> rows;
    Status s;
    if (!tracer->enabled()) {
      s = cluster_ ? cluster_->VerifiedScan(start, end, limit, &rows)
                   : w.client->VerifiedScan(start, end, limit, &rows);
    } else if (!cluster_) {
      VerifiedKv::ScanEvidence evidence;
      {
        ScopedSpan span(tracer, kNetScanProof);
        s = w.client->ScanProof(start, end, limit, &evidence);
      }
      spitz::ScanProof proof;
      SpitzDigest digest;
      if (s.ok()) {
        ScopedSpan span(tracer, kNetScanDecode);
        Slice proof_bytes(evidence.proof);
        Slice digest_bytes(evidence.digest);
        s = spitz::ScanProof::DecodeFrom(&proof_bytes, &proof);
        if (s.ok()) s = SpitzDigest::DecodeFrom(&digest_bytes, &digest);
      }
      if (s.ok()) {
        ScopedSpan span(tracer, kCoreVerifyScan);
        s = SpitzDb::VerifyScan(digest, start, end, limit, evidence.rows,
                                proof);
      }
      rows = std::move(evidence.rows);
    } else {
      for (int attempt = 0; attempt <= kVerifyRetries; attempt++) {
        s = TracedClusterScan(tracer, start, end, limit, &rows);
        if (s.ok()) break;
      }
    }
    if (!s.ok()) return s;
    const uint64_t expected = std::min(limit, spec_.records - index);
    if (rows.size() != expected) {
      return Status::Corruption("verified scan returned " +
                                std::to_string(rows.size()) + " rows, not " +
                                std::to_string(expected));
    }
    for (size_t i = 0; i < rows.size(); i++) {
      if (rows[i].key != RecordKey(index + i) ||
          !ValueMatches(seed_, index + i, spec_.value_bytes, rows[i].value)) {
        return Status::Corruption("verified scan returned a wrong row");
      }
      st->read_bytes += rows[i].key.size() + rows[i].value.size();
    }
    return Status::OK();
  }

  // One attempt of ClusterClient's verified get, one span per stage.
  Status TracedClusterGet(Tracer* tracer, const std::string& key,
                          std::string* value) {
    ClusterDigest digest;
    Status s;
    {
      ScopedSpan span(tracer, kClusterSnapshot);
      s = cluster_->GetClusterDigest(&digest);
    }
    const size_t shard = PartitionOf(key, kShards);
    std::optional<std::string> found;
    ReadProof proof;
    if (s.ok()) {
      ScopedSpan span(tracer, kNetGetProof);
      s = cluster_->shard(shard)->GetProofAt(digest.shards[shard].index_root,
                                             key, &found, &proof);
    }
    if (s.ok()) {
      ScopedSpan span(tracer, kCoreVerifyRead);
      s = SpitzDb::VerifyRead(digest.shards[shard], key, found, proof);
    }
    if (s.ok() && found.has_value()) *value = std::move(*found);
    return s;
  }

  // One attempt of ClusterClient's verified scan, one span per stage.
  Status TracedClusterScan(Tracer* tracer, const std::string& start,
                           const std::string& end, uint64_t limit,
                           std::vector<PosEntry>* rows) {
    ClusterDigest digest;
    Status s;
    {
      ScopedSpan span(tracer, kClusterSnapshot);
      s = cluster_->GetClusterDigest(&digest);
    }
    std::vector<std::vector<PosEntry>> per_shard(kShards);
    for (size_t i = 0; s.ok() && i < kShards; i++) {
      spitz::ScanProof proof;
      {
        ScopedSpan span(tracer, kNetScanProof);
        s = cluster_->shard(i)->ScanProofAt(digest.shards[i].index_root, start,
                                            end, limit, &per_shard[i], &proof);
      }
      if (s.ok()) {
        ScopedSpan span(tracer, kCoreVerifyScan);
        s = SpitzDb::VerifyScan(digest.shards[i], start, end, limit,
                                per_shard[i], proof);
      }
    }
    if (s.ok()) {
      ScopedSpan span(tracer, kClusterMerge);
      MergeShardRows(std::move(per_shard), limit, rows);
    }
    return s;
  }

  Status Write(Worker& w, const Op& op, PhaseStats* st) {
    Tracer* tracer = &w.tracer;
    const std::string key = RecordKey(op.a);
    const std::string value =
        MakeValue(seed_, op.a, w.rng.Next(), spec_.value_bytes);
    if (!cluster_) {
      // A plain Put: the node runs with sync_writes, so it is
      // acknowledged only once durable.
      ScopedSpan span(tracer, kNetPut);
      Status s = w.client->Put(WriteOptions(), key, value);
      if (s.ok()) st->written_bytes += key.size() + value.size();
      return s;
    }
    const std::string key_b = RecordKey(op.b);
    const std::string value_b =
        MakeValue(seed_, op.b, w.rng.Next(), spec_.value_bytes);
    WriteBatch batch;
    batch.Put(key, value);
    batch.Put(key_b, value_b);
    WriteOptions options;
    options.sync = true;
    const SpanName name =
        PartitionOf(key, kShards) == PartitionOf(key_b, kShards)
            ? kClusterWrite1pc
            : kClusterWrite2pc;
    Status s;
    for (int attempt = 0;; attempt++) {
      {
        ScopedSpan span(tracer, name);
        s = cluster_->Write(options, batch);
      }
      if (!s.IsBusy() || attempt == kBusyRetries) break;
      st->busy_retries++;
      ScopedSpan span(tracer, kClusterBackoff);
      std::this_thread::sleep_for(
          std::chrono::microseconds(50u << std::min(attempt, 6)));
    }
    if (s.ok()) {
      st->written_bytes +=
          key.size() + value.size() + key_b.size() + value_b.size();
    }
    return s;
  }

  // Side probes on the database that owns `index`, in-process: the proof
  // build and plain read without the network, the proof codec, and
  // SHA-256 over a proof-sized buffer.
  void Probe(Worker& w, uint64_t index, PhaseStats* st) {
    const std::string key = RecordKey(index);
    SpitzDb* db = fleet_->db(cluster_ ? PartitionOf(key, kShards) : 0);
    Tracer* tracer = &w.tracer;
    std::string value;
    ReadProof proof;
    Status s;
    {
      ScopedSpan span(tracer, kProbeGetWithProof);
      s = db->GetWithProof(key, &value, &proof);
    }
    if (s.ok()) {
      ScopedSpan span(tracer, kProbeGet);
      s = db->Get(key, &value);
    }
    std::string encoded;
    if (s.ok()) {
      ScopedSpan span(tracer, kProbeProofCodec);
      proof.EncodeTo(&encoded);
      Slice input(encoded);
      ReadProof decoded;
      s = ReadProof::DecodeFrom(&input, &decoded);
    }
    if (s.ok()) {
      uint8_t digest[Sha256::kDigestSize];
      ScopedSpan span(tracer, kProbeSha256);
      Sha256::Digest(encoded, digest);
      st->sha_bytes += encoded.size();
    }
    if (!s.ok()) {
      st->failed++;
      RecordFailure("probe of key " + std::to_string(index) + ": " +
                    s.ToString());
    }
  }

  void RecordFailure(std::string what) {
    std::lock_guard<std::mutex> lock(failure_mu_);
    if (failures_.size() < 8) failures_.push_back(std::move(what));
  }

  const WorkloadSpec spec_;
  const uint64_t seed_;
  Fleet* fleet_;
  KeyChooser chooser_;
  std::unique_ptr<ClusterClient> cluster_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::mutex failure_mu_;
  std::vector<std::string> failures_;
};

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

class Report {
 public:
  void Add(const std::string& name, const std::string& unit, double value) {
    metrics_.push_back({name, unit, value});
  }
  // Exact nearest-rank p50, p90 and p99 of `sorted`, with the sample
  // count; a percentile without ten samples beyond it is left out.
  void AddLatency(const std::string& prefix,
                  const std::vector<uint64_t>& sorted) {
    Add(prefix + "_samples", "count", static_cast<double>(sorted.size()));
    if (PercentileSupported(sorted.size(), 5000)) {
      Add(prefix + "_p50_us", "us", Percentile(sorted, 5000) / 1e3);
    }
    if (PercentileSupported(sorted.size(), 9000)) {
      Add(prefix + "_p90_us", "us", Percentile(sorted, 9000) / 1e3);
    }
    if (PercentileSupported(sorted.size(), 9900)) {
      Add(prefix + "_p99_us", "us", Percentile(sorted, 9900) / 1e3);
    }
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) failed_checks_.push_back(what);
  }

  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& failed_checks() const {
    return failed_checks_;
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failed_checks_;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ReadFileLine(const std::string& path, const std::string& prefix) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) return line.substr(prefix.size());
  }
  return "";
}

// VmHWM in MiB. Reset (via clear_refs) after set-up, so it is the peak
// while serving.
double PeakRssMiB() {
  return std::strtod(ReadFileLine("/proc/self/status", "VmHWM:").c_str(),
                     nullptr) /
         1024.0;
}
void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

std::string FileSystemName(const std::string& path) {
  struct statfs st;
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x01021994:
      return "tmpfs";
    case 0x794c7630:
      return "overlayfs";
    default: {
      char buf[32];
      snprintf(buf, sizeof(buf), "0x%lx",
               static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

// Where the numbers came from: printed into every result.
std::string MachineJson(const Config& config) {
  struct utsname uts;
  const std::string kernel =
      uname(&uts) == 0 ? std::string(uts.sysname) + " " + uts.release : "";
  std::string cpu = ReadFileLine("/proc/cpuinfo", "model name\t: ");
  return "{\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"cpu\": " + JsonString(cpu) +
         ", \"kernel\": " + JsonString(kernel) +
         ", \"data_dir_fs\": " + JsonString(FileSystemName(config.data_dir)) +
         ", \"seed\": " + std::to_string(config.seed) + "}";
}

// Per-layer costs of the traced fixed-rate phase (see README.md for the
// end-to-end metric each should move). Spans give client-side stage
// means; server-side costs are deltas of the nodes' Metrics().
void AddLayerMetrics(const WorkloadSpec& spec, const Phase& peak,
                     const Phase& fixed, const Generator& gen,
                     const FleetTotals& before, const FleetTotals& after,
                     Report* report) {
  struct SpanSum {
    uint64_t count = 0;
    uint64_t ns = 0;
    uint64_t child_ns = 0;
  };
  // Only the fixed-rate phase's spans, the interval of the Metrics()
  // deltas; the peak phase's traced slices follow them in each tracer.
  SpanSum spans[kSpanNameCount];
  for (size_t t = 0; t < gen.workers().size(); t++) {
    const auto& records = gen.workers()[t]->tracer.records();
    for (size_t i = fixed.threads[t].trace_from;
         i < peak.threads[t].trace_from; i++) {
      SpanSum& sum = spans[records[i].name];
      sum.count++;
      sum.ns += records[i].end_ns - records[i].start_ns;
      sum.child_ns += records[i].child_ns;
    }
  }
  auto span_us = [&](SpanName name) {
    return Ratio(spans[name].ns / 1e3, spans[name].count);
  };
  const Totals p = after.primary.Since(before.primary);
  const Totals b = after.backup.Since(before.backup);
  const Totals r = after.replication.Since(before.replication);
  const Totals coordinator = after.coordinator.Since(before.coordinator);
  Totals servers = p;
  servers.Add(b);

  const double ops = static_cast<double>(fixed.Ops(kRead) + fixed.Ops(kScan) +
                                         fixed.Ops(kWrite));
  const double writes = static_cast<double>(fixed.Ops(kWrite));
  const std::string method = "net.server.method_latency_ns.";
  const std::string get_proof =
      method + wire::MethodName(spec.cluster ? wire::kGetProofAt
                                             : wire::kGetProof);

  // net
  report->Add("net.get_proof_us", "us", span_us(kNetGetProof));
  report->Add("net.server_get_proof_us", "us", p.MeanUs(get_proof));
  report->Add("net.transport_us", "us",
              span_us(kNetGetProof) - p.MeanUs(get_proof));
  report->Add("net.dispatch_us", "us",
              servers.MeanUs("net.server.dispatch_latency_ns"));
  report->Add("net.overloaded", "count",
              static_cast<double>(servers.Value("net.server.overloaded")));
  // core
  report->Add("core.proof_build_us", "us",
              p.MeanUs("core.db.proof_build_latency_ns"));
  report->Add("core.verify_read_us", "us", span_us(kCoreVerifyRead));
  report->Add("core.inproc_get_proof_us", "us", span_us(kProbeGetWithProof));
  report->Add("core.proof_codec_us", "us", span_us(kProbeProofCodec));
  report->Add("core.group_size", "count", p.Mean("core.db.commit.group_size"));
  report->Add("core.fsyncs_per_write", "ratio",
              Ratio(p.Value("core.db.journal.fsyncs"), writes));
  // index
  report->Add("index.proof_bytes", "B",
              p.Mean("index.siri.proof_bytes.pos-tree"));
  report->Add("index.inproc_get_us", "us", span_us(kProbeGet));
  report->Add("index.range_proof_bytes", "B",
              p.Mean("index.siri.range_proof_bytes.pos-tree"));
  report->Add("index.node_cache_hit_ratio", "ratio",
              Ratio(p.Value("index.cache.hits"),
                    p.Value("index.cache.hits") +
                        p.Value("index.cache.misses")));
  // chunk
  report->Add("chunk.cache_hit_ratio", "ratio",
              Ratio(p.Value("cache.hits"),
                    p.Value("cache.hits") + p.Value("cache.misses")));
  report->Add("chunk.file_reads_per_op", "ratio",
              Ratio(p.Value("chunk.file.reads"), ops));
  report->Add("chunk.read_amp", "ratio",
              Ratio(p.Value("chunk.file.read_bytes"),
                    fixed.Sum(&PhaseStats::read_bytes)));
  report->Add("chunk.write_amp", "ratio",
              Ratio(p.Value("chunk.file.appended_bytes"),
                    fixed.Sum(&PhaseStats::written_bytes)));
  report->Add("chunk.dedup_ratio", "ratio",
              Ratio(p.Value("chunk.store.dedup_hits"),
                    p.Value("chunk.store.puts")));
  report->Add("chunk.gc_runs", "count", p.Value("gc.runs"));
  report->Add("chunk.gc_rewritten_bytes_per_write", "B",
              Ratio(p.Value("gc.rewritten_bytes"), writes));
  // ledger
  report->Add("ledger.blocks_per_kwrite", "count",
              Ratio((after.blocks - before.blocks) * 1000.0, writes));
  // crypto
  report->Add("crypto.sha256_ns_per_kib", "ns",
              Ratio(spans[kProbeSha256].ns,
                    fixed.Sum(&PhaseStats::sha_bytes) / 1024.0));
  // cluster
  const double commits_1pc =
      coordinator.Value("cluster.coordinator.commits_1pc");
  const double commits_2pc =
      coordinator.Value("cluster.coordinator.commits_2pc");
  report->Add("cluster.share_2pc", "ratio",
              Ratio(commits_2pc, commits_1pc + commits_2pc));
  report->Add("cluster.abort_ratio", "ratio",
              Ratio(coordinator.Value("cluster.coordinator.aborts"),
                    commits_1pc + commits_2pc +
                        coordinator.Value("cluster.coordinator.aborts")));
  report->Add("cluster.commit_retries", "count",
              coordinator.Value("cluster.coordinator.commit_retries"));
  // benchmark
  const std::vector<uint64_t> late = fixed.SortedLate();
  if (PercentileSupported(late.size(), 9900)) {
    report->Add("gen.late_p99_us", "us", Percentile(late, 9900) / 1e3);
  }
  report->Add("trace.overhead", "ratio",
              1.0 - Ratio(peak.Sum(&PhaseStats::good_traced),
                          peak.Sum(&PhaseStats::good_untraced)));
  double worst_residual = 0;
  for (SpanName root : {kOpRead, kOpScan, kOpWrite}) {
    const SpanSum& sum = spans[root];
    if (sum.count == 0) continue;
    const double residual =
        std::fabs(static_cast<double>(sum.ns) - sum.child_ns) / sum.ns;
    report->Add(std::string("budget.residual.") +
                    (SpanNameString(root) + 3),
                "ratio", residual);
    worst_residual = std::max(worst_residual, residual);
  }
  report->Add("budget.residual", "ratio", worst_residual);

  // Stages that only some workloads have.
  auto add_if = [&](bool present, const std::string& name, double value) {
    if (present) report->Add(name, "us", value);
  };
  add_if(spans[kNetScanProof].count > 0, "net.scan_proof_us",
         span_us(kNetScanProof));
  add_if(spans[kNetScanDecode].count > 0, "net.scan_decode_us",
         span_us(kNetScanDecode));
  add_if(spans[kCoreVerifyScan].count > 0, "core.verify_scan_us",
         span_us(kCoreVerifyScan));
  add_if(spans[kNetPut].count > 0, "net.put_us", span_us(kNetPut));
  const std::string put_method = method + wire::MethodName(wire::kPut);
  add_if(p.Count(put_method) > 0, "net.server_put_us", p.MeanUs(put_method));
  add_if(p.Count("core.processor.queue_wait_ns") > 0, "core.queue_wait_us",
         p.MeanUs("core.processor.queue_wait_ns"));
  add_if(p.Count("core.db.write_latency_ns") > 0, "core.write_us",
         p.MeanUs("core.db.write_latency_ns"));
  add_if(p.Count("core.db.seal_latency_ns") > 0, "core.seal_us",
         p.MeanUs("core.db.seal_latency_ns"));
  add_if(p.Count("txn.verifier.queue_wait_ns") > 0,
         "txn.verifier_queue_wait_us", p.MeanUs("txn.verifier.queue_wait_ns"));
  add_if(p.Count("txn.verifier.verify_latency_ns") > 0,
         "txn.verifier_verify_us", p.MeanUs("txn.verifier.verify_latency_ns"));
  add_if(spans[kClusterSnapshot].count > 0, "cluster.snapshot_us",
         span_us(kClusterSnapshot));
  add_if(spans[kClusterMerge].count > 0, "cluster.merge_us",
         span_us(kClusterMerge));
  add_if(spans[kClusterWrite1pc].count > 0, "cluster.write_1pc_us",
         span_us(kClusterWrite1pc));
  add_if(spans[kClusterWrite2pc].count > 0, "cluster.write_2pc_us",
         span_us(kClusterWrite2pc));
  add_if(r.Count("replica.primary.lag_ns") > 0, "replica.lag_us",
         r.MeanUs("replica.primary.lag_ns"));
  add_if(r.Count("replica.primary.ship_ns") > 0, "replica.ship_us",
         r.MeanUs("replica.primary.ship_ns"));
  add_if(b.Count("replica.backup.apply_ns") > 0, "replica.apply_us",
         b.MeanUs("replica.backup.apply_ns"));
}

// After the load stops, every backup must catch up with its primary and
// hold exactly the primary's digest, with no disagreement on the way.
void CheckReplicas(Fleet* fleet, Report* report) {
  for (size_t s = 0; s < fleet->replicators().size(); s++) {
    const std::string shard = "shard " + std::to_string(s);
    Status drained = fleet->replicators()[s]->WaitDrained(30'000);
    report->Check(drained.ok(), shard + " replica drained: " +
                                    drained.ToString());
    const SpitzDigest primary = fleet->primaries()[s].db->Digest();
    const SpitzDigest backup = fleet->backups()[s].db->Digest();
    report->Check(primary.index_root == backup.index_root &&
                      primary.journal.tip_hash == backup.journal.tip_hash &&
                      primary.journal.block_count ==
                          backup.journal.block_count,
                  shard + " backup digest equals primary digest");
    report->Check(
        fleet->replicators()[s]->Metrics().CounterValue(
            "replica.primary.digest_mismatches") == 0 &&
            fleet->backups()[s].replica->digest_mismatches() == 0,
        shard + " zero replication digest mismatches");
  }
}

int RunWorkload(const Config& config, WorkloadSpec spec) {
  const std::string dir = config.data_dir + "/" + spec.name;
  std::error_code ec;
  fs::remove_all(dir, ec);

  // 1. Set-up, repeated; only the last fleet serves the load.
  std::vector<double> setup_s;
  std::unique_ptr<Fleet> fleet;
  const int setups = config.smoke || config.trace ? 1 : kSetups;
  for (int i = 0; i < setups; i++) {
    fleet.reset();
    fs::remove_all(dir, ec);
    const uint64_t t0 = MonotonicNanos();
    Status s = Fleet::Open(spec, dir, config.seed, &fleet);
    if (!s.ok()) {
      fprintf(stderr, "spitz_bench: set-up failed: %s\n", s.ToString().c_str());
      return 1;
    }
    setup_s.push_back((MonotonicNanos() - t0) / 1e9);
  }
  auto gen = std::make_unique<Generator>(spec, config.seed, fleet.get());
  Status s = gen->Open(config.trace);
  if (!s.ok()) {
    fprintf(stderr, "spitz_bench: clients failed: %s\n", s.ToString().c_str());
    return 1;
  }
  malloc_trim(0);
  ResetPeakRss();
  auto snapshot = [&] {
    FleetTotals t = fleet->Snapshot();
    if (gen->cluster() != nullptr) {
      t.coordinator.Add(gen->cluster()->coordinator()->Metrics());
    }
    return t;
  };

  // 2-4. Warm-up, fixed rate, peak. Up to the end of the fixed-rate
  // phase the amount of work is set by the offered rate alone, so the
  // disk footprint sampled then does not depend on how fast the system
  // is. A freshly loaded node serves below its steady rate for its first
  // seconds (README.md), hence the long warm-up.
  const double warmup_s = config.smoke ? 0.5 : 10;
  const Phase warmup = gen->OpenLoop(warmup_s, false);
  const FleetTotals t0 = snapshot();
  DiskSampler disk(fleet.get());
  const Phase fixed = gen->OpenLoop(config.seconds / 2, config.trace);
  const std::vector<uint64_t> disk_bytes = disk.Stop();
  const FleetTotals t1 = snapshot();
  const Phase peak = gen->ClosedLoop(config.seconds / 2, config.trace);
  const FleetTotals t2 = snapshot();

  Report report;
  const double rss_mib = PeakRssMiB();
  uint64_t attempted = 0, failed = 0;
  for (const Phase* phase : {&warmup, &peak, &fixed}) {
    attempted += phase->Sum(&PhaseStats::attempted);
    failed += phase->Sum(&PhaseStats::failed);
  }
  const double user_bytes =
      spec.records * (RecordKey(0).size() + spec.value_bytes);
  std::vector<double> space_amp;
  for (uint64_t bytes : disk_bytes) space_amp.push_back(bytes / user_bytes);

  if (!config.trace) {
    report.Add("goodput_ops_s", "ops/s", peak.MedianGoodput());
    for (OpClass c : {kRead, kScan, kWrite}) {
      if (fixed.Ops(c) > 0) report.AddLatency(kClassNames[c], fixed.Sorted(c));
    }
    report.Add("setup_s", "s", Median(setup_s));
    report.Add("space_amp", "ratio", Median(space_amp));
    report.Add("rss_peak_mb", "MiB", rss_mib);
    report.Add("fail_ratio", "ratio", Ratio(failed, attempted));
    const std::vector<uint64_t> late = fixed.SortedLate();
    if (PercentileSupported(late.size(), 9900)) {
      report.Add("gen.late_p99_us", "us", Percentile(late, 9900) / 1e3);
    }
  } else {
    AddLayerMetrics(spec, peak, fixed, *gen, t0, t1, &report);
  }

  // Validity: the workload measured what it was chosen to measure.
  const Totals measured = t2.primary.Since(t0.primary);
  const Totals coordinator = t2.coordinator.Since(t0.coordinator);
  const double hit_ratio =
      Ratio(measured.Value("cache.hits"),
            measured.Value("cache.hits") + measured.Value("cache.misses"));
  report.Add("cache_hit_ratio", "ratio", hit_ratio);
  report.Check(hit_ratio >= spec.min_hit_ratio &&
                   hit_ratio <= spec.max_hit_ratio,
               "cache hit ratio in [" + JsonNumber(spec.min_hit_ratio) +
                   ", " + JsonNumber(spec.max_hit_ratio) + "]");
  if (spec.gc_interval_blocks > 0) {
    const uint64_t gc_runs = t2.primary.Value("gc.runs");
    report.Add("gc_runs", "count", gc_runs);
    report.Check(gc_runs >= 3, "at least 3 GC runs");
    // GC keeps up, so space_amp has levelled off: the footprint right
    // after a collection (the lowest sample) is no higher in the second
    // half of the fixed-rate phase than in the first, within 10%.
    const auto middle = space_amp.begin() + space_amp.size() / 2;
    report.Check(
        !space_amp.empty() &&
            *std::min_element(middle, space_amp.end()) <=
                1.1 * *std::min_element(space_amp.begin(), middle),
        "space_amp levelled off");
  }
  if (spec.cluster) {
    const uint64_t commits_2pc =
        coordinator.Value("cluster.coordinator.commits_2pc");
    report.Add("commits_2pc", "count", commits_2pc);
    report.Add("busy_retries", "count",
               peak.Sum(&PhaseStats::busy_retries) +
                   fixed.Sum(&PhaseStats::busy_retries));
    report.Check(commits_2pc > 0, "cross-shard writes took 2PC");
    CheckReplicas(fleet.get(), &report);
  }
  if (config.smoke) {
    const char* which = nullptr;
    report.Check(PercentileSelfCheck(&which),
                 std::string("percentile helper: ") + (which ? which : ""));
  }
  report.Check(failed == 0, "every operation succeeded and verified");
  for (const std::string& f : gen->failures()) {
    fprintf(stderr, "spitz_bench: failed op: %s\n", f.c_str());
  }
  for (const std::string& c : report.failed_checks()) {
    fprintf(stderr, "spitz_bench: FAILED CHECK: %s\n", c.c_str());
  }
  const bool correct = report.failed_checks().empty();

  if (!config.trace_out.empty()) {
    FILE* out = fopen(config.trace_out.c_str(), "w");
    if (out != nullptr) {
      for (const auto& w : gen->workers()) w->tracer.WriteJsonLines(out);
      fclose(out);
    }
  }

  // Print every metric, then the result object as the last line.
  std::string metrics_json;
  for (const Metric& m : report.metrics()) {
    printf("%s %s %s\n", m.name.c_str(), m.unit.c_str(),
           JsonNumber(m.value).c_str());
    if (!metrics_json.empty()) metrics_json += ", ";
    metrics_json += JsonString(m.name) + ": {\"value\": " +
                    JsonNumber(m.value) + ", \"unit\": " +
                    JsonString(m.unit) + "}";
  }
  std::string setups_json;
  for (double v : setup_s) {
    setups_json += (setups_json.empty() ? "" : ", ") + JsonNumber(v);
  }
  std::string checks_json;
  for (const std::string& c : report.failed_checks()) {
    checks_json += (checks_json.empty() ? "" : ", ") + JsonString(c);
  }
  const std::string result =
      "{\"workload\": " + JsonString(spec.name) +
      ", \"trace\": " + (config.trace ? "true" : "false") +
      ", \"smoke\": " + (config.smoke ? "true" : "false") +
      ", \"correct\": " + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"metrics\": {" + metrics_json + "}" +
      ", \"setup_samples_s\": [" + setups_json + "]" +
      ", \"failed_checks\": [" + checks_json + "]" +
      ", \"machine\": " + MachineJson(config) + "}";
  if (!config.out_path.empty()) {
    FILE* out = fopen(config.out_path.c_str(), "w");
    if (out == nullptr) {
      fprintf(stderr, "spitz_bench: cannot write %s\n",
              config.out_path.c_str());
      return 1;
    }
    fprintf(out, "%s\n", result.c_str());
    fclose(out);
  }
  printf("%s\n", result.c_str());
  fflush(stdout);

  gen.reset();  // clients close before the servers they talk to
  fleet.reset();
  fs::remove_all(dir, ec);
  return correct ? 0 : 1;
}

int Usage(const char* argv0) {
  fprintf(stderr,
          "usage: %s --workload <name> [--seed N] [--seconds S] [--trace] "
          "[--smoke] [--out result.json] [--trace-out spans.jsonl] "
          "[--data-dir dir]\nworkloads:",
          argv0);
  for (const WorkloadSpec& spec : kWorkloads) fprintf(stderr, " %s", spec.name);
  fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace bench
}  // namespace spitz

int main(int argc, char** argv) {
  using spitz::bench::Config;
  Config config;
  bool seconds_set = false;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::strtod(argv[++i], nullptr);
      seconds_set = true;
    } else if (arg == "--trace") {
      config.trace = true;
    } else if (arg == "--smoke") {
      config.smoke = true;
    } else if (arg == "--out" && has_value) {
      config.out_path = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      config.trace_out = argv[++i];
    } else if (arg == "--data-dir" && has_value) {
      config.data_dir = argv[++i];
    } else {
      return spitz::bench::Usage(argv[0]);
    }
  }
  const spitz::bench::WorkloadSpec* spec =
      spitz::bench::FindWorkload(config.workload);
  if (spec == nullptr || !(config.seconds >= 1)) {
    return spitz::bench::Usage(argv[0]);
  }
  if (config.smoke && !seconds_set) config.seconds = 4;
  return spitz::bench::RunWorkload(
      config, config.smoke ? spitz::bench::Smoke(*spec) : *spec);
}
