// Validates a MetricsSnapshot JSON artifact (as emitted by
// micro_benchmarks) with the in-tree parser: the snapshot must decode,
// and every metric the instrumented hot paths are supposed to populate
// must be present and non-zero. ci/check.sh runs this as the metrics
// smoke leg, so a silently-dead instrumentation path fails CI instead
// of producing empty dashboards.
//
// Usage: metrics_smoke <snapshot.json>   (or '-' for stdin)

#include <cstdio>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/json.h"

namespace {

std::string ReadAll(FILE* in) {
  std::string contents;
  char buf[1 << 16];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), in)) > 0) contents.append(buf, n);
  return contents;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    fprintf(stderr, "usage: %s <snapshot.json|->\n", argv[0]);
    return 2;
  }
  std::string text;
  if (std::string(argv[1]) == "-") {
    text = ReadAll(stdin);
  } else {
    FILE* f = fopen(argv[1], "rb");
    if (f == nullptr) {
      fprintf(stderr, "metrics_smoke: cannot open %s\n", argv[1]);
      return 2;
    }
    text = ReadAll(f);
    fclose(f);
  }

  spitz::JsonValue json;
  spitz::Status s = spitz::JsonValue::Parse(text, &json);
  if (!s.ok()) {
    fprintf(stderr, "metrics_smoke: JSON parse failed: %s\n",
            s.ToString().c_str());
    return 1;
  }
  spitz::MetricsSnapshot snap;
  s = spitz::MetricsSnapshot::FromJson(json, &snap);
  if (!s.ok()) {
    fprintf(stderr, "metrics_smoke: snapshot decode failed: %s\n",
            s.ToString().c_str());
    return 1;
  }

  int failures = 0;
  // Latency and proof-size histograms every instrumented path must feed.
  const std::vector<std::string> required_histograms = {
      "core.db.write_latency_ns",
      "core.db.read_latency_ns",
      "core.db.seal_latency_ns",
      "core.db.proof_build_latency_ns",
      "core.db.proof_verify_latency_ns",
      "index.siri.proof_bytes.pos-tree",
      "index.siri.range_proof_bytes.pos-tree",
      "txn.verifier.queue_wait_ns",
      "txn.verifier.verify_latency_ns",
      "client.db.verify_read_latency_ns",
      "client.db.verify_scan_latency_ns",
  };
  for (const std::string& name : required_histograms) {
    const spitz::HistogramSnapshot* h = snap.FindHistogram(name);
    if (h == nullptr) {
      fprintf(stderr, "metrics_smoke: histogram missing: %s\n", name.c_str());
      failures++;
    } else if (h->count == 0) {
      fprintf(stderr, "metrics_smoke: histogram empty: %s\n", name.c_str());
      failures++;
    }
  }
  const std::vector<std::string> required_counters = {
      "chunk.store.puts",
      "chunk.store.physical_bytes",
      "chunk.store.logical_bytes",
      "index.cache.hits",
      "txn.verifier.submitted",
      "txn.verifier.verified",
      // The paged store's delta records and the base reads that
      // rebuild them on a cache miss.
      "chunk.file.delta_records",
      "chunk.file.delta_bytes",
      "chunk.file.chain_reads",
  };
  for (const std::string& name : required_counters) {
    if (snap.CounterValue(name) == 0) {
      fprintf(stderr, "metrics_smoke: counter missing or zero: %s\n",
              name.c_str());
      failures++;
    }
  }
  // Footprint gauges: the journal's size in frames, header included.
  const std::vector<std::string> required_gauges = {
      "core.db.journal.file_bytes",
  };
  for (const std::string& name : required_gauges) {
    if (snap.GaugeValue(name) == 0) {
      fprintf(stderr, "metrics_smoke: gauge missing or zero: %s\n",
              name.c_str());
      failures++;
    }
  }
  if (snap.CounterValue("txn.verifier.failures") != 0) {
    fprintf(stderr, "metrics_smoke: verifier reported failures\n");
    failures++;
  }
  if (failures > 0) {
    fprintf(stderr, "metrics_smoke: %d check(s) failed\n", failures);
    return 1;
  }
  printf("metrics_smoke: ok (%zu counters, %zu gauges, %zu histograms)\n",
         snap.counters.size(), snap.gauges.size(), snap.histograms.size());
  return 0;
}
