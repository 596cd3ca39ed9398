#include "common/metrics.h"

#include <cmath>

#include "core/json.h"

namespace spitz {

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0.0;
  if (p <= 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  // The rank of the target observation, 1-based.
  double rank = p * static_cast<double>(count);
  if (rank < 1.0) rank = 1.0;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kBuckets; i++) {
    if (buckets[i] == 0) continue;
    uint64_t next = cumulative + buckets[i];
    if (static_cast<double>(next) >= rank) {
      double lower = BucketLowerBound(i);
      double upper = BucketUpperBound(i);
      double into =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(buckets[i]);
      double estimate = lower + into * (upper - lower);
      // Never report beyond the observed maximum.
      return max > 0 && estimate > static_cast<double>(max)
                 ? static_cast<double>(max)
                 : estimate;
    }
    cumulative = next;
  }
  return static_cast<double>(max);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < HistogramSnapshot::kBuckets; i++) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return snap;
}

uint64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

uint64_t MetricsSnapshot::GaugeValue(const std::string& name) const {
  auto it = gauges.find(name);
  return it == gauges.end() ? 0 : it->second;
}

const HistogramSnapshot* MetricsSnapshot::FindHistogram(
    const std::string& name) const {
  auto it = histograms.find(name);
  return it == histograms.end() ? nullptr : &it->second;
}

void MetricsSnapshot::MergeFrom(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) counters[name] = value;
  for (const auto& [name, value] : other.gauges) gauges[name] = value;
  for (const auto& [name, snap] : other.histograms) {
    auto [it, inserted] = histograms.emplace(name, snap);
    if (!inserted) {
      HistogramSnapshot& mine = it->second;
      mine.count += snap.count;
      mine.sum += snap.sum;
      if (snap.max > mine.max) mine.max = snap.max;
      for (size_t i = 0; i < HistogramSnapshot::kBuckets; i++) {
        mine.buckets[i] += snap.buckets[i];
      }
    }
  }
}

namespace {

JsonValue HistogramToJson(const HistogramSnapshot& snap) {
  JsonValue h = JsonValue::Object();
  h.Set("count", JsonValue::Number(static_cast<double>(snap.count)));
  h.Set("sum", JsonValue::Number(static_cast<double>(snap.sum)));
  h.Set("max", JsonValue::Number(static_cast<double>(snap.max)));
  h.Set("p50", JsonValue::Number(snap.p50()));
  h.Set("p95", JsonValue::Number(snap.p95()));
  h.Set("p99", JsonValue::Number(snap.p99()));
  JsonValue buckets = JsonValue::Array();
  for (size_t i = 0; i < HistogramSnapshot::kBuckets; i++) {
    if (snap.buckets[i] == 0) continue;
    JsonValue pair = JsonValue::Array();
    pair.Append(JsonValue::Number(static_cast<double>(i)));
    pair.Append(JsonValue::Number(static_cast<double>(snap.buckets[i])));
    buckets.Append(std::move(pair));
  }
  h.Set("buckets", std::move(buckets));
  return h;
}

Status HistogramFromJson(const JsonValue& json, HistogramSnapshot* out) {
  if (!json.is_object()) {
    return Status::InvalidArgument("histogram snapshot must be an object");
  }
  const JsonValue* count = json.Find("count");
  const JsonValue* sum = json.Find("sum");
  const JsonValue* max = json.Find("max");
  const JsonValue* buckets = json.Find("buckets");
  if (count == nullptr || !count->is_number() || sum == nullptr ||
      !sum->is_number() || max == nullptr || !max->is_number() ||
      buckets == nullptr || !buckets->is_array()) {
    return Status::InvalidArgument("histogram snapshot missing fields");
  }
  out->count = static_cast<uint64_t>(count->as_number());
  out->sum = static_cast<uint64_t>(sum->as_number());
  out->max = static_cast<uint64_t>(max->as_number());
  out->buckets.fill(0);
  for (const JsonValue& pair : buckets->items()) {
    if (!pair.is_array() || pair.items().size() != 2 ||
        !pair.items()[0].is_number() || !pair.items()[1].is_number()) {
      return Status::InvalidArgument("histogram bucket must be [index,count]");
    }
    size_t index = static_cast<size_t>(pair.items()[0].as_number());
    if (index >= HistogramSnapshot::kBuckets) {
      return Status::InvalidArgument("histogram bucket index out of range");
    }
    out->buckets[index] = static_cast<uint64_t>(pair.items()[1].as_number());
  }
  return Status::OK();
}

Status NumberMapFromJson(const JsonValue& json,
                         std::map<std::string, uint64_t>* out) {
  if (!json.is_object()) {
    return Status::InvalidArgument("metric map must be an object");
  }
  for (const auto& [name, value] : json.members()) {
    if (!value.is_number()) {
      return Status::InvalidArgument("metric value must be a number: " + name);
    }
    (*out)[name] = static_cast<uint64_t>(value.as_number());
  }
  return Status::OK();
}

}  // namespace

JsonValue MetricsSnapshot::ToJson() const {
  JsonValue root = JsonValue::Object();
  JsonValue counter_obj = JsonValue::Object();
  for (const auto& [name, value] : counters) {
    counter_obj.Set(name, JsonValue::Number(static_cast<double>(value)));
  }
  root.Set("counters", std::move(counter_obj));
  JsonValue gauge_obj = JsonValue::Object();
  for (const auto& [name, value] : gauges) {
    gauge_obj.Set(name, JsonValue::Number(static_cast<double>(value)));
  }
  root.Set("gauges", std::move(gauge_obj));
  JsonValue histogram_obj = JsonValue::Object();
  for (const auto& [name, snap] : histograms) {
    histogram_obj.Set(name, HistogramToJson(snap));
  }
  root.Set("histograms", std::move(histogram_obj));
  return root;
}

std::string MetricsSnapshot::ToJsonString() const { return ToJson().Dump(); }

Status MetricsSnapshot::FromJson(const JsonValue& json, MetricsSnapshot* out) {
  *out = MetricsSnapshot();
  if (!json.is_object()) {
    return Status::InvalidArgument("metrics snapshot must be an object");
  }
  const JsonValue* counters = json.Find("counters");
  const JsonValue* gauges = json.Find("gauges");
  const JsonValue* histograms = json.Find("histograms");
  if (counters == nullptr || gauges == nullptr || histograms == nullptr) {
    return Status::InvalidArgument(
        "metrics snapshot missing counters/gauges/histograms");
  }
  Status s = NumberMapFromJson(*counters, &out->counters);
  if (!s.ok()) return s;
  s = NumberMapFromJson(*gauges, &out->gauges);
  if (!s.ok()) return s;
  if (!histograms->is_object()) {
    return Status::InvalidArgument("histograms must be an object");
  }
  for (const auto& [name, value] : histograms->members()) {
    HistogramSnapshot snap;
    s = HistogramFromJson(value, &snap);
    if (!s.ok()) return s;
    out->histograms.emplace(name, snap);
  }
  return Status::OK();
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

void MetricsRegistry::RegisterCounter(const std::string& name,
                                      const Counter* counter) {
  std::lock_guard<std::mutex> lock(mu_);
  external_counters_[name] = counter;
}

void MetricsRegistry::RegisterHistogram(const std::string& name,
                                        const Histogram* histogram) {
  std::lock_guard<std::mutex> lock(mu_);
  external_histograms_[name] = histogram;
}

void MetricsRegistry::RegisterCounterFn(const std::string& name,
                                        std::function<uint64_t()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  counter_fns_[name] = std::move(fn);
}

void MetricsRegistry::RegisterGaugeFn(const std::string& name,
                                      std::function<uint64_t()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  gauge_fns_[name] = std::move(fn);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->value();
  }
  for (const auto& [name, counter] : external_counters_) {
    snap.counters[name] = counter->value();
  }
  for (const auto& [name, fn] : counter_fns_) {
    snap.counters[name] = fn();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->value();
  }
  for (const auto& [name, fn] : gauge_fns_) {
    snap.gauges[name] = fn();
  }
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms[name] = histogram->Snapshot();
  }
  for (const auto& [name, histogram] : external_histograms_) {
    snap.histograms[name] = histogram->Snapshot();
  }
  return snap;
}

MetricsRegistry* MetricsRegistry::Global() {
  static MetricsRegistry* global = new MetricsRegistry();
  return global;
}

}  // namespace spitz
