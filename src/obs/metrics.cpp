#include "obs/metrics.hpp"

namespace isomap::obs {

JsonValue HistogramSnapshot::to_json() const {
  JsonValue v = JsonValue::object();
  v["count"] = JsonValue(count);
  v["min"] = JsonValue(min);
  v["max"] = JsonValue(max);
  v["mean"] = JsonValue(mean);
  v["sum"] = JsonValue(sum);
  v["p50"] = JsonValue(p50);
  v["p95"] = JsonValue(p95);
  return v;
}

HistogramSnapshot HistogramSnapshot::of(const SampleSet& set) {
  HistogramSnapshot s;
  if (set.empty()) return s;
  const std::vector<double> sorted = set.sorted();
  s.count = set.count();
  if (s.count <= SampleSet::kCapacity) {
    s.min = sorted.front();
    s.max = sorted.back();
    for (double x : sorted) s.sum += x;
  } else {
    s.min = set.min();
    s.max = set.max();
    s.sum = set.sum();
  }
  s.mean = s.sum / static_cast<double>(s.count);
  s.p50 = SampleSet::quantile_of_sorted(sorted, 0.50);
  s.p95 = SampleSet::quantile_of_sorted(sorted, 0.95);
  return s;
}

double MetricsRegistry::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

double MetricsRegistry::gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

HistogramSnapshot MetricsRegistry::histogram(const std::string& name) const {
  const auto it = histograms_.find(name);
  if (it == histograms_.end()) return {};
  return HistogramSnapshot::of(it->second);
}

std::map<std::string, HistogramSnapshot> MetricsRegistry::histogram_snapshots()
    const {
  std::map<std::string, HistogramSnapshot> out;
  for (const auto& [name, set] : histograms_)
    out[name] = HistogramSnapshot::of(set);
  return out;
}

void MetricsRegistry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

JsonValue MetricsRegistry::to_json() const {
  JsonValue v = JsonValue::object();
  JsonValue& counters = v["counters"];
  counters = JsonValue::object();
  for (const auto& [name, value] : counters_) counters[name] = JsonValue(value);
  JsonValue& gauges = v["gauges"];
  gauges = JsonValue::object();
  for (const auto& [name, value] : gauges_) gauges[name] = JsonValue(value);
  JsonValue& hists = v["histograms"];
  hists = JsonValue::object();
  for (const auto& [name, set] : histograms_)
    hists[name] = HistogramSnapshot::of(set).to_json();
  return v;
}

}  // namespace isomap::obs
