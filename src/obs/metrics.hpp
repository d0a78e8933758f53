#pragma once

#include <map>
#include <string>

#include "util/json.hpp"
#include "util/stats.hpp"

namespace isomap::obs {

/// JSON value of one SampleSet at snapshot time.
struct HistogramSnapshot {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double sum = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;

  /// Summarize `set` (zeros when empty). While the set is within
  /// capacity every field comes from its sorted samples, the sum
  /// accumulated in ascending order, exactly as the golden capsule
  /// corpus pins it; beyond capacity count/min/max/sum are the set's
  /// exact accumulators and the quantiles are reservoir estimates.
  static HistogramSnapshot of(const SampleSet& set);

  JsonValue to_json() const;
};

/// Named counters, gauges and histograms for one protocol run (or any
/// other scope the caller chooses). Not thread-safe: a registry belongs
/// to the run that owns it, matching the simulator's single-threaded
/// execution model. Lookup is by string name; instrumentation sites are
/// expected to be outside per-sample inner loops (charge aggregates, not
/// individual arithmetic ops).
class MetricsRegistry {
 public:
  /// Monotonic counter: accumulate `delta` (default 1).
  void add(const std::string& name, double delta = 1.0) {
    counters_[name] += delta;
  }

  /// Gauge: last-write-wins value.
  void set(const std::string& name, double value) { gauges_[name] = value; }

  /// Histogram: record one sample (bounded reservoir — see SampleSet).
  void observe(const std::string& name, double value) {
    histograms_[name].add(value);
  }

  /// Stable references to a counter's / histogram's storage, for hot
  /// loops that would otherwise pay a map lookup per emission. std::map
  /// nodes never move, so the reference stays valid for the registry's
  /// lifetime. Looking a slot up creates it (counter 0 / empty
  /// histogram), exactly as add()/observe() would.
  double& counter_slot(const std::string& name) { return counters_[name]; }
  SampleSet& histogram_slot(const std::string& name) {
    return histograms_[name];
  }

  double counter(const std::string& name) const;
  double gauge(const std::string& name) const;
  /// Snapshot of one histogram (zeros when absent).
  HistogramSnapshot histogram(const std::string& name) const;

  const std::map<std::string, double>& counters() const { return counters_; }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  std::map<std::string, HistogramSnapshot> histogram_snapshots() const;

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }
  void clear();

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {...}}}.
  JsonValue to_json() const;

 private:
  std::map<std::string, double> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, SampleSet> histograms_;
};

}  // namespace isomap::obs
