#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/scenario.hpp"
#include "spans.hpp"

namespace isobench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< Length of the measured loop.
  bool trace = false;     ///< Report per-layer metrics instead of end-to-end.
  std::string spans_out;  ///< Where a traced run writes its spans.
};

/// The quantile the end-to-end times report (setup_s aside). On a shared
/// host each vCPU switches, for seconds at a time, between a fast state
/// and one about 1.7x slower, probably a busy sibling on the same
/// physical core, and the share of time in the slow state drifts over
/// minutes. Any quantile near that share flips between the two states
/// from run to run: the median moved by up to 60 %, and the 10th
/// percentile by 30 % once the fast state fell to about a tenth of the
/// time. The 1st percentile stays in the fast state while the host gives
/// any. README.md beside the harness gives the measurements.
constexpr double kFastQuantile = 0.01;

/// The metrics of one measurement pass. The first six are the end-to-end
/// metrics; README.md beside the harness gives each field's meaning per
/// workload.
struct EndToEnd {
  double setup_s = 0.0;
  double round_s = 0.0;  ///< kFastQuantile loop iteration.
  double qps = 0.0;
  double serve_p1_ms = 0.0;
  double tick_p1_ms = 0.0;
  double peak_rss_mb = 0.0;
  double serve_p50_ms = 0.0;
  double serve_p99_ms = 0.0;
  double tick_p50_ms = 0.0;
  double tick_p99_ms = 0.0;
};

/// One named result with its unit, in the order it is printed.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports: its metrics and the tally of correctness
/// checks (`attempted` counts operations — rounds plus queries — and
/// `failed` the checks that did not hold).
class Outcome {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Count a failed check when `ok` is false and say which on stderr.
  void check(bool ok, const std::string& what);
  void attempt(long long operations) { attempted_ += operations; }

  const std::vector<Metric>& metrics() const { return metrics_; }
  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }

 private:
  std::vector<Metric> metrics_;
  long long attempted_ = 0;
  long long failed_ = 0;
};

/// The end-to-end metrics by name and unit (the list BENCHMARK.json names
/// under "end_to_end").
void emit_end_to_end(Outcome& out, const EndToEnd& e);

/// Tracing overhead: the traced pass's end-to-end metrics minus the
/// untraced pass's, as per-layer metrics "trace.<metric>_delta".
void emit_trace_overhead(Outcome& out, const EndToEnd& traced,
                         const EndToEnd& untraced);

/// The medians and p99 tails, as per-layer metrics: from run to run of the
/// same code their spread was 0.2 to 0.6 (medians) and 0.5 to 2.2 (p99s)
/// of their median, too wide for an end-to-end bound.
void emit_percentiles(Outcome& out, const EndToEnd& e);

/// Per-layer self time from the traced pass's spans, one metric
/// "span.<layer>.self_s" for every layer in kSpanLayers.
void emit_span_self_times(Outcome& out, const SpanRecorder& spans);

/// Linear-interpolation quantile of `xs` (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> xs, double q);

/// Index of the lower q-quantile of `xs`, the sample of rank
/// floor(q * (size - 1)) (0 when empty). It is always one of the samples,
/// so a breakdown of that sample adds up to the quantile exactly.
std::size_t quantile_index(const std::vector<double>& xs, double q);

/// The lower q-quantile of `xs`; 0 when empty.
double lower_quantile(const std::vector<double>& xs, double q);

/// The lower median of `xs`; 0 when empty.
double median(const std::vector<double>& xs);

/// Moves the calling thread round-robin over the CPUs it may run on, so
/// that a single-threaded loop samples every vCPU's state for the same
/// share of the run instead of the one the scheduler happened to leave it
/// on. Restores the thread's CPU set when destroyed. Does nothing where
/// thread affinity is unavailable.
class CpuRotation {
 public:
  /// Slice length for a timed loop: slice(elapsed) changes CPU this often.
  static constexpr double kSliceSeconds = 0.25;
  static long long slice(double elapsed_s) {
    return static_cast<long long>(elapsed_s / kSliceSeconds);
  }

  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  /// Pin to CPU number `slice` modulo the CPU count, if `slice` differs
  /// from the previous call's.
  void step(long long slice);

 private:
  std::vector<int> cpus_;
  std::vector<unsigned char> saved_;  ///< The original CPU set.
  long long slice_ = -1;
};

/// Exec pool size: min(cap, hardware threads).
int pool_threads(int cap);

/// Current process RSS in MB.
double current_rss_mb();
/// Process peak RSS in MB.
double peak_rss_mb();

/// Seconds spent in each piece of make_scenario.
struct SetupPieces {
  double deploy_s = 0.0;
  double comm_graph_s = 0.0;
  double routing_tree_s = 0.0;
  double sample_s = 0.0;
};

/// Rebuild the scenario's deployment, CommGraph, RoutingTree and readings
/// from outside, on its own config, timing each piece, and check that the
/// rebuilds equal the scenario's.
SetupPieces rebuild_setup(const isomap::Scenario& scenario,
                          SpanRecorder& spans, Outcome& out, std::int64_t op);

/// Per-layer setup metrics: the median of each piece over `reps`, and
/// sim.setup_other_s = `setup_s`, the set-up time the pieces belong to,
/// minus those medians.
void emit_setup_breakdown(Outcome& out, const std::vector<SetupPieces>& reps,
                          double setup_s, double graph_edges,
                          double tree_depth);

/// Run one serve workload into `out`. `spans` records the traced pass
/// (enabled only with --trace 1).
void run_serve(const Options& options, SpanRecorder& spans, Outcome& out,
               bool drift);

/// The one-shot probe of a traced run: builds and maps a 10^6-node
/// scenario on `seed` and sets the per-layer metrics of the set-up
/// pieces (sim.make_scenario_s and its breakdown) and of the one-shot
/// round (isomap.run_isomap_s, its phases and counts, thread scaling).
/// Operation ids start at `op`.
void probe_oneshot(std::uint64_t seed, SpanRecorder& spans, Outcome& out,
                   std::int64_t op);

}  // namespace isobench
