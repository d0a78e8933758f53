// The one-shot probe: one-shot Iso-Map over 10^6 nodes placed uniformly
// at random on a 1000 x 1000 kSloped seabed, queried with
// scaling_query() from a sink at the centre, at pool = min(4, nproc).
// The scenario is built kSetups times, then run_isomap runs a warm-up
// round, kRounds timed rounds and kT1Rounds rounds at one thread.
//
// The traced run of each serve workload runs this probe, and its times
// are per-layer metrics. It is not a workload of its own: a 10^6-node
// round is bound by memory latency, and its time followed the shared
// host's memory load, which drifted by 20-26 % (spread of ten runs)
// within minutes, past any end-to-end bound. README.md gives the runs.

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <string>

#include "eval/metrics.hpp"
#include "exec/exec.hpp"
#include "harness.hpp"
#include "isomap/fingerprint.hpp"
#include "sim/runners.hpp"
#include "sim/scenario.hpp"

namespace isobench {
namespace {

using isomap::IsoMapRun;
using isomap::Scenario;
using isomap::ScenarioConfig;

constexpr int kPoolCap = 4;
constexpr int kNodes = 1000000;
constexpr double kSide = 1000.0;
constexpr int kSetups = 3;     ///< make_scenario calls.
constexpr int kRounds = 9;     ///< Timed rounds at pool min(4, nproc).
constexpr int kT1Rounds = 3;   ///< Rounds pinned to one thread.
constexpr int kProbeReps = 3;  ///< Rebuilds of each setup piece.
constexpr int kAccuracyResolution = 80;

ScenarioConfig scenario_config(std::uint64_t seed) {
  ScenarioConfig config;
  config.num_nodes = kNodes;
  config.field_side = kSide;
  config.field = isomap::FieldKind::kSloped;
  config.seed = seed;
  return config;
}

/// Everything two runs of the same round must agree on bit for bit.
struct RoundDigest {
  std::uint64_t reports = 0;  ///< fingerprint_reports of the sink reports.
  int isoline_nodes = 0;
  int generated = 0;
  int delivered = 0;
  int filtered = 0;
  int lost = 0;
  double tx_bytes = 0.0;
  double rx_bytes = 0.0;
  double ops = 0.0;

  bool operator==(const RoundDigest&) const = default;
};

RoundDigest digest(const IsoMapRun& run, SpanRecorder& spans,
                   std::int64_t op) {
  RoundDigest d;
  {
    const SpanRecorder::Scope s(spans, "isomap", "fingerprint_reports", op);
    d.reports = isomap::fingerprint_reports(run.result.sink_reports);
  }
  const isomap::IsoMapResult& r = run.result;
  d.isoline_nodes = r.isoline_node_count;
  d.generated = r.generated_reports;
  d.delivered = r.delivered_reports;
  d.filtered = r.filtered_reports;
  d.lost = r.lost_channel_reports + r.lost_crash_reports;
  d.tx_bytes = run.summary.ledger.tx_bytes;
  d.rx_bytes = run.summary.ledger.rx_bytes;
  d.ops = run.summary.ledger.ops;
  return d;
}

/// The checks every round must pass on its own.
void check_round(Outcome& out, const RoundDigest& d, const char* which) {
  out.check(d.generated == d.delivered + d.filtered + d.lost,
            std::string(which) +
                ": generated != delivered + filtered + lost");
  const double per_sqrt_n = d.delivered / std::sqrt(static_cast<double>(kNodes));
  out.check(per_sqrt_n >= 0.2 && per_sqrt_n <= 3.0,
            std::string(which) + ": delivered reports / sqrt(n) = " +
                std::to_string(per_sqrt_n) + " outside [0.2, 3]");
  out.check(d.isoline_nodes > 0 && d.delivered > 0,
            std::string(which) + ": degenerate round");
}

/// Phase seconds and call counts of one round, from its RunSummary.
struct RoundSample {
  double wall_s = 0.0;
  std::map<std::string, double> phase_s;
  std::map<std::string, std::size_t> phase_calls;
};

IsoMapRun timed_round(const Scenario& scenario,
                      const isomap::IsoMapOptions& query, SpanRecorder& spans,
                      std::int64_t op, double& wall_s) {
  const SpanRecorder::Scope s(spans, "isomap", "run_isomap", op);
  const auto t0 = Clock::now();
  IsoMapRun run = isomap::run_isomap(scenario, query);
  wall_s = seconds_between(t0, Clock::now());
  return run;
}

}  // namespace

void probe_oneshot(std::uint64_t seed, SpanRecorder& spans, Outcome& out,
                   std::int64_t op) {
  isomap::exec::set_thread_count(pool_threads(kPoolCap));
  const ScenarioConfig config = scenario_config(seed);
  isomap::IsoMapOptions query;
  query.query = isomap::scaling_query();

  std::optional<Scenario> scenario;
  std::vector<double> setup_s;
  for (int k = 0; k < kSetups; ++k, ++op) {
    scenario.reset();
    const SpanRecorder::Scope s(spans, "sim", "make_scenario", op);
    const auto t0 = Clock::now();
    scenario.emplace(isomap::make_scenario(config));
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // Warm-up: starts the pool's threads and fixes the reference outputs.
  RoundDigest reference;
  double report_traffic_bytes = 0.0;
  {
    const SpanRecorder::Scope s(spans, "bench", "warmup_round", op);
    double wall = 0.0;
    IsoMapRun run = timed_round(*scenario, query, spans, op, wall);
    reference = digest(run, spans, op);
    check_round(out, reference, "warm-up round");
    const SpanRecorder::Scope a(spans, "eval", "mapping_accuracy", op);
    const double accuracy = isomap::mapping_accuracy(
        run.result.map, scenario->field, query.query.isolevels(),
        kAccuracyResolution);
    out.check(accuracy >= 0.9, "mapping accuracy " + std::to_string(accuracy) +
                                   " below 90%");
    report_traffic_bytes = run.result.report_traffic_bytes;
    out.attempt(1);
    ++op;
  }

  std::vector<RoundSample> rounds;
  std::vector<double> walls;
  for (int k = 0; k < kRounds; ++k, ++op) {
    const SpanRecorder::Scope s(spans, "bench", "round", op);
    RoundSample sample;
    IsoMapRun run = timed_round(*scenario, query, spans, op, sample.wall_s);
    out.attempt(1);
    const RoundDigest d = digest(run, spans, op);
    check_round(out, d, "round");
    out.check(d == reference, "round differs from the warm-up round");
    for (const auto& [phase, snap] : run.summary.phases) {
      sample.phase_s[phase] = snap.sum;
      sample.phase_calls[phase] = snap.count;
    }
    walls.push_back(sample.wall_s);
    rounds.push_back(std::move(sample));
  }

  std::vector<double> t1_s;
  for (int k = 0; k < kT1Rounds; ++k, ++op) {
    const SpanRecorder::Scope s(spans, "bench", "round_t1", op);
    {
      const SpanRecorder::Scope e(spans, "exec", "set_thread_count", op);
      isomap::exec::set_thread_count(1);
    }
    double wall = 0.0;
    IsoMapRun run = timed_round(*scenario, query, spans, op, wall);
    {
      const SpanRecorder::Scope e(spans, "exec", "set_thread_count", op);
      isomap::exec::set_thread_count(pool_threads(kPoolCap));
    }
    out.attempt(1);
    out.check(digest(run, spans, op) == reference,
              "round at 1 thread differs from the round at " +
                  std::to_string(pool_threads(kPoolCap)) + " threads");
    t1_s.push_back(wall);
  }

  // Setup breakdown: the four rebuilt pieces plus the rest of
  // make_scenario add up to sim.make_scenario_s.
  std::vector<SetupPieces> reps;
  for (int rep = 0; rep < kProbeReps; ++rep, ++op) {
    const SpanRecorder::Scope s(spans, "bench", "setup_probe", op);
    reps.push_back(rebuild_setup(*scenario, spans, out, op));
  }
  out.set("sim.make_scenario_s", median(setup_s), "s");
  emit_setup_breakdown(
      out, reps, median(setup_s),
      static_cast<double>(scenario->graph.csr_edges().size()) / 2.0,
      scenario->tree.depth());

  // Round breakdown of the median round: its top-level phases plus the
  // rest add up to its wall time, which is isomap.run_isomap_s.
  const RoundSample& mid = rounds[quantile_index(walls, 0.5)];
  const auto phase = [&](const char* name) {
    const auto it = mid.phase_s.find(name);
    return it == mid.phase_s.end() ? 0.0 : it->second;
  };
  // filter and route_repair are timed inside report_route.
  double top_level_s = 0.0;
  for (const auto& [name, s] : mid.phase_s)
    if (name != "filter" && name != "route_repair") top_level_s += s;
  out.set("isomap.run_isomap_s", mid.wall_s, "s");
  out.set("isomap.select_s", phase("select"), "s");
  out.set("isomap.gradient_fit_s", phase("gradient_fit"), "s");
  out.set("isomap.report_route_self_s",
          phase("report_route") - phase("filter"), "s");
  out.set("isomap.filter_s", phase("filter"), "s");
  out.set("isomap.map_gen_s", phase("map_gen"), "s");
  out.set("isomap.round_other_s", mid.wall_s - top_level_s, "s");
  const auto calls = mid.phase_calls.find("filter");
  out.set("isomap.filter_calls",
          calls == mid.phase_calls.end()
              ? 0.0
              : static_cast<double>(calls->second),
          "count");

  const RoundDigest& r = reference;
  out.set("isomap.isoline_nodes", r.isoline_nodes, "count");
  out.set("isomap.generated_reports", r.generated, "count");
  out.set("isomap.delivered_reports", r.delivered, "count");
  out.set("isomap.filtered_reports", r.filtered, "count");
  out.set("net.report_traffic_kb", report_traffic_bytes / 1024.0, "KB");
  out.set("isomap.delivered_ratio",
          r.generated > 0 ? static_cast<double>(r.delivered) / r.generated
                          : 0.0,
          "ratio");

  const double t1 = median(t1_s);
  out.set("exec.round_t1_s", t1, "s");
  out.set("exec.round_speedup", mid.wall_s > 0.0 ? t1 / mid.wall_s : 0.0,
          "ratio");
}

}  // namespace isobench
