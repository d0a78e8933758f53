// Spatial telemetry tests: the NodeTelemetry flight recorder's charge
// arithmetic, phase lanes, snapshot/summary shapes; hop-path
// reconstruction from span/loss trace events of a real traced run; and
// the bounded-reservoir histogram's bit-compat + determinism contracts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/node_telemetry.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "sim/runners.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace isomap {
namespace {

TEST(NodeTelemetry, ChargesAccumulatePerNodeAndPerPhase) {
  obs::NodeTelemetry t(4);
  t.charge_tx(1, 10.0, "select");
  t.charge_tx(1, 6.0, "select");
  t.charge_rx(2, 10.0, "select");
  t.charge_tx(1, 4.0, "filter");
  t.charge_ops(3, 7.0);
  t.add_retry(1);
  t.add_drop(2);
  t.count_generated(1);
  t.count_delivered(1);
  t.set_hops(2, 3);

  EXPECT_DOUBLE_EQ(t.tx_bytes(1), 20.0);
  EXPECT_DOUBLE_EQ(t.rx_bytes(2), 10.0);
  EXPECT_DOUBLE_EQ(t.ops(3), 7.0);
  EXPECT_EQ(t.retries(1), 1);
  EXPECT_EQ(t.drops(2), 1);
  EXPECT_EQ(t.generated(1), 1);
  EXPECT_EQ(t.delivered(1), 1);
  EXPECT_EQ(t.hops(2), 3);
  EXPECT_EQ(t.hops(0), -1);  // Unknown until set.
  EXPECT_DOUBLE_EQ(t.total_tx_bytes(), 20.0);
  EXPECT_DOUBLE_EQ(t.total_rx_bytes(), 10.0);

  // Per-phase lanes split the same totals.
  const std::vector<double>* select_tx = t.phase_tx("select");
  ASSERT_NE(select_tx, nullptr);
  EXPECT_DOUBLE_EQ((*select_tx)[1], 16.0);
  const std::vector<double>* filter_tx = t.phase_tx("filter");
  ASSERT_NE(filter_tx, nullptr);
  EXPECT_DOUBLE_EQ((*filter_tx)[1], 4.0);
  EXPECT_EQ(t.phase_tx("no_such_phase"), nullptr);

  // The energy model prices the charges.
  const double want = t.energy.energy_j(20.0, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(t.energy_j(1), want);
}

TEST(NodeTelemetry, SnapshotCarriesSortedPhaseLanes) {
  obs::NodeTelemetry t(2);
  t.charge_tx(0, 1.0, "zeta");
  t.charge_tx(0, 2.0, "alpha");
  const obs::NodeTelemetrySnapshot snap = t.snapshot();
  EXPECT_EQ(snap.size(), 2);
  ASSERT_EQ(snap.phases.size(), 2u);
  EXPECT_EQ(snap.phases[0].phase, "alpha");
  EXPECT_EQ(snap.phases[1].phase, "zeta");
  EXPECT_DOUBLE_EQ(snap.tx_bytes[0], 3.0);
  // to_json round-trips through the parser.
  const auto parsed = JsonValue::parse(snap.to_json().dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(static_cast<int>(parsed->find("nodes")->as_number()), 2);
}

TEST(NodeTelemetry, SummaryBalancesAndHotspots) {
  obs::NodeTelemetry t(4);
  // One hog, one modest node, two idle.
  t.charge_tx(2, 100.0, "select");
  t.charge_tx(0, 10.0, "select");
  t.set_hops(2, 5);
  const obs::NodeTelemetrySummary s = t.summarize(/*top_k=*/2);
  EXPECT_EQ(s.nodes, 4);
  EXPECT_EQ(s.active_nodes, 2);
  ASSERT_GE(s.hotspots.size(), 1u);
  EXPECT_EQ(s.hotspots[0], 2);  // Highest energy first.
  EXPECT_DOUBLE_EQ(s.max_tx_bytes, 100.0);
  EXPECT_DOUBLE_EQ(s.mean_tx_bytes, 110.0 / 4.0);
  EXPECT_GT(s.energy_gini, 0.0);  // Unbalanced by construction.
  EXPECT_GT(s.energy_max_over_mean, 1.0);
  EXPECT_EQ(s.max_hops, 5);

  // A perfectly even table has zero Gini.
  obs::NodeTelemetry even(3);
  for (int v = 0; v < 3; ++v) even.charge_tx(v, 8.0, "select");
  EXPECT_DOUBLE_EQ(even.summarize().energy_gini, 0.0);
}

TEST(NodeTelemetry, ObsContextRoutesChargesOnlyWhileInstalled) {
  obs::NodeTelemetry t(2);
  EXPECT_EQ(obs::telemetry(), nullptr);
  {
    obs::ObsScope scope(nullptr, nullptr, &t);
    ASSERT_EQ(obs::telemetry(), &t);
    obs::telemetry()->charge_tx(0, 5.0, "select");
  }
  EXPECT_EQ(obs::telemetry(), nullptr);
  EXPECT_DOUBLE_EQ(t.tx_bytes(0), 5.0);
}

// --- Span/loss events: per-report hop paths from a traced run. --------

struct Span {
  int node = -1;
  int peer = -1;
  int hop = -1;
};

TEST(SpanTrace, ReportPathsReconstructFromTraceEvents) {
  ScenarioConfig config;
  config.num_nodes = 400;
  config.seed = 9;
  const Scenario s = make_scenario(config);
  IsoMapOptions options = isomap_options(s, 4);
  options.query.enable_filtering = false;  // Every chain delivers or is lost.
  options.fault.crash_fraction = 0.05;  // Some losses, to exercise "loss".
  options.fault.seed = 17;

  std::ostringstream out;
  obs::TraceSink sink(out);
  obs::NodeTelemetry telemetry(s.graph.size());
  const IsoMapRun run = run_isomap(s, options, &sink, &telemetry);
  sink.flush();

  // Collect span hops and loss markers per report id.
  std::map<long long, std::vector<Span>> spans;
  std::set<long long> lost;
  std::istringstream in(out.str());
  std::string line;
  while (std::getline(in, line)) {
    const auto parsed = JsonValue::parse(line);
    ASSERT_TRUE(parsed && parsed->is_object()) << line;
    const std::string kind = parsed->string_or("kind", "");
    if (kind != "span" && kind != "loss") continue;
    const long long report =
        static_cast<long long>(parsed->number_or("report", -1.0));
    ASSERT_GE(report, 0) << line;
    if (kind == "loss") {
      lost.insert(report);
      continue;
    }
    spans[report].push_back(
        {static_cast<int>(parsed->number_or("node", -1.0)),
         static_cast<int>(parsed->number_or("peer", -1.0)),
         static_cast<int>(parsed->number_or("hop", -1.0))});
  }

  // Every generated report opened a causal chain with a hop-0 span.
  EXPECT_EQ(static_cast<long long>(spans.size()),
            static_cast<long long>(run.result.generated_reports));
  int delivered_chains = 0;
  for (const auto& [report, chain] : spans) {
    // Hops are contiguous from 0 — generation, then one span per relay.
    for (std::size_t i = 0; i < chain.size(); ++i)
      EXPECT_EQ(chain[i].hop, static_cast<int>(i)) << "report " << report;
    // Transit spans hand over node -> peer: each hop starts where the
    // previous one landed.
    for (std::size_t i = 2; i < chain.size(); ++i)
      EXPECT_EQ(chain[i].node, chain[i - 1].peer) << "report " << report;
    if (lost.count(report) != 0) continue;
    // With filtering off, every un-lost chain terminates at the sink —
    // via its last handover, or trivially when the sink was the source.
    ++delivered_chains;
    ASSERT_FALSE(chain.empty());
    if (chain.size() > 1)
      EXPECT_EQ(chain.back().peer, s.tree.sink()) << "report " << report;
    else
      EXPECT_EQ(chain.front().node, s.tree.sink()) << "report " << report;
  }
  EXPECT_EQ(delivered_chains, run.result.delivered_reports);
  // Loss markers only reference reports that were actually generated.
  for (const long long report : lost) EXPECT_TRUE(spans.count(report) != 0);
}

// --- Reservoir histogram contracts. -----------------------------------

// Sort-and-interpolate oracle: the retain-all summary every snapshot
// reproduced before sample sets were bounded, and which the golden
// capsules pin (sum accumulated over the *sorted* samples).
obs::HistogramSnapshot summarize_samples(std::vector<double> samples) {
  obs::HistogramSnapshot s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.count = samples.size();
  s.min = samples.front();
  s.max = samples.back();
  for (double x : samples) s.sum += x;
  s.mean = s.sum / static_cast<double>(s.count);
  const auto quantile = [&](double q) {
    const double idx = q * static_cast<double>(s.count - 1);
    const auto lo = static_cast<std::size_t>(idx);
    const auto hi = std::min(lo + 1, s.count - 1);
    const double frac = idx - static_cast<double>(lo);
    return samples[lo] * (1.0 - frac) + samples[hi] * frac;
  };
  s.p50 = quantile(0.50);
  s.p95 = quantile(0.95);
  return s;
}

void expect_bitwise_equal(const obs::HistogramSnapshot& a,
                          const obs::HistogramSnapshot& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p95, b.p95);
}

TEST(ReservoirHistogram, WithinCapacityMatchesRetainAllBitwise) {
  SampleSet h;
  std::vector<double> samples;
  for (int i = 0; i < 1000; ++i) {
    const double v = std::sin(static_cast<double>(i)) * 1e3;
    h.add(v);
    samples.push_back(v);
  }
  expect_bitwise_equal(obs::HistogramSnapshot::of(h),
                       summarize_samples(samples));
  EXPECT_EQ(h.quantile(0.95), summarize_samples(samples).p95);
}

TEST(ReservoirHistogram, ExactUpToCapacityInclusive) {
  SampleSet h;
  std::vector<double> samples;
  for (std::size_t i = 0; i < SampleSet::kCapacity; ++i) {
    const double v = std::cos(static_cast<double>(i)) * 1e-3;
    h.add(v);
    samples.push_back(v);
  }
  expect_bitwise_equal(obs::HistogramSnapshot::of(h),
                       summarize_samples(samples));
  // One more sample leaves the exact regime: the reservoir stays full.
  h.add(2.0);
  EXPECT_EQ(h.count(), SampleSet::kCapacity + 1);
  EXPECT_EQ(h.sorted().size(), SampleSet::kCapacity);
  EXPECT_EQ(obs::HistogramSnapshot::of(h).max, 2.0);
}

TEST(ReservoirHistogram, BeyondCapacityStaysExactWhereItPromises) {
  constexpr std::size_t kTotal = 100000;  // 24x the reservoir.
  SampleSet h;
  double sum = 0.0;
  for (std::size_t i = 0; i < kTotal; ++i) {
    const double v = static_cast<double>(i % 997);
    sum += v;
    h.add(v);
  }
  const obs::HistogramSnapshot snap = obs::HistogramSnapshot::of(h);
  // count/min/max/sum come from running accumulators — exact regardless
  // of what the reservoir kept — and the reservoir itself stays bounded.
  EXPECT_EQ(snap.count, kTotal);
  EXPECT_EQ(h.sorted().size(), SampleSet::kCapacity);
  EXPECT_DOUBLE_EQ(snap.min, 0.0);
  EXPECT_DOUBLE_EQ(snap.max, 996.0);
  EXPECT_DOUBLE_EQ(snap.sum, sum);
  // Quantiles are estimates from a uniform sample: sane, in range.
  EXPECT_GE(snap.p50, 0.0);
  EXPECT_LE(snap.p50, 996.0);
  EXPECT_GE(snap.p95, snap.p50);

  // The fixed-seed reservoir is deterministic: an identical stream gives
  // an identical snapshot, bit for bit.
  SampleSet again;
  for (std::size_t i = 0; i < kTotal; ++i)
    again.add(static_cast<double>(i % 997));
  const obs::HistogramSnapshot replay = obs::HistogramSnapshot::of(again);
  EXPECT_EQ(snap.p50, replay.p50);
  EXPECT_EQ(snap.p95, replay.p95);
  EXPECT_EQ(snap.sum, replay.sum);
}

}  // namespace
}  // namespace isomap
