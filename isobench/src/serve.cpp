// Workloads serve_hot and serve_drift: an IsoMapService with four shards
// of 2,500 nodes on 50 x 50 fields (the paper's default density),
// alternating harbor and multi-basin, four isolevels each, driven as a
// closed loop by one client thread at pool 1: tick(), then
// serve_batch() of the tick's 256-query mix. serve_hot freezes every
// field and asks the full level set, so the cache answers nearly
// everything; serve_drift drifts every field 0.07 of the blend per round
// and asks random level subsets, so most queries miss and bodies are
// rebuilt every tick.
//
// The measured loop moves its thread round-robin over the vCPUs
// (CpuRotation), and its times report the 1st percentile
// (kFastQuantile): on a shared host a single thread's median flips with
// the state of the one vCPU it sits on.
//
// The service's own oracle lane is off: the harness re-derives every
// kOracleEvery-th response with IsoMapService::oracle_check after the
// batch returns, outside the timed region.

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>

#include "exec/exec.hpp"
#include "field/bathymetry.hpp"
#include "field/blended_field.hpp"
#include "harness.hpp"
#include "isomap/continuous.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "serve/scenario.hpp"
#include "serve/service.hpp"
#include "sim/runners.hpp"
#include "util/rng.hpp"

namespace isobench {
namespace {

using isomap::serve::DeploymentSpec;
using isomap::serve::IsoMapService;
using isomap::serve::QueryRequest;
using isomap::serve::ServiceScenario;

/// The measured loop runs at pool 1. A tick is one parallel region of four
/// shard rounds of a few ms, so at a larger pool it waits for the slowest
/// vCPU: on a shared 4-vCPU host tick_p50_ms moved by up to 45 % from run
/// to run at pool 2, against 7 % at pool 1. The standalone mapper probe
/// measures thread scaling at pool min(4, nproc) instead.
constexpr int kPool = 1;
constexpr int kProbePoolCap = 4;
constexpr int kShards = 4;
constexpr int kShardNodes = 2500;
constexpr double kShardSide = 50.0;
constexpr int kLevels = 4;
constexpr int kQueriesPerTick = 256;
constexpr double kDriftPerRound = 0.07;
/// setup_s is the median of kSetups set-up times, each the fastest of
/// kSetupTries constructions of a spare service. The constructions are
/// spread evenly over the measured seconds, between loop iterations, so
/// that set-up is timed at the same moments and on the same vCPUs as the
/// loop. A construction takes about 0.1 s on one vCPU: a plain median of
/// 16 constructions made before the loop moved by 28-48 % between sets of
/// ten runs minutes apart, and the best of 8 made back to back still
/// read the slow state in four runs of five, while the loop's 1st
/// percentiles held.
constexpr int kSetups = 7;
constexpr int kSetupTries = 8;
constexpr int kWarmupTicks = 2;  ///< Untimed ticks that fill the caches.
/// The measured loop runs for the measured seconds and at least this many
/// ticks, so each p99 has at least ten samples beyond it. peak_rss_mb is
/// read right after this tick: the service keeps every latency sample, so
/// RSS read later would grow with the number of queries a run managed to
/// serve (growth past this point shows in util.rss_growth_mb).
constexpr long long kMinTicks = 1000;
constexpr long long kOracleEvery = 509;  ///< Prime: rotates over shards.
constexpr int kProbeRounds = 150;  ///< Standalone ContinuousMapper rounds.
constexpr std::int64_t kProbeOp = 1'000'000'000;  ///< First probe op id.
constexpr std::int64_t kOneShotOp = 2'000'000'000;  ///< First one-shot op id.

ServiceScenario service_scenario(std::uint64_t seed, bool drift) {
  isomap::Rng rng(seed);
  ServiceScenario sc;
  sc.name = drift ? "serve_drift" : "serve_hot";
  sc.oracle_check_every = 0;
  for (int i = 0; i < kShards; ++i) {
    const bool harbor = i % 2 == 0;
    DeploymentSpec d;
    d.name = (harbor ? "harbor" : "basin") + std::to_string(i);
    d.nodes = kShardNodes;
    d.field_side = kShardSide;
    d.field = harbor ? isomap::FieldKind::kHarbor : isomap::FieldKind::kMultiBasin;
    d.drift_target =
        harbor ? isomap::FieldKind::kSilted : isomap::FieldKind::kSloped;
    d.drift_per_round = drift ? kDriftPerRound : 0.0;
    d.seed = rng.next();
    d.num_levels = kLevels;
    sc.deployments.push_back(d);
  }
  sc.query_mix.queries_per_tick = kQueriesPerTick;
  sc.query_mix.subset_fraction = drift ? 1.0 : 0.0;
  sc.query_mix.seed = rng.next();
  return sc;
}

/// Service counters over the measured ticks only.
struct ServeCounters {
  long long ticks = 0;
  long long queries = 0;
  long long hits = 0;
  long long misses = 0;
  long long bodies_built = 0;
  double body_bytes = 0.0;  ///< Summed size of the bodies built.
};

struct Pass {
  EndToEnd e2e;
  ServeCounters counters;
  double lookup_us_p50 = 0.0;
  double build_us_p50 = 0.0;
  double cache_size = 0.0;
  double rss_growth_mb = 0.0;
};

/// One closed-loop iteration's timings, in seconds.
struct Iteration {
  double tick_s = 0.0;
  double serve_s = 0.0;
};

/// One closed-loop iteration: tick(), then serve the tick's mix, then
/// check the responses (untimed). Adds the iteration's service counters
/// to `counters` when it is given.
Iteration iterate(IsoMapService& service, SpanRecorder& spans, Outcome& out,
                  std::int64_t op, long long& queries_sent,
                  ServeCounters* counters) {
  const SpanRecorder::Scope root(spans, "bench", "iteration", op);
  Iteration it;
  {
    const SpanRecorder::Scope s(spans, "serve", "tick", op);
    const auto t0 = Clock::now();
    service.tick();
    it.tick_s = seconds_between(t0, Clock::now());
  }
  std::vector<QueryRequest> mix;
  {
    const SpanRecorder::Scope s(spans, "serve", "mix_for_tick", op);
    mix = service.mix_for_tick();
  }
  std::vector<QueryRequest> batch;
  batch.reserve(mix.size());
  {
    const SpanRecorder::Scope s(spans, "serve", "normalize_levels", op);
    for (QueryRequest& q : mix)
      if (service.normalize_levels(q)) batch.push_back(std::move(q));
  }
  const long long unservable =
      static_cast<long long>(mix.size() - batch.size());
  for (long long u = 0; u < unservable; ++u)
    out.check(false, "unservable request in the tick's mix");
  out.attempt(1 + static_cast<long long>(mix.size()));

  const isomap::serve::ServiceStats before = service.stats();
  std::vector<isomap::serve::QueryResponse> responses;
  {
    const SpanRecorder::Scope s(spans, "serve", "serve_batch", op);
    const auto t0 = Clock::now();
    responses = service.serve_batch(batch);
    it.serve_s = seconds_between(t0, Clock::now());
  }

  out.check(responses.size() == batch.size(),
            "serve_batch returned a different number of responses");
  std::unordered_set<const std::string*> built;
  double built_bytes = 0.0;
  for (std::size_t i = 0; i < responses.size() && i < batch.size(); ++i) {
    const auto& r = responses[i];
    ++queries_sent;
    if (!r.body || r.body->empty()) {
      out.check(false, "empty response body");
      continue;
    }
    if (!r.cache_hit && built.insert(r.body.get()).second)
      built_bytes += static_cast<double>(r.body->size());
    if (queries_sent % kOracleEvery == 0) {
      const SpanRecorder::Scope s(spans, "serve", "oracle_check", op);
      const auto divergence = service.oracle_check(batch[i], *r.body);
      out.check(!divergence, divergence ? *divergence : std::string());
    }
  }
  const isomap::serve::ServiceStats& after = service.stats();
  out.check(after.queries - before.queries ==
                static_cast<long long>(batch.size()),
            "service counted a different number of queries");
  if (counters != nullptr) {
    ++counters->ticks;
    counters->queries += after.queries - before.queries;
    counters->hits += after.cache_hits - before.cache_hits;
    counters->misses += after.cache_misses - before.cache_misses;
    counters->bodies_built +=
        after.unique_bodies_built - before.unique_bodies_built;
    counters->body_bytes += built_bytes;
  }
  return it;
}

/// One measurement pass: kWarmupTicks untimed iterations, then
/// iterations for the measured seconds with the set-up constructions
/// between them.
Pass measure(const Options& options, bool drift, SpanRecorder& spans,
             Outcome& out) {
  Pass pass;
  std::int64_t op = 0;
  const ServiceScenario scenario = service_scenario(options.seed, drift);
  auto service = std::make_unique<IsoMapService>(scenario);
  long long queries_sent = 0;
  for (int k = 0; k < kWarmupTicks; ++k, ++op)
    iterate(*service, spans, out, op, queries_sent, nullptr);

  std::vector<double> tick_s, serve_s, round_s, qps, setup_tries;
  constexpr std::size_t kConstructions = kSetups * kSetupTries;
  double rss_third = -1.0;
  CpuRotation rotation;
  const auto loop_start = Clock::now();
  for (;; ++op) {
    const double elapsed = seconds_between(loop_start, Clock::now());
    rotation.step(CpuRotation::slice(elapsed));
    const auto ticks = static_cast<long long>(tick_s.size());
    if (ticks == kMinTicks) {
      const SpanRecorder::Scope s(spans, "util", "peak_rss_bytes", op);
      pass.e2e.peak_rss_mb = peak_rss_mb();
    }
    if (elapsed >= options.seconds && ticks >= kMinTicks &&
        setup_tries.size() == kConstructions)
      break;
    if (rss_third < 0.0 && elapsed >= options.seconds / 3.0) {
      const SpanRecorder::Scope s(spans, "util", "current_rss_bytes", op);
      rss_third = current_rss_mb();
    }
    if (setup_tries.size() < kConstructions &&
        elapsed >= options.seconds * static_cast<double>(setup_tries.size()) /
                       kConstructions) {
      std::unique_ptr<IsoMapService> spare;
      {
        const SpanRecorder::Scope s(spans, "serve", "IsoMapService", op);
        const auto t0 = Clock::now();
        spare = std::make_unique<IsoMapService>(scenario);
        setup_tries.push_back(seconds_between(t0, Clock::now()));
      }
    }
    const long long queries_before = pass.counters.queries;
    const Iteration it =
        iterate(*service, spans, out, op, queries_sent, &pass.counters);
    tick_s.push_back(it.tick_s);
    serve_s.push_back(it.serve_s);
    round_s.push_back(it.tick_s + it.serve_s);
    qps.push_back(static_cast<double>(pass.counters.queries - queries_before) /
                  std::max(it.serve_s, 1e-9));
  }
  {
    const SpanRecorder::Scope s(spans, "util", "current_rss_bytes", op);
    pass.rss_growth_mb = current_rss_mb() - std::max(rss_third, 0.0);
  }
  out.check(!tick_s.empty(), "no tick finished in the measured seconds");

  std::vector<double> setup_s;
  for (std::size_t k = 0; k < kConstructions; k += kSetupTries)
    setup_s.push_back(*std::min_element(setup_tries.begin() + k,
                                        setup_tries.begin() + k + kSetupTries));
  pass.e2e.setup_s = median(setup_s);

  pass.e2e.round_s = lower_quantile(round_s, kFastQuantile);
  pass.e2e.qps = lower_quantile(qps, 1.0 - kFastQuantile);
  pass.e2e.serve_p1_ms = lower_quantile(serve_s, kFastQuantile) * 1e3;
  pass.e2e.tick_p1_ms = lower_quantile(tick_s, kFastQuantile) * 1e3;
  pass.e2e.serve_p50_ms = median(serve_s) * 1e3;
  pass.e2e.serve_p99_ms = quantile(serve_s, 0.99) * 1e3;
  pass.e2e.tick_p50_ms = median(tick_s) * 1e3;
  pass.e2e.tick_p99_ms = quantile(tick_s, 0.99) * 1e3;
  const auto p50 = [](const isomap::SampleSet& set) {
    return set.count() > 0 ? set.quantile(0.5) : 0.0;
  };
  pass.lookup_us_p50 = p50(service->latency_hits());
  pass.build_us_p50 = p50(service->latency_misses());
  pass.cache_size = static_cast<double>(service->cache_size());
  return pass;
}

/// Shard 0's deployment driven through a standalone ContinuousMapper, on
/// the service's drift schedule, at pool min(4, nproc) and at one thread.
struct ContinuousProbe {
  double sample_ms = 0.0;  ///< Median per round.
  double round_ms = 0.0;   ///< Median per round at pool min(4, nproc).
  double round_t1_ms = 0.0;
  double adds = 0.0;  ///< Means per round, first round excluded.
  double refreshes = 0.0;
  double withdrawals = 0.0;
  double suppressed = 0.0;
  double levels_changed_frac = 0.0;
};

ContinuousProbe probe_continuous(const DeploymentSpec& spec,
                                 SpanRecorder& spans, Outcome& out,
                                 std::int64_t op) {
  const isomap::Scenario sc = isomap::make_scenario(spec.to_config());
  isomap::ContinuousOptions copts;
  copts.base = isomap::isomap_options(sc, spec.num_levels);
  copts.stale_rounds = spec.stale_rounds;
  copts.engine = spec.engine;
  // The service's drift schedule for a harbor shard (see
  // IsoMapService::tick): triangular blend toward the silted harbor.
  const isomap::GaussianField target =
      isomap::silted_harbor_bathymetry(sc.field.bounds());

  ContinuousProbe probe;
  std::vector<std::vector<std::uint64_t>> fingerprints[2];
  std::vector<double> sample_ms, round_ms[2];
  const int threads[2] = {pool_threads(kProbePoolCap), 1};
  for (int t = 0; t < 2; ++t) {
    isomap::exec::set_thread_count(threads[t]);
    isomap::ContinuousMapper mapper(copts, sc.deployment, sc.graph, sc.tree);
    isomap::Ledger ledger(sc.deployment.size());
    isomap::obs::MetricsRegistry metrics;
    std::vector<double> readings(static_cast<std::size_t>(sc.deployment.size()));
    for (int round = 1; round <= kProbeRounds; ++round, ++op) {
      const SpanRecorder::Scope root(spans, "bench", "probe_round", op);
      const isomap::obs::ObsScope scope(&metrics, nullptr);
      const double m = std::fmod(spec.drift_per_round * (round - 1), 2.0);
      const double alpha = 1.0 - std::abs(1.0 - m);
      const isomap::BlendedField blended(sc.field, target, alpha);
      const isomap::ScalarField& field =
          alpha > 0.0 ? static_cast<const isomap::ScalarField&>(blended)
                      : sc.field;
      {
        const SpanRecorder::Scope s(spans, "field", "ScalarField::value", op);
        const auto t0 = Clock::now();
        for (const auto& node : sc.deployment.nodes())
          if (node.alive)
            readings[static_cast<std::size_t>(node.id)] = field.value(node.pos);
        if (t == 0) sample_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
      }
      std::optional<isomap::RoundResult> r;
      {
        const SpanRecorder::Scope s(spans, "isomap",
                                    "ContinuousMapper::round", op);
        const auto t0 = Clock::now();
        r.emplace(mapper.round(readings, ledger));
        round_ms[t].push_back(seconds_between(t0, Clock::now()) * 1e3);
      }
      fingerprints[t].push_back(mapper.level_fingerprints());
      if (t == 0 && round > 1) {
        probe.adds += r->adds;
        probe.refreshes += r->refreshes;
        probe.withdrawals += r->withdrawals;
        probe.suppressed += r->suppressed;
      }
    }
  }
  isomap::exec::set_thread_count(kPool);
  out.check(fingerprints[0] == fingerprints[1],
            "standalone ContinuousMapper rounds differ between " +
                std::to_string(threads[0]) + " threads and 1 thread");

  const double later_rounds = kProbeRounds - 1;
  probe.adds /= later_rounds;
  probe.refreshes /= later_rounds;
  probe.withdrawals /= later_rounds;
  probe.suppressed /= later_rounds;
  long long changed = 0, compared = 0;
  for (std::size_t r = 1; r < fingerprints[0].size(); ++r)
    for (std::size_t k = 0; k < fingerprints[0][r].size(); ++k, ++compared)
      changed += fingerprints[0][r][k] != fingerprints[0][r - 1][k];
  probe.levels_changed_frac =
      compared > 0 ? static_cast<double>(changed) / compared : 0.0;
  // The first round evaluates every node; the medians are of the rest.
  sample_ms.erase(sample_ms.begin());
  round_ms[0].erase(round_ms[0].begin());
  round_ms[1].erase(round_ms[1].begin());
  probe.sample_ms = median(sample_ms);
  probe.round_ms = median(round_ms[0]);
  probe.round_t1_ms = median(round_ms[1]);
  return probe;
}

}  // namespace

void run_serve(const Options& options, SpanRecorder& spans, Outcome& out,
               bool drift) {
  isomap::exec::set_thread_count(kPool);
  SpanRecorder untraced(false);
  const Pass plain = measure(options, drift, untraced, out);
  if (!options.trace) {
    emit_end_to_end(out, plain.e2e);
    return;
  }

  const Pass traced = measure(options, drift, spans, out);
  emit_trace_overhead(out, traced.e2e, plain.e2e);
  emit_percentiles(out, plain.e2e);
  out.set("util.rss_growth_mb", plain.rss_growth_mb, "MB");

  const ServiceScenario scenario = service_scenario(options.seed, drift);
  const ServeCounters& c = traced.counters;
  out.set("serve.lookup_us_p50", traced.lookup_us_p50, "us");
  out.set("serve.hit_ratio",
          c.queries > 0 ? static_cast<double>(c.hits) / c.queries : 0.0,
          "ratio");
  out.set("serve.cache_size", traced.cache_size, "count");
  out.set("serve.build_us_p50", traced.build_us_p50, "us");
  out.set("serve.bodies_built",
          c.ticks > 0 ? static_cast<double>(c.bodies_built) / c.ticks : 0.0,
          "count");
  out.set("serve.body_bytes_mean",
          c.bodies_built > 0 ? c.body_bytes / c.bodies_built : 0.0, "B");
  out.set("serve.dedup_ratio",
          c.misses > 0 ? static_cast<double>(c.bodies_built) / c.misses : 0.0,
          "ratio");

  const ContinuousProbe p = probe_continuous(scenario.deployments.front(),
                                             spans, out, kProbeOp);
  out.set("continuous.sample_ms", p.sample_ms, "ms");
  out.set("continuous.round_ms", p.round_ms, "ms");
  out.set("continuous.adds", p.adds, "count");
  out.set("continuous.refreshes", p.refreshes, "count");
  out.set("continuous.withdrawals", p.withdrawals, "count");
  out.set("continuous.suppressed", p.suppressed, "count");
  out.set("continuous.levels_changed_frac", p.levels_changed_frac, "ratio");
  out.set("exec.tick_t1_ms", p.round_t1_ms, "ms");
  out.set("exec.tick_speedup",
          p.round_ms > 0.0 ? p.round_t1_ms / p.round_ms : 0.0, "ratio");

  probe_oneshot(options.seed, spans, out, kOneShotOp);
}

}  // namespace isobench
