#include <algorithm>
#include <iostream>
#include <optional>
#include <thread>
#include <utility>

#ifdef __linux__
#include <sched.h>
#endif

#include "harness.hpp"
#include "util/mem.hpp"
#include "util/rng.hpp"

namespace isobench {

void Outcome::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : metrics_)
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  metrics_.push_back({name, value, unit});
}

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  ++failed_;
  std::cerr << "[isobench] check failed: " << what << "\n";
}

void emit_end_to_end(Outcome& out, const EndToEnd& e) {
  out.set("setup_s", e.setup_s, "s");
  out.set("round_s", e.round_s, "s");
  out.set("qps", e.qps, "1/s");
  out.set("serve_p1_ms", e.serve_p1_ms, "ms");
  out.set("tick_p1_ms", e.tick_p1_ms, "ms");
  out.set("peak_rss_mb", e.peak_rss_mb, "MB");
}

void emit_trace_overhead(Outcome& out, const EndToEnd& t, const EndToEnd& u) {
  out.set("trace.setup_s_delta", t.setup_s - u.setup_s, "s");
  out.set("trace.round_s_delta", t.round_s - u.round_s, "s");
  out.set("trace.qps_delta", t.qps - u.qps, "1/s");
  out.set("trace.serve_p1_ms_delta", t.serve_p1_ms - u.serve_p1_ms, "ms");
  out.set("trace.tick_p1_ms_delta", t.tick_p1_ms - u.tick_p1_ms, "ms");
  out.set("trace.peak_rss_mb_delta", t.peak_rss_mb - u.peak_rss_mb, "MB");
}

void emit_percentiles(Outcome& out, const EndToEnd& e) {
  out.set("serve_p50_ms", e.serve_p50_ms, "ms");
  out.set("tick_p50_ms", e.tick_p50_ms, "ms");
  out.set("serve_p99_ms", e.serve_p99_ms, "ms");
  out.set("tick_p99_ms", e.tick_p99_ms, "ms");
}

void emit_span_self_times(Outcome& out, const SpanRecorder& spans) {
  for (const char* layer : kSpanLayers)
    out.set(std::string("span.") + layer + ".self_s",
            spans.self_seconds(layer), "s");
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

std::size_t quantile_index(const std::vector<double>& xs, double q) {
  std::vector<std::size_t> order(xs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });
  if (order.empty()) return 0;
  const double rank =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(order.size() - 1);
  return order[static_cast<std::size_t>(rank)];
}

double lower_quantile(const std::vector<double>& xs, double q) {
  return xs.empty() ? 0.0 : xs[quantile_index(xs, q)];
}

double median(const std::vector<double>& xs) {
  return lower_quantile(xs, 0.5);
}

#ifdef __linux__
CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  const auto* bytes = reinterpret_cast<const unsigned char*>(&set);
  saved_.assign(bytes, bytes + sizeof set);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
}

CpuRotation::~CpuRotation() {
  if (saved_.empty()) return;
  cpu_set_t set;
  std::copy(saved_.begin(), saved_.end(), reinterpret_cast<unsigned char*>(&set));
  sched_setaffinity(0, sizeof set, &set);
}

void CpuRotation::step(long long slice) {
  if (cpus_.size() < 2 || slice == slice_) return;
  slice_ = slice;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[static_cast<std::size_t>(slice) % cpus_.size()], &set);
  sched_setaffinity(0, sizeof set, &set);
}
#else
CpuRotation::CpuRotation() = default;
CpuRotation::~CpuRotation() = default;
void CpuRotation::step(long long) {}
#endif

int pool_threads(int cap) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw, 1, cap);
}

double current_rss_mb() {
  return static_cast<double>(isomap::current_rss_bytes()) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  return static_cast<double>(isomap::peak_rss_bytes()) / (1024.0 * 1024.0);
}

SetupPieces rebuild_setup(const isomap::Scenario& scenario,
                          SpanRecorder& spans, Outcome& out,
                          std::int64_t op) {
  const isomap::ScenarioConfig& config = scenario.config;
  SetupPieces p;
  // make_scenario's stream layout: the first split feeds the field, the
  // second the deployment.
  isomap::Rng rng(config.seed);
  rng.split();
  isomap::Rng deploy_rng = rng.split();
  std::optional<isomap::Deployment> d;
  {
    const SpanRecorder::Scope s(spans, "net", "Deployment::uniform_random",
                                op);
    const auto t0 = Clock::now();
    d.emplace(isomap::Deployment::uniform_random(config.bounds(),
                                                 config.num_nodes, deploy_rng));
    p.deploy_s = seconds_between(t0, Clock::now());
  }
  std::optional<isomap::CommGraph> g;
  {
    const SpanRecorder::Scope s(spans, "net", "CommGraph", op);
    const auto t0 = Clock::now();
    g.emplace(*d, config.effective_radio_range());
    p.comm_graph_s = seconds_between(t0, Clock::now());
  }
  const isomap::FieldBounds b = config.bounds();
  const int sink = d->nearest_alive({b.x0 + b.width() * config.sink_fx,
                                     b.y0 + b.height() * config.sink_fy});
  std::optional<isomap::RoutingTree> t;
  {
    const SpanRecorder::Scope s(spans, "net", "RoutingTree", op);
    const auto t0 = Clock::now();
    t.emplace(*g, sink);
    p.routing_tree_s = seconds_between(t0, Clock::now());
  }
  std::vector<double> readings(static_cast<std::size_t>(d->size()), 0.0);
  {
    const SpanRecorder::Scope s(spans, "field", "ScalarField::value", op);
    const auto t0 = Clock::now();
    for (const auto& node : d->nodes())
      if (node.alive)
        readings[static_cast<std::size_t>(node.id)] =
            scenario.field.value(node.pos);
    p.sample_s = seconds_between(t0, Clock::now());
  }

  bool same_nodes = d->size() == scenario.deployment.size();
  for (int i = 0; same_nodes && i < d->size(); ++i)
    same_nodes = d->nodes()[static_cast<std::size_t>(i)].pos ==
                 scenario.deployment.nodes()[static_cast<std::size_t>(i)].pos;
  out.check(same_nodes, "rebuilt deployment differs from the scenario's");
  out.check(g->csr_edges() == scenario.graph.csr_edges(),
            "rebuilt CommGraph differs from the scenario's");
  out.check(t->sink() == scenario.tree.sink() &&
                t->depth() == scenario.tree.depth(),
            "rebuilt RoutingTree differs from the scenario's");
  out.check(readings == scenario.readings,
            "re-sampled readings differ from the scenario's");
  return p;
}

void emit_setup_breakdown(Outcome& out, const std::vector<SetupPieces>& reps,
                          double setup_s, double graph_edges,
                          double tree_depth) {
  std::vector<double> deploy, graph, tree, sample;
  for (const SetupPieces& p : reps) {
    deploy.push_back(p.deploy_s);
    graph.push_back(p.comm_graph_s);
    tree.push_back(p.routing_tree_s);
    sample.push_back(p.sample_s);
  }
  const SetupPieces m{median(deploy), median(graph),
                      median(tree), median(sample)};
  out.set("net.deploy_s", m.deploy_s, "s");
  out.set("net.comm_graph_s", m.comm_graph_s, "s");
  out.set("net.routing_tree_s", m.routing_tree_s, "s");
  out.set("field.sample_s", m.sample_s, "s");
  out.set("sim.setup_other_s",
          setup_s - (m.deploy_s + m.comm_graph_s + m.routing_tree_s +
                     m.sample_s),
          "s");
  out.set("net.graph_edges", graph_edges, "count");
  out.set("net.tree_depth", tree_depth, "count");
}

}  // namespace isobench
