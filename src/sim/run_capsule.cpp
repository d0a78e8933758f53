#include "sim/run_capsule.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <concepts>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "obs/obs.hpp"
#include "sim/runners.hpp"

namespace isomap::capsule {
namespace {

/// Section tags of the run-capsule schema (container-level detail; the
/// public surface is RunCapsule). New sections get new tags — never
/// reuse a retired one.
enum Tag : std::uint64_t {
  kMetaTag = 1,
  kConfigTag = 2,
  kOptionsTag = 3,
  kContinuousTag = 4,
  kDeploymentTag = 5,
  kFaultPlanTag = 6,
  kReadingsTag = 7,
  kSingleOutputsTag = 8,
  kRoundOutputsTag = 9,
  kFinalMapTag = 10,
  kTelemetryTag = 11,
  kLinkImpairTag = 12,
};

/// Decode-time cap on every count: far above any real run. The tighter
/// guard is the per-element byte floor (min_wire_bytes): a count must fit
/// the remaining payload, so a corrupt one cannot allocate much more
/// than the file's own size.
constexpr std::size_t kMaxItems = 1u << 26;

/// Most isolevels a decoded query may ask for. A tiny granularity would
/// otherwise make replay materialize billions of levels.
constexpr double kMaxLevels = 1u << 16;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Largest wire value of each enum; decoding rejects anything above.
constexpr RunKind last(RunKind) { return RunKind::kContinuous; }
constexpr FieldKind last(FieldKind) { return FieldKind::kSloped; }
constexpr RegulationMode last(RegulationMode) {
  return RegulationMode::kBlended;
}
constexpr ContinuousEngine last(ContinuousEngine) {
  return ContinuousEngine::kIncremental;
}
constexpr FaultKind last(FaultKind) { return FaultKind::kRegionBlackout; }

template <class T, class U>
concept Is = std::same_as<std::remove_const_t<T>, U>;
template <class T>
concept Vector = std::same_as<T, std::vector<typename T::value_type>>;
template <class T>
concept Optional = std::same_as<T, std::optional<typename T::value_type>>;
/// A struct with a field list below.
template <class T>
concept Record = std::is_class_v<T> && !Vector<T> && !Optional<T> &&
                 !std::same_as<T, std::string>;

// --- Field lists --------------------------------------------------------
//
// The wire layout of every struct, written once. `ar(name, x.f...)` visits
// field f of each object in the pack: one object when encoding or
// decoding, the stored and the fresh copy when diffing. Fields are listed
// in wire order and each name is a diff/error path segment. Scalars map
// to wire primitives by type: double -> f64, bool -> bool, enums and
// unsigned -> u64, signed -> zigzag i64; vectors carry a u64 count and
// optionals a presence bool. Fields after `ar.tail()` form a guarded tail
// that older capsules lack; decoding leaves them at their defaults (a
// tail must end its section). `ar.count` + `ar.lane` store parallel
// per-node arrays under one shared count.

void visit(auto& ar, Is<Vec2> auto&... v) {
  ar("x", v.x...);
  ar("y", v.y...);
}

void visit(auto& ar, Is<FieldBounds> auto&... b) {
  ar("x0", b.x0...);
  ar("y0", b.y0...);
  ar("x1", b.x1...);
  ar("y1", b.y1...);
}

void visit(auto& ar, Is<ScenarioConfig> auto&... s) {
  ar("num_nodes", s.num_nodes...);
  ar("field_side", s.field_side...);
  ar("radio_range", s.radio_range...);
  ar("grid_deployment", s.grid_deployment...);
  ar("failure_fraction", s.failure_fraction...);
  ar("field", s.field...);
  ar("random_field_bumps", s.random_field_bumps...);
  ar("random_field_amplitude", s.random_field_amplitude...);
  ar("seed", s.seed...);
  ar("sink_fx", s.sink_fx...);
  ar("sink_fy", s.sink_fy...);
  ar("reading_noise_std", s.reading_noise_std...);
  ar("position_error_std", s.position_error_std...);
}

void visit(auto& ar, Is<ContourQuery> auto&... q) {
  ar("lambda_lo", q.lambda_lo...);
  ar("lambda_hi", q.lambda_hi...);
  ar("granularity", q.granularity...);
  ar("epsilon_fraction", q.epsilon_fraction...);
  ar("angular_separation_deg", q.angular_separation_deg...);
  ar("distance_separation", q.distance_separation...);
  ar("enable_filtering", q.enable_filtering...);
  ar("regression_hops", q.regression_hops...);
}

void visit(auto& ar, Is<GilbertElliottParams> auto&... b) {
  ar("p_enter_burst", b.p_enter_burst...);
  ar("p_exit_burst", b.p_exit_burst...);
  ar("loss_good", b.loss_good...);
  ar("loss_bad", b.loss_bad...);
}

void visit(auto& ar, Is<FaultConfig> auto&... f) {
  ar("crash_fraction", f.crash_fraction...);
  ar("crash_window_begin", f.crash_window_begin...);
  ar("crash_window_end", f.crash_window_end...);
  ar("blackout", f.blackout...);
  ar("blackout_center", f.blackout_center...);
  ar("blackout_radius", f.blackout_radius...);
  ar("blackout_time", f.blackout_time...);
  ar("seed", f.seed...);
  ar("self_healing", f.self_healing...);
}

/// link_impair and link_arq travel in their own section (tag 12).
void visit(auto& ar, Is<IsoMapOptions> auto&... o) {
  ar("query", o.query...);
  ar("regulation", o.regulation...);
  ar("account_local_measurement", o.account_local_measurement...);
  ar("account_query_dissemination", o.account_query_dissemination...);
  ar("header_bytes", o.header_bytes...);
  ar("link_loss", o.link_loss...);
  ar("link_retries", o.link_retries...);
  ar("link_seed", o.link_seed...);
  ar("link_burst", o.link_burst...);
  ar("fault", o.fault...);
  ar("record_transmissions", o.record_transmissions...);
  ar("adaptive_epsilon", o.adaptive_epsilon...);
}

void visit(auto& ar, Is<ImpairmentConfig> auto&... i) {
  ar("latency_s", i.latency_s...);
  ar("jitter_s", i.jitter_s...);
  ar("dup_prob", i.dup_prob...);
  ar("reorder_prob", i.reorder_prob...);
  ar("reorder_extra_s", i.reorder_extra_s...);
  ar("corrupt_prob", i.corrupt_prob...);
}

void visit(auto& ar, Is<ArqConfig> auto&... a) {
  ar("window", a.window...);
  ar("frame_payload_bytes", a.frame_payload_bytes...);
  ar("timeout_s", a.timeout_s...);
  ar("backoff_factor", a.backoff_factor...);
  ar("max_timeout_s", a.max_timeout_s...);
  ar("max_frame_attempts", a.max_frame_attempts...);
}

/// `base` travels in the options section.
void visit(auto& ar, Is<ContinuousOptions> auto&... o) {
  ar("gradient_refresh_deg", o.gradient_refresh_deg...);
  ar("withdraw_bytes", o.withdraw_bytes...);
  ar("beacon_bytes", o.beacon_bytes...);
  ar("stale_rounds", o.stale_rounds...);
  ar("engine", o.engine...);
}

void visit(auto& ar, Is<DeploymentSnapshot::NodeRec> auto&... n) {
  ar("pos", n.pos...);
  ar("alive", n.alive...);
  ar("believed", n.believed...);
}

void visit(auto& ar, Is<FaultEvent> auto&... e) {
  ar("time", e.time...);
  ar("kind", e.kind...);
  ar("node", e.node...);
  ar("center", e.center...);
  ar("radius", e.radius...);
}

/// `id` and `hops` are observation-only and never stored.
void visit(auto& ar, Is<IsolineReport> auto&... r) {
  ar("isolevel", r.isolevel...);
  ar("position", r.position...);
  ar("gradient", r.gradient...);
  ar("source", r.source...);
}

void visit(auto& ar, Is<ContourPolyline> auto&... p) {
  ar("closed", p.closed...);
  ar("points", p.points...);
}

void visit(auto& ar, Is<LevelContour> auto&... c) {
  ar("isolevel", c.isolevel...);
  ar("report_count", c.report_count...);
  ar("boundaries", c.boundaries...);
}

void visit(auto& ar, Is<obs::LedgerTotals> auto&... t) {
  ar("nodes", t.nodes...);
  ar("tx_bytes", t.tx_bytes...);
  ar("rx_bytes", t.rx_bytes...);
  ar("ops", t.ops...);
  ar("mean_ops", t.mean_ops...);
  ar("max_ops", t.max_ops...);
}

void visit(auto& ar, Is<SingleShotOutputs> auto&... o) {
  ar("isoline_node_count", o.isoline_node_count...);
  ar("generated_reports", o.generated_reports...);
  ar("delivered_reports", o.delivered_reports...);
  ar("filtered_reports", o.filtered_reports...);
  ar("lost_channel_reports", o.lost_channel_reports...);
  ar("lost_crash_reports", o.lost_crash_reports...);
  ar("crashed_nodes", o.crashed_nodes...);
  ar("route_repairs", o.route_repairs...);
  ar("repair_traffic_bytes", o.repair_traffic_bytes...);
  ar("report_traffic_bytes", o.report_traffic_bytes...);
  ar("measurement_traffic_bytes", o.measurement_traffic_bytes...);
  ar("dissemination_traffic_bytes", o.dissemination_traffic_bytes...);
  ar("bottleneck_bytes", o.bottleneck_bytes...);
  ar("sink_reports", o.sink_reports...);
  ar("contours", o.contours...);
  ar("ledger", o.ledger...);
  ar("summary_json", o.summary_json...);
  ar.tail();  // Schema 2: measured end-to-end latency.
  ar("e2e_first_latency_s", o.e2e_first_latency_s...);
  ar("e2e_last_latency_s", o.e2e_last_latency_s...);
  ar("e2e_mean_latency_s", o.e2e_mean_latency_s...);
}

void visit(auto& ar, Is<ContinuousMapper::SinkDumpEntry> auto&... e) {
  ar("node", e.node...);
  ar("level", e.level...);
  ar("last_update", e.last_update...);
  ar("report", e.report...);
}

void visit(auto& ar, Is<RoundOutputs> auto&... o) {
  ar("adds", o.adds...);
  ar("refreshes", o.refreshes...);
  ar("withdrawals", o.withdrawals...);
  ar("suppressed", o.suppressed...);
  ar("keepalives", o.keepalives...);
  ar("expired", o.expired...);
  ar("active_reports", o.active_reports...);
  ar("delta_traffic_bytes", o.delta_traffic_bytes...);
  ar("beacon_traffic_bytes", o.beacon_traffic_bytes...);
  ar("sink", o.sink...);
  ar("ledger", o.ledger...);
}

void visit(auto& ar, Is<obs::TelemetryEnergyModel> auto&... e) {
  ar("tx_j_per_byte", e.tx_j_per_byte...);
  ar("rx_j_per_byte", e.rx_j_per_byte...);
  ar("j_per_op", e.j_per_op...);
}

/// One node count, then per-node lanes without counts of their own. The
/// per-phase lanes stay out of the capsule: they are derived detail.
void visit(auto& ar, Is<obs::NodeTelemetrySnapshot> auto&... t) {
  ar.count("nodes", t.tx_bytes...);
  ar.lane("tx_bytes", t.tx_bytes...);
  ar.lane("rx_bytes", t.rx_bytes...);
  ar.lane("ops", t.ops...);
  ar.lane("hops", t.hops...);
  ar.lane("generated", t.generated...);
  ar.lane("delivered", t.delivered...);
  ar.lane("filtered", t.filtered...);
  ar.lane("lost_channel", t.lost_channel...);
  ar.lane("lost_crash", t.lost_crash...);
  ar.lane("relayed", t.relayed...);
  ar.lane("retries", t.retries...);
  ar.lane("drops", t.drops...);
  ar("energy", t.energy...);
  ar.tail();  // Schema 2: impaired-link lanes.
  ar.lane("dup_rx", t.dup_rx...);
  ar.lane("corrupt_rx", t.corrupt_rx...);
  ar.lane("arq_timeouts", t.arq_timeouts...);
}

// --- Archives -------------------------------------------------------------

/// The field path being visited, as name or [index] frames; rendered
/// ("single.sink_reports[3].position.x") only for messages.
struct Path {
  std::vector<std::pair<const char*, std::size_t>> frames;

  void push(const char* name) { frames.emplace_back(name, 0); }
  void push(std::size_t index) { frames.emplace_back(nullptr, index); }
  void pop() { frames.pop_back(); }
  std::string str() const {
    std::string out;
    for (const auto& [name, index] : frames)
      out += name == nullptr ? "[" + std::to_string(index) + "]"
             : out.empty()   ? std::string(name)
                             : "." + std::string(name);
    return out;
  }
};

template <class T>
std::size_t min_wire_bytes();

/// Sums the smallest encoding of each field (the guarded tail excluded).
struct MinSize {
  std::size_t bytes = 0;
  bool in_tail = false;
  template <class T>
  void operator()(const char*, const T&) {
    if (!in_tail) bytes += min_wire_bytes<T>();
  }
  void tail() { in_tail = true; }
};

/// Fewest bytes one encoded T can occupy.
template <class T>
std::size_t min_wire_bytes() {
  if constexpr (std::is_same_v<T, double>) {
    return 8;
  } else if constexpr (Record<T>) {
    static const std::size_t n = [] {
      MinSize m;
      const T blank{};
      visit(m, blank);
      return m.bytes;
    }();
    return n;
  } else {
    return 1;  // Every varint, string, count and presence flag.
  }
}

/// Writes each field through Writer, in list order.
class Encoder {
 public:
  template <class T>
  void operator()(const char*, const T& v) {
    put(v);
  }
  void schema() { w_.put_u64(kRunSchemaVersion); }
  void tail() {}
  template <class T>
  void count(const char*, const std::vector<T>& values) {
    w_.put_u64(values.size());
  }
  template <class T>
  void lane(const char*, const std::vector<T>& values) {
    for (const T& v : values) put(v);
  }
  std::string take() { return w_.take(); }

 private:
  template <class T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, double>) {
      w_.put_f64(v);
    } else if constexpr (std::is_same_v<T, bool>) {
      w_.put_bool(v);
    } else if constexpr (std::is_enum_v<T> || std::is_unsigned_v<T>) {
      w_.put_u64(static_cast<std::uint64_t>(v));
    } else if constexpr (std::is_integral_v<T>) {
      w_.put_i64(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      w_.put_string(v);
    } else if constexpr (Vector<T>) {
      w_.put_u64(v.size());
      for (const auto& x : v) put(x);
    } else if constexpr (Optional<T>) {
      w_.put_bool(v.has_value());
      if (v) put(*v);
    } else {
      visit(*this, v);
    }
  }

  Writer w_;
};

/// Reads one section payload and owns every check on untrusted input:
/// enum ranges, count caps, option values and exact consumption.
class Decoder {
 public:
  /// `finite` rejects any non-finite double in the section.
  Decoder(std::string_view payload, const char* section, bool finite)
      : r_(payload), section_(section), finite_(finite) {}

  template <class T>
  void operator()(const char* name, T& v) {
    if (skip_) return;
    path_.push(name);
    get(v);
    path_.pop();
  }
  void schema() {
    const std::uint64_t schema = r_.get_u64();
    if (schema == 0 || schema > kRunSchemaVersion)
      throw CapsuleError("unsupported run schema version " +
                         std::to_string(schema));
  }
  void tail() { skip_ = r_.done(); }
  template <class T>
  void count(const char*, std::vector<T>&) {
    if (!skip_) lane_size_ = r_.get_count(kMaxItems);
  }
  template <class T>
  void lane(const char* name, std::vector<T>& values) {
    if (skip_) return;
    path_.push(name);
    read_n(values, lane_size_);
    path_.pop();
  }
  /// A section with trailing bytes means schema skew or corruption.
  void finish() {
    if (!r_.done())
      throw CapsuleError(std::string(section_) + " section has " +
                         std::to_string(r_.remaining()) + " trailing bytes");
  }

 private:
  template <class T>
  void get(T& v) {
    if constexpr (std::is_same_v<T, double>) {
      v = r_.get_f64();
      if (finite_ && !std::isfinite(v)) fail("must be finite");
    } else if constexpr (std::is_same_v<T, bool>) {
      v = r_.get_bool();
    } else if constexpr (std::is_enum_v<T>) {
      const std::uint64_t u = r_.get_u64();
      if (u > static_cast<std::uint64_t>(last(T{})))
        fail("unknown value " + std::to_string(u));
      v = static_cast<T>(u);
    } else if constexpr (std::is_unsigned_v<T>) {
      v = r_.get_u64();
    } else if constexpr (std::is_integral_v<T>) {
      const std::int64_t i = r_.get_i64();
      if (!std::in_range<T>(i))
        fail("value " + std::to_string(i) + " out of range");
      v = static_cast<T>(i);
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = r_.get_string();
    } else if constexpr (Vector<T>) {
      read_n(v, r_.get_count(kMaxItems));
    } else if constexpr (Optional<T>) {
      if (r_.get_bool())
        get(v.emplace());
      else
        v.reset();
    } else {
      visit(*this, v);
      check(v);
    }
  }

  template <class T>
  void read_n(std::vector<T>& v, std::size_t n) {
    if (n > r_.remaining() / min_wire_bytes<T>())
      fail("count " + std::to_string(n) + " exceeds the payload");
    v.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      path_.push(i);
      get(v[i]);
      path_.pop();
    }
  }

  // Value checks, run once a struct is fully read. Replay must be able
  // to run whatever decodes, so the ranges match what the runtime
  // accepts.
  void check(const ContourQuery& q) {
    require(q.granularity > 0.0, "granularity", "must be > 0");
    require(q.lambda_lo <= q.lambda_hi, "lambda_lo", "must be <= lambda_hi");
    require((q.lambda_hi - q.lambda_lo) / q.granularity <= kMaxLevels,
            "granularity", "yields more than 65536 isolevels");
    try {
      (void)q.isolevels();  // Bounded by the cap above.
    } catch (const std::invalid_argument& e) {
      require(false, "granularity", e.what());
    }
    require(q.angular_separation_deg >= 0.0, "angular_separation_deg",
            "must be >= 0");
    require(q.distance_separation >= 0.0, "distance_separation",
            "must be >= 0");
  }
  void check(const IsoMapOptions& o) {
    require(o.header_bytes >= 0.0, "header_bytes", "must be >= 0");
    require(o.link_loss >= 0.0 && o.link_loss < 1.0, "link_loss",
            "must be in [0, 1)");
    require(o.link_retries >= 0, "link_retries", "must be >= 0");
  }
  void check(const ContinuousOptions& o) {
    require(o.withdraw_bytes >= 0.0, "withdraw_bytes", "must be >= 0");
    require(o.beacon_bytes >= 0.0, "beacon_bytes", "must be >= 0");
  }
  void check(const GilbertElliottParams& b) {
    require(b.p_enter_burst >= 0.0 && b.p_enter_burst <= 1.0,
            "p_enter_burst", "must be in [0, 1]");
    require(b.p_exit_burst > 0.0 && b.p_exit_burst <= 1.0, "p_exit_burst",
            "must be in (0, 1]");
    require(b.loss_good >= 0.0 && b.loss_good < 1.0, "loss_good",
            "must be in [0, 1)");
    require(b.loss_bad >= 0.0 && b.loss_bad <= 1.0, "loss_bad",
            "must be in [0, 1]");
  }
  void check(const FaultConfig& f) {
    require(f.crash_fraction <= 0.0 ||
                (f.crash_window_begin >= 0.0 &&
                 f.crash_window_begin <= f.crash_window_end &&
                 f.crash_window_end <= 1.0),
            "crash_window_begin", "must satisfy 0 <= begin <= end <= 1");
    require(!f.blackout || (f.blackout_time >= 0.0 && f.blackout_time <= 1.0),
            "blackout_time", "must be in [0, 1]");
    require(!f.blackout || f.blackout_radius >= 0.0, "blackout_radius",
            "must be >= 0");
  }
  void check(const FaultEvent& e) {
    require(e.time >= 0.0 && e.time <= 1.0, "time", "must be in [0, 1]");
    require(e.radius >= 0.0, "radius", "must be >= 0");
  }
  /// Structs with a validate() of their own (ImpairmentConfig,
  /// ArqConfig) are checked by it.
  template <class T>
  void check(const T& v) {
    if constexpr (requires { v.validate(); }) {
      try {
        v.validate();
      } catch (const std::invalid_argument& e) {
        fail(e.what());
      }
    }
  }

  void require(bool ok, const char* field, const char* what) {
    if (ok) return;
    path_.push(field);
    fail(what);
  }
  [[noreturn]] void fail(const std::string& what) const {
    throw CapsuleError(path_.str() + ": " + what);
  }

  Reader r_;
  const char* section_;
  bool finite_;
  bool skip_ = false;  ///< Set when a guarded tail is absent.
  std::size_t lane_size_ = 0;
  Path path_;
};

/// Walks a stored and a fresh copy side by side and keeps the first
/// mismatch: doubles by bit pattern, everything else by value. Paths come
/// from the field names, so the first divergence follows wire order.
class Differ {
 public:
  template <class T>
  void operator()(const char* name, const T& stored, const T& fresh) {
    if (found_) return;
    path_.push(name);
    cmp(stored, fresh);
    path_.pop();
  }
  void tail() {}
  template <class T>
  void count(const char* name, const std::vector<T>& stored,
             const std::vector<T>& fresh) {
    (*this)(name, stored.size(), fresh.size());
  }
  /// A lane absent from an older capsule reads as zeros.
  template <class T>
  void lane(const char* name, const std::vector<T>& stored,
            const std::vector<T>& fresh) {
    if (found_) return;
    path_.push(name);
    const std::size_t n = std::max(stored.size(), fresh.size());
    for (std::size_t i = 0; i < n && !found_; ++i) {
      path_.push(i);
      cmp(i < stored.size() ? stored[i] : T{},
          i < fresh.size() ? fresh[i] : T{});
      path_.pop();
    }
    path_.pop();
  }
  const std::optional<OutputDiff>& result() const { return found_; }

 private:
  template <class T>
  void cmp(const T& s, const T& f) {
    if constexpr (std::is_same_v<T, double>) {
      if (bits(s) == bits(f)) return;
      std::ostringstream os;
      os.precision(17);
      os << "stored=" << s << " recomputed=" << f << " (bits 0x" << std::hex
         << bits(s) << " vs 0x" << bits(f) << ")";
      found_ = OutputDiff{path_.str(), os.str()};
    } else if constexpr (std::is_same_v<T, std::string>) {
      if (s == f) return;
      std::size_t at = 0;
      while (at < s.size() && at < f.size() && s[at] == f[at]) ++at;
      found_ = OutputDiff{
          path_.str(), "strings diverge at byte " + std::to_string(at) +
                           " (stored " + std::to_string(s.size()) +
                           " bytes, recomputed " + std::to_string(f.size()) +
                           ")"};
    } else if constexpr (Vector<T>) {
      (*this)("count", s.size(), f.size());
      for (std::size_t i = 0; i < s.size() && !found_; ++i) {
        path_.push(i);
        cmp(s[i], f[i]);
        path_.pop();
      }
    } else if constexpr (Record<T>) {
      visit(*this, s, f);
    } else if (s != f) {
      found_ = OutputDiff{
          path_.str(),
          "stored=" + std::to_string(static_cast<long long>(s)) +
              " recomputed=" + std::to_string(static_cast<long long>(f))};
    }
  }

  std::optional<OutputDiff> found_;
  Path path_;
};

// --- Sections ---------------------------------------------------------------
//
// Each section's field list over the RunCapsule. Names are the member
// paths from RunCapsule, so diff and error paths read as C++ accessors.

constexpr auto kMeta = [](auto& ar, auto&... c) {
  ar.schema();
  ar("kind", c.kind...);
  ar("label", c.label...);
};
constexpr auto kConfig = [](auto& ar, auto&... c) {
  ar("config", c.config...);
};
constexpr auto kOptions = [](auto& ar, auto&... c) {
  ar("options", c.options...);
};
/// Present exactly when options.link_impair is set, so unimpaired runs
/// keep their pre-impairment bytes.
constexpr auto kLinkImpair = [](auto& ar, auto&... c) {
  ar("options.link_impair", *c.options.link_impair...);
  ar("options.link_arq", c.options.link_arq...);
};
constexpr auto kContinuous = [](auto& ar, auto&... c) {
  ar("continuous", c.continuous...);
};
constexpr auto kDeployment = [](auto& ar, auto&... c) {
  ar("deployment.bounds", c.deployment.bounds...);
  ar("radio_range", c.radio_range...);
  ar("sink", c.sink...);
  ar("deployment.nodes", c.deployment.nodes...);
};
/// Over the event list: FaultPlan only grows through add().
constexpr auto kFaultPlan = [](auto& ar, auto&... events) {
  ar("fault_plan", events...);
};
constexpr auto kReadings = [](auto& ar, auto&... c) {
  ar("rounds", c.rounds...);
};
constexpr auto kSingleOutputs = [](auto& ar, auto&... c) {
  ar("single", c.single...);
};
constexpr auto kRoundOutputs = [](auto& ar, auto&... c) {
  ar("round_outputs", c.round_outputs...);
};
constexpr auto kFinalMap = [](auto& ar, auto&... c) {
  ar("final_contours", c.final_contours...);
  ar("final_summary_json", c.final_summary_json...);
};
constexpr auto kTelemetry = [](auto& ar, auto&... c) {
  ar("telemetry", *c.telemetry...);
};

// --- Execution -------------------------------------------------------------

std::vector<LevelContour> extract_contours(const ContourMap& map) {
  std::vector<LevelContour> out;
  out.reserve(static_cast<std::size_t>(map.level_count()));
  for (int k = 0; k < map.level_count(); ++k) {
    const LevelRegion& region = map.region(k);
    LevelContour lc;
    lc.isolevel = region.isolevel();
    lc.report_count = static_cast<int>(region.reports().size());
    lc.boundaries.reserve(region.boundaries().size());
    for (const Polyline& p : region.boundaries())
      lc.boundaries.push_back({p.closed(), p.points()});
    out.push_back(std::move(lc));
  }
  return out;
}

/// Inputs rebuilt from a capsule: the deployment snapshot materialized,
/// then the graph and tree re-derived exactly as make_scenario derives
/// them (both constructions are deterministic — see net/routing_tree.hpp).
struct Rebuilt {
  Deployment deployment;
  CommGraph graph;
  RoutingTree tree;

  explicit Rebuilt(const RunCapsule& c)
      : deployment(c.deployment.materialize()),
        graph(deployment, c.radio_range),
        tree(graph, c.sink) {}
};

void check_readings(const RunCapsule& c) {
  if (c.rounds.empty())
    throw CapsuleError("capsule holds no readings rounds");
  if (c.kind == RunKind::kSingleShot && c.rounds.size() != 1)
    throw CapsuleError("single-shot capsule must hold exactly one round");
  for (const auto& round : c.rounds)
    if (round.size() != c.deployment.nodes.size())
      throw CapsuleError("readings round size " +
                         std::to_string(round.size()) +
                         " does not match deployment size " +
                         std::to_string(c.deployment.nodes.size()));
}

/// CommGraph and RoutingTree are rebuilt from these: the radio range
/// tiles the non-empty bounds into a bounded grid, and the sink must be
/// alive.
void check_topology(const RunCapsule& c) {
  if (!(c.radio_range > 0.0)) throw CapsuleError("radio_range: must be > 0");
  const double cols = c.deployment.bounds.width() / c.radio_range;
  const double rows = c.deployment.bounds.height() / c.radio_range;
  if (!(cols > 0.0 && rows > 0.0 &&
        std::max(cols, 1.0) * std::max(rows, 1.0) <= kMaxItems))
    throw CapsuleError(
        "deployment.bounds: must tile into at most 2^26 radio-range cells");
  const auto sink = static_cast<std::size_t>(c.sink);
  if (c.sink < 0 || sink >= c.deployment.nodes.size() ||
      !c.deployment.nodes[sink].alive)
    throw CapsuleError("sink: must name an alive node");
}

SingleShotOutputs execute_single_shot(
    const RunCapsule& c, obs::TraceSink* trace,
    std::optional<obs::NodeTelemetrySnapshot>* telemetry_out = nullptr) {
  const Rebuilt in(c);
  Ledger ledger(in.deployment.size());
  obs::MetricsRegistry metrics;
  obs::NodeTelemetry telemetry(in.deployment.size());
  const IsoMapResult result = [&] {
    const obs::ObsScope scope(&metrics, trace, &telemetry);
    const IsoMapProtocol protocol(c.options);
    return protocol.run(c.rounds.front(), in.deployment, in.graph, in.tree,
                        ledger);
  }();
  if (telemetry_out != nullptr) *telemetry_out = telemetry.snapshot();
  SingleShotOutputs out;
  out.isoline_node_count = result.isoline_node_count;
  out.generated_reports = result.generated_reports;
  out.delivered_reports = result.delivered_reports;
  out.filtered_reports = result.filtered_reports;
  out.lost_channel_reports = result.lost_channel_reports;
  out.lost_crash_reports = result.lost_crash_reports;
  out.crashed_nodes = result.crashed_nodes;
  out.route_repairs = result.route_repairs;
  out.repair_traffic_bytes = result.repair_traffic_bytes;
  out.report_traffic_bytes = result.report_traffic_bytes;
  out.measurement_traffic_bytes = result.measurement_traffic_bytes;
  out.dissemination_traffic_bytes = result.dissemination_traffic_bytes;
  out.bottleneck_bytes = result.bottleneck_bytes;
  out.e2e_first_latency_s = result.e2e_first_latency_s;
  out.e2e_last_latency_s = result.e2e_last_latency_s;
  out.e2e_mean_latency_s = result.e2e_mean_latency_s;
  out.sink_reports = result.sink_reports;
  out.contours = extract_contours(result.map);
  out.ledger = ledger_totals(ledger);
  out.summary_json = normalized_summary_json(
      obs::make_run_summary("isomap", metrics, out.ledger, 0.0, 0));
  return out;
}

void execute_continuous(
    const RunCapsule& c, obs::TraceSink* trace,
    std::vector<RoundOutputs>& rounds_out,
    std::vector<LevelContour>& final_contours, std::string& final_summary,
    std::optional<obs::NodeTelemetrySnapshot>* telemetry_out = nullptr) {
  const Rebuilt in(c);
  ContinuousOptions opts = c.continuous;
  opts.base = c.options;
  ContinuousMapper mapper(opts, in.deployment, in.graph, in.tree);
  Ledger ledger(in.deployment.size());
  // One flight-recorder table across every round, mirroring the one
  // ledger: charges accumulate like the ledger's own arrays do. Hop
  // distances come from the initial tree (the continuous engines never
  // rewire it mid-capsule).
  obs::NodeTelemetry telemetry(in.deployment.size());
  for (int v = 0; v < in.deployment.size(); ++v)
    telemetry.set_hops(v, in.tree.level(v));
  rounds_out.clear();
  rounds_out.reserve(c.rounds.size());
  for (std::size_t r = 0; r < c.rounds.size(); ++r) {
    obs::MetricsRegistry metrics;
    const RoundResult result = [&] {
      const obs::ObsScope scope(&metrics, trace, &telemetry);
      return mapper.round(c.rounds[r], ledger);
    }();
    RoundOutputs out;
    out.adds = result.adds;
    out.refreshes = result.refreshes;
    out.withdrawals = result.withdrawals;
    out.suppressed = result.suppressed;
    out.keepalives = result.keepalives;
    out.expired = result.expired;
    out.active_reports = result.active_reports;
    out.delta_traffic_bytes = result.delta_traffic_bytes;
    out.beacon_traffic_bytes = result.beacon_traffic_bytes;
    out.sink = mapper.sink_dump();
    out.ledger = ledger_totals(ledger);
    rounds_out.push_back(std::move(out));
    if (r + 1 == c.rounds.size()) {
      final_contours = extract_contours(result.map);
      final_summary = normalized_summary_json(obs::make_run_summary(
          "continuous", metrics, ledger_totals(ledger), 0.0, 0));
    }
  }
  if (telemetry_out != nullptr) *telemetry_out = telemetry.snapshot();
}

}  // namespace

DeploymentSnapshot DeploymentSnapshot::of(const Deployment& deployment) {
  DeploymentSnapshot snapshot;
  snapshot.bounds = deployment.bounds();
  snapshot.nodes.reserve(static_cast<std::size_t>(deployment.size()));
  for (const Node& node : deployment.nodes())
    snapshot.nodes.push_back({node.pos, node.alive, node.believed});
  return snapshot;
}

Deployment DeploymentSnapshot::materialize() const {
  std::vector<Node> out;
  out.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    Node node;
    node.id = static_cast<int>(i);
    node.pos = nodes[i].pos;
    node.alive = nodes[i].alive;
    node.believed = nodes[i].believed;
    out.push_back(node);
  }
  return Deployment(bounds, std::move(out));
}

std::string normalized_summary_json(obs::RunSummary summary) {
  summary.wall_s = 0.0;
  summary.phases.clear();
  summary.trace_events = 0;
  // Machine-dependent like wall_s: never part of the identity contract.
  summary.peak_rss_bytes = 0.0;
  // The spatial-balance block is capsule-compared through the dedicated
  // telemetry section, not the summary text — and goldens recorded before
  // the block existed must keep replaying byte-identically.
  summary.node_telemetry.reset();
  return summary.to_json().dump(2);
}

RunCapsule record_single_shot(const Scenario& scenario,
                              const IsoMapOptions& options,
                              std::string label) {
  RunCapsule c;
  c.kind = RunKind::kSingleShot;
  c.label = std::move(label);
  c.config = scenario.config;
  c.options = options;
  c.deployment = DeploymentSnapshot::of(scenario.deployment);
  c.radio_range = scenario.graph.radio_range();
  c.sink = scenario.tree.sink();
  c.fault_plan = make_fault_plan(options.fault, scenario.deployment, c.sink);
  c.rounds = {scenario.readings};
  check_readings(c);
  c.single = execute_single_shot(c, nullptr, &c.telemetry);
  return c;
}

RunCapsule record_continuous(const Scenario& scenario,
                             const ContinuousOptions& options,
                             std::vector<std::vector<double>> round_readings,
                             std::string label) {
  RunCapsule c;
  c.kind = RunKind::kContinuous;
  c.label = std::move(label);
  c.config = scenario.config;
  c.options = options.base;
  c.continuous = options;
  c.deployment = DeploymentSnapshot::of(scenario.deployment);
  c.radio_range = scenario.graph.radio_range();
  c.sink = scenario.tree.sink();
  c.fault_plan =
      make_fault_plan(options.base.fault, scenario.deployment, c.sink);
  c.rounds = std::move(round_readings);
  check_readings(c);
  execute_continuous(c, nullptr, c.round_outputs, c.final_contours,
                     c.final_summary_json, &c.telemetry);
  return c;
}

RunCapsule replay(const RunCapsule& stored, obs::TraceSink* trace) {
  check_readings(stored);
  RunCapsule fresh = stored;
  if (stored.kind == RunKind::kSingleShot) {
    fresh.single = execute_single_shot(stored, trace, &fresh.telemetry);
  } else {
    execute_continuous(stored, trace, fresh.round_outputs,
                       fresh.final_contours, fresh.final_summary_json,
                       &fresh.telemetry);
  }
  return fresh;
}

std::optional<OutputDiff> diff_outputs(const RunCapsule& stored,
                                       const RunCapsule& fresh) {
  Differ d;
  d("kind", stored.kind, fresh.kind);
  if (stored.kind == RunKind::kSingleShot) {
    kSingleOutputs(d, stored, fresh);
  } else {
    kRoundOutputs(d, stored, fresh);
    kFinalMap(d, stored, fresh);
  }
  // Telemetry is compared only when both sides carry the section:
  // pre-telemetry goldens keep their original surface.
  if (stored.telemetry && fresh.telemetry) kTelemetry(d, stored, fresh);
  return d.result();
}

std::optional<OutputDiff> check_fault_plan(const RunCapsule& c) {
  const Deployment deployment = c.deployment.materialize();
  const FaultPlan derived =
      make_fault_plan(c.options.fault, deployment, c.sink);
  Differ d;
  kFaultPlan(d, c.fault_plan.events(), derived.events());
  return d.result();
}

Capsule to_capsule(const RunCapsule& run) {
  Capsule c;
  const auto add = [&](Tag tag, auto fields, const auto& target) {
    Encoder e;
    fields(e, target);
    c.add(tag, e.take());
  };
  add(kMetaTag, kMeta, run);
  add(kConfigTag, kConfig, run);
  add(kOptionsTag, kOptions, run);
  if (run.options.link_impair) add(kLinkImpairTag, kLinkImpair, run);
  if (run.kind == RunKind::kContinuous) add(kContinuousTag, kContinuous, run);
  add(kDeploymentTag, kDeployment, run);
  add(kFaultPlanTag, kFaultPlan, run.fault_plan.events());
  add(kReadingsTag, kReadings, run);
  if (run.kind == RunKind::kSingleShot) {
    add(kSingleOutputsTag, kSingleOutputs, run);
  } else {
    add(kRoundOutputsTag, kRoundOutputs, run);
    add(kFinalMapTag, kFinalMap, run);
  }
  if (run.telemetry) add(kTelemetryTag, kTelemetry, run);
  return c;
}

RunCapsule from_capsule(const Capsule& c) {
  RunCapsule run;
  const auto read = [&](Tag tag, const char* section, auto fields,
                        auto& target) {
    const Section* s = c.find(tag);
    if (s == nullptr)
      throw CapsuleError(std::string("missing required section ") + section);
    // Option and topology doubles must be finite; readings and recorded
    // outputs are kept as they are.
    Decoder d(s->payload, section,
              tag == kOptionsTag || tag == kLinkImpairTag ||
                  tag == kContinuousTag || tag == kDeploymentTag);
    fields(d, target);
    d.finish();
  };
  read(kMetaTag, "meta", kMeta, run);
  read(kConfigTag, "config", kConfig, run);
  read(kOptionsTag, "options", kOptions, run);
  if (c.find(kLinkImpairTag) != nullptr) {
    run.options.link_impair.emplace();
    read(kLinkImpairTag, "link_impair", kLinkImpair, run);
  }
  if (run.kind == RunKind::kContinuous) {
    read(kContinuousTag, "continuous", kContinuous, run);
    run.continuous.base = run.options;
  }
  read(kDeploymentTag, "deployment", kDeployment, run);
  check_topology(run);
  std::vector<FaultEvent> events;
  read(kFaultPlanTag, "fault_plan", kFaultPlan, events);
  for (const FaultEvent& e : events) run.fault_plan.add(e);
  read(kReadingsTag, "readings", kReadings, run);
  check_readings(run);
  if (run.kind == RunKind::kSingleShot) {
    read(kSingleOutputsTag, "single_outputs", kSingleOutputs, run);
  } else {
    read(kRoundOutputsTag, "round_outputs", kRoundOutputs, run);
    read(kFinalMapTag, "final_map", kFinalMap, run);
  }
  if (c.find(kTelemetryTag) != nullptr) {
    run.telemetry.emplace();
    read(kTelemetryTag, "telemetry", kTelemetry, run);
  }
  return run;
}

bool save(const std::string& path, const RunCapsule& run) {
  return write_file(path, to_capsule(run));
}

RunCapsule load(const std::string& path) {
  return from_capsule(read_file(path));
}

}  // namespace isomap::capsule
