// Iso-Map-as-a-service tests: scenario validator (strict typed errors on
// arbitrary input — the fuzz cases run under ASan/UBSan in CI), the
// fingerprint-keyed response cache's bitwise-identity contract, thread-
// count independence of served bytes, the golden-compat path (a service
// shard hosting a golden capsule's deployment serves maps bitwise-
// identical to isomap_replay output), and shard capsule export.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/exec.hpp"
#include "field/bathymetry.hpp"
#include "field/blended_field.hpp"
#include "serve/scenario.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "sim/run_capsule.hpp"

namespace isomap {
namespace {

using serve::DeploymentSpec;
using serve::IsoMapService;
using serve::QueryRequest;
using serve::QueryResponse;
using serve::ScenarioError;
using serve::ServiceScenario;

std::string golden_path(const std::string& name) {
  return std::string(ISOMAP_GOLDEN_DIR) + "/" + name + ".capsule";
}

// ---------------------------------------------------------------------------
// Scenario validator.

constexpr const char* kGoodScenario = R"json({
  "schema": 1,
  "name": "good",
  "rounds": 4,
  "oracle_check_every": 3,
  "cache_capacity": 64,
  "deployments": [
    {
      "name": "harbor",
      "nodes": 200,
      "field_side": 16.0,
      "field": "harbor",
      "drift_target": "silted",
      "drift_per_round": 0.1,
      "seed": 7,
      "num_levels": 4,
      "stale_rounds": 6
    },
    {
      "name": "basin",
      "nodes": 150,
      "field": "multi_basin",
      "drift_target": "sloped",
      "seed": 11,
      "num_levels": 3,
      "engine": "oracle"
    }
  ],
  "query_mix": {"queries_per_tick": 8, "subset_fraction": 0.5, "seed": 3}
})json";

/// The where() path of the ScenarioError `text` raises; "" when it parses.
std::string error_path(const std::string& text) {
  try {
    (void)serve::parse_service_scenario(text);
  } catch (const ScenarioError& e) {
    return e.where();
  }
  return "";
}

TEST(ServiceScenarioTest, GoodScenarioParsesWithDefaults) {
  const ServiceScenario sc = serve::parse_service_scenario(kGoodScenario);
  EXPECT_EQ(sc.name, "good");
  EXPECT_EQ(sc.rounds, 4);
  EXPECT_EQ(sc.oracle_check_every, 3);
  EXPECT_EQ(sc.cache_capacity, 64);
  ASSERT_EQ(sc.deployments.size(), 2u);
  EXPECT_EQ(sc.deployments[0].name, "harbor");
  EXPECT_EQ(sc.deployments[0].nodes, 200);
  EXPECT_EQ(sc.deployments[0].drift_per_round, 0.1);
  EXPECT_EQ(sc.deployments[1].engine, ContinuousEngine::kOracle);
  // Unset keys fall back to documented defaults.
  EXPECT_EQ(sc.deployments[1].field_side, 20.0);
  EXPECT_EQ(sc.deployments[1].drift_per_round, 0.0);
  EXPECT_EQ(sc.query_mix.queries_per_tick, 8);
}

TEST(ServiceScenarioTest, MalformedJsonIsTypedError) {
  EXPECT_EQ(error_path(""), "$");
  EXPECT_EQ(error_path("{"), "$");
  EXPECT_EQ(error_path("not json at all"), "$");
  EXPECT_EQ(error_path("[1,2,3]"), "$");  // Root must be an object.
  EXPECT_EQ(error_path("\"just a string\""), "$");
}

TEST(ServiceScenarioTest, UnknownKeysRejectedWithPath) {
  EXPECT_EQ(error_path(R"({"schema":1,"name":"x","rounds":1,"warmup":5,)"
                       R"("deployments":[{"name":"a"}]})"),
            "$.warmup");
  EXPECT_EQ(error_path(R"({"schema":1,"name":"x","rounds":1,)"
                       R"("deployments":[{"name":"a","warmup_rounds":5}]})"),
            "$.deployments[0].warmup_rounds");
  EXPECT_EQ(error_path(R"({"schema":1,"name":"x","rounds":1,)"
                       R"("deployments":[{"name":"a"}],)"
                       R"("query_mix":{"qps":10}})"),
            "$.query_mix.qps");
}

TEST(ServiceScenarioTest, OutOfRangeValuesRejected) {
  // rounds below/above the [1, 1e6] pin.
  EXPECT_EQ(error_path(R"({"schema":1,"name":"x","rounds":0,)"
                       R"("deployments":[{"name":"a"}]})"),
            "$.rounds");
  EXPECT_EQ(error_path(R"({"schema":1,"name":"x","rounds":1000001,)"
                       R"("deployments":[{"name":"a"}]})"),
            "$.rounds");
  // schema pinned to [1, 1].
  EXPECT_EQ(error_path(R"({"schema":2,"name":"x","rounds":1,)"
                       R"("deployments":[{"name":"a"}]})"),
            "$.schema");
  // nodes below the 16-node floor.
  EXPECT_EQ(error_path(R"({"schema":1,"name":"x","rounds":1,)"
                       R"("deployments":[{"name":"a","nodes":8}]})"),
            "$.deployments[0].nodes");
  // drift_per_round outside [0, 1].
  EXPECT_EQ(
      error_path(R"({"schema":1,"name":"x","rounds":1,)"
                 R"("deployments":[{"name":"a","drift_per_round":1.5}]})"),
      "$.deployments[0].drift_per_round");
  // subset_fraction outside [0, 1].
  EXPECT_EQ(error_path(R"({"schema":1,"name":"x","rounds":1,)"
                       R"("deployments":[{"name":"a"}],)"
                       R"("query_mix":{"subset_fraction":-0.1}})"),
            "$.query_mix.subset_fraction");
  // cache_capacity must be >= 1.
  EXPECT_EQ(error_path(R"({"schema":1,"name":"x","rounds":1,)"
                       R"("cache_capacity":0,)"
                       R"("deployments":[{"name":"a"}]})"),
            "$.cache_capacity");
}

TEST(ServiceScenarioTest, StructuralDefectsRejected) {
  // Required keys missing.
  EXPECT_EQ(error_path(R"({"schema":1,"rounds":1,)"
                       R"("deployments":[{"name":"a"}]})"),
            "$.name");
  EXPECT_EQ(error_path(R"({"schema":1,"name":"x","rounds":1})"),
            "$.deployments");
  // Wrong types.
  EXPECT_EQ(error_path(R"({"schema":1,"name":"x","rounds":"ten",)"
                       R"("deployments":[{"name":"a"}]})"),
            "$.rounds");
  EXPECT_EQ(error_path(R"({"schema":1,"name":"x","rounds":1,)"
                       R"("deployments":{"name":"a"}})"),
            "$.deployments");
  // Non-integral count.
  EXPECT_EQ(error_path(R"({"schema":1,"name":"x","rounds":1.5,)"
                       R"("deployments":[{"name":"a"}]})"),
            "$.rounds");
  // Duplicate deployment names.
  EXPECT_EQ(error_path(R"({"schema":1,"name":"x","rounds":1,)"
                       R"("deployments":[{"name":"a"},{"name":"a"}]})"),
            "$.deployments[1].name");
  // Unknown enum values, and the no-seeded-drift-target rule.
  EXPECT_EQ(error_path(R"({"schema":1,"name":"x","rounds":1,)"
                       R"("deployments":[{"name":"a","field":"lava"}]})"),
            "$.deployments[0].field");
  EXPECT_EQ(
      error_path(R"({"schema":1,"name":"x","rounds":1,)"
                 R"("deployments":[{"name":"a","drift_target":"random"}]})"),
      "$.deployments[0].drift_target");
}

TEST(ServiceScenarioTest, UnreadableFileIsTypedError) {
  EXPECT_THROW(serve::load_service_scenario("/no/such/scenario.json"),
               ScenarioError);
}

// ---------------------------------------------------------------------------
// Fuzz-ish validator robustness (capsule_test pattern). Run under
// ASan/UBSan in CI: parse of arbitrary bytes must either succeed or
// throw ScenarioError — never crash, never leak any other exception.

void expect_clean_parse(std::string_view text) {
  try {
    (void)serve::parse_service_scenario(text);
  } catch (const ScenarioError&) {
    // Expected for malformed input.
  }
}

TEST(ServiceScenarioFuzz, TruncationNeverCrashes) {
  const std::string text = kGoodScenario;
  for (std::size_t cut = 0; cut < text.size(); ++cut)
    expect_clean_parse(text.substr(0, cut));
}

TEST(ServiceScenarioFuzz, ByteFlipsNeverCrash) {
  const std::string text = kGoodScenario;
  for (std::size_t pos = 0; pos < text.size(); ++pos) {
    for (const char mask : {'\x01', '\x80', '\xFF'}) {
      std::string mutated = text;
      mutated[pos] = static_cast<char>(mutated[pos] ^ mask);
      expect_clean_parse(mutated);
    }
  }
}

// ---------------------------------------------------------------------------
// Service behaviour.

ServiceScenario small_scenario(double drift = 0.0) {
  ServiceScenario sc;
  sc.name = "test";
  sc.rounds = 4;
  sc.cache_capacity = 64;
  DeploymentSpec a;
  a.name = "alpha";
  a.nodes = 180;
  a.field_side = 16.0;
  a.field = FieldKind::kHarbor;
  a.drift_target = FieldKind::kSilted;
  a.drift_per_round = drift;
  a.seed = 5;
  a.num_levels = 4;
  DeploymentSpec b = a;
  b.name = "beta";
  b.nodes = 150;
  b.field = FieldKind::kMultiBasin;
  b.drift_target = FieldKind::kSloped;
  b.seed = 9;
  b.num_levels = 3;
  sc.deployments = {a, b};
  sc.query_mix.queries_per_tick = 12;
  sc.query_mix.subset_fraction = 0.5;
  sc.query_mix.seed = 3;
  return sc;
}

QueryRequest full_set_query(const IsoMapService& service, int shard) {
  QueryRequest q;
  q.shard = shard;
  for (int k = 0; k < service.num_levels(shard); ++k) q.levels.push_back(k);
  return q;
}

TEST(IsoMapServiceTest, ServeBeforeFirstTickThrows) {
  IsoMapService service(small_scenario());
  EXPECT_THROW(service.serve_batch({}), std::logic_error);
}

TEST(IsoMapServiceTest, CacheHitsAreBitwiseIdenticalToFreshBuilds) {
  IsoMapService service(small_scenario());
  service.tick();
  std::vector<QueryRequest> batch = {full_set_query(service, 0),
                                     full_set_query(service, 1)};
  QueryRequest subset;
  subset.shard = 0;
  subset.levels = {1, 3};
  batch.push_back(subset);

  const std::vector<QueryResponse> first = service.serve_batch(batch);
  ASSERT_EQ(first.size(), batch.size());
  for (const QueryResponse& r : first) EXPECT_FALSE(r.cache_hit);

  // Same round, same keys: the repeat batch is all hits, byte-for-byte
  // the first batch's bodies, and the oracle rebuild agrees with both.
  const std::vector<QueryResponse> second = service.serve_batch(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(second[i].cache_hit);
    EXPECT_EQ(*second[i].body, *first[i].body);
    EXPECT_EQ(service.oracle_check(batch[i], *second[i].body), std::nullopt)
        << "query " << i;
  }
  EXPECT_EQ(service.stats().cache_hits,
            static_cast<long long>(batch.size()));
}

TEST(IsoMapServiceTest, FrozenFieldHitsAcrossTicksDriftMisses) {
  // Frozen field: fingerprints are stable after round 1, so round-2
  // repeats of round-1 queries hit. Drifting field: fingerprints change
  // every round, so the same queries miss again.
  for (const double drift : {0.0, 0.1}) {
    IsoMapService service(small_scenario(drift));
    service.tick();
    const std::vector<QueryRequest> batch = {full_set_query(service, 0)};
    service.serve_batch(batch);
    service.tick();
    const std::vector<QueryResponse> out = service.serve_batch(batch);
    EXPECT_EQ(out[0].cache_hit, drift == 0.0) << "drift " << drift;
  }
}

TEST(IsoMapServiceTest, NormalizeLevelsCanonicalizesAndBoundsChecks) {
  IsoMapService service(small_scenario());
  QueryRequest q;
  q.shard = 0;
  q.levels = {3, 1, 3, 0};
  EXPECT_TRUE(service.normalize_levels(q));
  EXPECT_EQ(q.levels, (std::vector<int>{0, 1, 3}));
  q.levels = {0, 4};  // Shard 0 has 4 levels: index 4 out of range.
  EXPECT_FALSE(service.normalize_levels(q));
  q.levels = {};
  EXPECT_FALSE(service.normalize_levels(q));
  q.shard = 2;
  q.levels = {0};
  EXPECT_FALSE(service.normalize_levels(q));
}

TEST(IsoMapServiceTest, FifoEvictionBoundsCacheSize) {
  ServiceScenario sc = small_scenario();
  sc.cache_capacity = 2;
  IsoMapService service(sc);
  service.tick();
  for (const std::vector<int>& levels :
       {std::vector<int>{0}, {1}, {2}, {0, 1}}) {
    QueryRequest q;
    q.shard = 0;
    q.levels = levels;
    service.serve_batch({q});
    EXPECT_LE(service.cache_size(), 2u);
  }
}

TEST(IsoMapServiceTest, LatencyLanesStayConsistentPastReservoirCapacity) {
  // Each tick serves its mix 200 times over, twice: the first pass is
  // all misses (keys are new this round), the second all hits, so both
  // lanes and the all-queries lane run past the sample set's capacity.
  IsoMapService service(small_scenario(0.1));
  for (int round = 0; round < 3; ++round) {
    service.tick();
    std::vector<QueryRequest> batch;
    const std::vector<QueryRequest> mix = service.mix_for_tick();
    for (int rep = 0; rep < 200; ++rep)
      batch.insert(batch.end(), mix.begin(), mix.end());
    service.serve_batch(batch);
    service.serve_batch(batch);
  }
  const auto queries = static_cast<std::size_t>(service.stats().queries);
  ASSERT_GT(queries, 3 * SampleSet::kCapacity);
  EXPECT_EQ(service.latency_all().count(), queries);
  EXPECT_EQ(service.latency_hits().count() + service.latency_misses().count(),
            queries);
  EXPECT_GT(service.latency_hits().count(), SampleSet::kCapacity);
  EXPECT_GT(service.latency_misses().count(), SampleSet::kCapacity);
  JsonValue summary = service.service_summary(0.0);
  JsonValue& latency = summary["latency"];
  EXPECT_LE(latency["p50_us"].as_number(), latency["p99_us"].as_number());
}

TEST(IsoMapServiceTest, MixForTickIsDeterministicPerRound) {
  IsoMapService service(small_scenario());
  service.tick();
  const std::vector<QueryRequest> a = service.mix_for_tick();
  const std::vector<QueryRequest> b = service.mix_for_tick();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].shard, b[i].shard);
    EXPECT_EQ(a[i].levels, b[i].levels);
  }
}

TEST(IsoMapServiceTest, ServedBytesAreThreadCountIndependent) {
  const int original = exec::thread_count();
  std::vector<std::string> runs;
  for (const int threads : {1, 4}) {
    exec::set_thread_count(threads);
    IsoMapService service(small_scenario(0.1));
    std::string all;
    for (int r = 0; r < 3; ++r) {
      service.tick();
      for (const QueryResponse& out :
           service.serve_batch(service.mix_for_tick())) {
        all += *out.body;
        all += '\n';
      }
    }
    runs.push_back(std::move(all));
  }
  exec::set_thread_count(original);
  EXPECT_EQ(runs[0], runs[1]);
}

// ---------------------------------------------------------------------------
// Wire fragments.

TEST(WireTest, EnvelopePlusJoinedFragmentsEqualsSerializeResponse) {
  const std::vector<Vec2> ring = {{0.1, 2.0}, {3.25, -1e-7}, {1e21, 4.0}};
  const std::vector<Vec2> open = {{5.0, 6.5}};
  std::vector<serve::WireLevel> levels;
  for (int k = 0; k < 4; ++k) {
    serve::WireLevel w;
    w.isolevel = -2.5 + 0.3 * k;
    w.report_count = 3 * k;
    if (k % 2 == 0) w.boundaries = {{true, &ring}, {false, &open}};
    levels.push_back(w);
  }
  const std::string name = "harbor \"east\"";
  std::string envelope;
  serve::write_envelope(envelope, name);
  for (const std::size_t count : {0u, 1u, 4u}) {
    const std::vector<serve::WireLevel> subset(levels.begin(),
                                               levels.begin() + count);
    std::vector<std::string> fragments(count);
    std::vector<const std::string*> parts;
    for (std::size_t i = 0; i < count; ++i) {
      serve::write_level(fragments[i], subset[i]);
      parts.push_back(&fragments[i]);
    }
    EXPECT_EQ(serve::assemble_response(envelope, parts),
              serve::serialize_response(name, subset))
        << count << " levels";
  }
}

/// Every nonempty level subset of every shard, shard by shard.
std::vector<QueryRequest> all_subsets(const IsoMapService& service) {
  std::vector<QueryRequest> out;
  for (int shard = 0; shard < service.shard_count(); ++shard) {
    const int n = service.num_levels(shard);
    for (int mask = 1; mask < (1 << n); ++mask) {
      QueryRequest q;
      q.shard = shard;
      for (int k = 0; k < n; ++k)
        if ((mask >> k) & 1) q.levels.push_back(k);
      out.push_back(std::move(q));
    }
  }
  return out;
}

/// Every response equals a fresh serialization of the shard's live map,
/// and the oracle rebuild agrees. Returns the bodies, one per line.
std::string check_against_fresh(const IsoMapService& service,
                                const std::vector<QueryRequest>& batch,
                                const std::vector<QueryResponse>& out) {
  std::string all;
  EXPECT_EQ(out.size(), batch.size());
  for (std::size_t i = 0; i < batch.size() && i < out.size(); ++i) {
    const QueryRequest& q = batch[i];
    const std::string fresh = serve::serialize_response(
        service.shard_name(q.shard),
        serve::wire_levels_from_map(service.map(q.shard), q.levels));
    EXPECT_EQ(*out[i].body, fresh)
        << "round " << service.rounds_done() << " query " << i;
    EXPECT_EQ(service.oracle_check(q, *out[i].body), std::nullopt)
        << "round " << service.rounds_done() << " query " << i;
    all += *out[i].body;
    all += '\n';
  }
  return all;
}

TEST(IsoMapServiceTest, FragmentBodiesEqualFreshSerializationEveryTick) {
  const int original = exec::thread_count();
  std::vector<std::string> runs;
  for (const int threads : {1, 4}) {
    exec::set_thread_count(threads);
    IsoMapService service(small_scenario(0.1));
    std::string all;
    for (int tick = 0; tick < 30; ++tick) {
      service.tick();
      // The tick's mix writes some fragments; the subset sweep then
      // reuses those and writes the rest.
      const std::vector<QueryRequest> mix = service.mix_for_tick();
      all += check_against_fresh(service, mix, service.serve_batch(mix));
      const std::vector<QueryRequest> subsets = all_subsets(service);
      all += check_against_fresh(service, subsets,
                                 service.serve_batch(subsets));
    }
    EXPECT_GT(service.stats().fragments_built, 0);
    runs.push_back(std::move(all));
  }
  exec::set_thread_count(original);
  EXPECT_EQ(runs[0], runs[1]);
}

TEST(IsoMapServiceTest, FrozenShardBuildsNoFragmentsAfterFirstServedTick) {
  IsoMapService service(small_scenario(0.0));
  service.tick();
  const std::vector<QueryRequest> full = {full_set_query(service, 0),
                                          full_set_query(service, 1)};
  service.serve_batch(full);
  const long long built = service.stats().fragments_built;
  EXPECT_EQ(built, service.num_levels(0) + service.num_levels(1));
  const long long bodies = service.stats().unique_bodies_built;
  for (int tick = 0; tick < 5; ++tick) {
    service.tick();
    const std::vector<QueryRequest> subsets = all_subsets(service);
    check_against_fresh(service, subsets, service.serve_batch(subsets));
  }
  // The subsets missed the body cache (new keys), yet every one was
  // assembled from the fragments the first tick wrote.
  EXPECT_GT(service.stats().unique_bodies_built, bodies);
  EXPECT_EQ(service.stats().fragments_built, built);
}

TEST(IsoMapServiceTest, OracleEngineShardServesIdenticalBytes) {
  // A kOracle shard builds a fresh region for every level every round,
  // so each of its fragments is rewritten whenever a miss needs it; the
  // bytes still equal the incremental engine's and a fresh rebuild.
  ServiceScenario oracle_sc = small_scenario(0.1);
  for (DeploymentSpec& d : oracle_sc.deployments)
    d.engine = ContinuousEngine::kOracle;
  IsoMapService oracle(oracle_sc);
  IsoMapService incremental(small_scenario(0.1));
  for (int tick = 0; tick < 8; ++tick) {
    oracle.tick();
    incremental.tick();
    const std::vector<QueryRequest> subsets = all_subsets(oracle);
    const std::string a =
        check_against_fresh(oracle, subsets, oracle.serve_batch(subsets));
    const std::string b = check_against_fresh(
        incremental, subsets, incremental.serve_batch(subsets));
    EXPECT_EQ(a, b) << "round " << tick + 1;
  }
  EXPECT_GE(oracle.stats().fragments_built,
            incremental.stats().fragments_built);
}

// ---------------------------------------------------------------------------
// Capsule integration.

TEST(IsoMapServiceTest, ShardCapsuleExportReplaysBitForBit) {
  IsoMapService service(small_scenario(0.1));
  for (int r = 0; r < 3; ++r) service.tick();
  const std::string path =
      (std::filesystem::temp_directory_path() / "serve_alpha_test.capsule")
          .string();
  ASSERT_TRUE(service.save_shard_capsule(0, path));
  const capsule::RunCapsule stored = capsule::load(path);
  std::remove(path.c_str());
  EXPECT_EQ(stored.kind, capsule::RunKind::kContinuous);
  EXPECT_EQ(stored.rounds.size(), 3u);
  const capsule::RunCapsule fresh = capsule::replay(stored);
  const auto diff = capsule::diff_outputs(stored, fresh);
  EXPECT_FALSE(diff.has_value())
      << diff->where << ": " << diff->detail;
}

/// The synthetic preset a DeploymentSpec names, over its bounds.
GaussianField preset_field(FieldKind kind, double side) {
  const FieldBounds bounds{0.0, 0.0, side, side};
  switch (kind) {
    case FieldKind::kHarbor:
      return harbor_bathymetry(bounds);
    case FieldKind::kSilted:
      return silted_harbor_bathymetry(bounds);
    case FieldKind::kMultiBasin:
      return multi_basin_bathymetry(bounds);
    case FieldKind::kSloped:
      return sloped_seabed_bathymetry(bounds);
    case FieldKind::kRandom:
      break;
  }
  throw std::invalid_argument("preset_field: no preset");
}

/// Field-driven shards sample their fields once and blend the cached
/// per-node samples each tick. Every exported round must equal a fresh
/// evaluation of the base field (alpha 0) or of the BlendedField at each
/// alive node, bit for bit, with dead nodes reading exactly 0.0. The
/// oracle lane rebuilds maps from the shard's own readings, so it is off
/// here: this check is the only one that sees the readings themselves.
TEST(IsoMapServiceTest, TickReadingsEqualFieldEvaluationBitForBit) {
  ServiceScenario sc = small_scenario();
  sc.oracle_check_every = 0;
  sc.deployments[0].drift_per_round = 0.0;  // Frozen harbor.
  sc.deployments[1].drift_per_round = 0.25;
  sc.deployments[1].failure_fraction = 0.2;
  // Ping-pong alpha for rounds 1..10 at 0.25 per round: 1 exactly at
  // round 5, back to 0 at round 9.
  const std::vector<double> drift_alpha = {0.0, 0.25, 0.5, 0.75, 1.0,
                                           0.75, 0.5, 0.25, 0.0, 0.25};
  IsoMapService service(sc);
  for (std::size_t r = 0; r < drift_alpha.size(); ++r) service.tick();

  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  for (int shard = 0; shard < service.shard_count(); ++shard) {
    const DeploymentSpec& spec =
        sc.deployments[static_cast<std::size_t>(shard)];
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("serve_readings_" + spec.name + ".capsule"))
            .string();
    ASSERT_TRUE(service.save_shard_capsule(shard, path));
    const capsule::RunCapsule stored = capsule::load(path);
    std::remove(path.c_str());
    ASSERT_EQ(stored.rounds.size(), drift_alpha.size());

    const GaussianField base = preset_field(spec.field, spec.field_side);
    const GaussianField target =
        preset_field(spec.drift_target, spec.field_side);
    const auto& nodes = stored.deployment.nodes;
    int dead = 0;
    for (std::size_t r = 0; r < stored.rounds.size(); ++r) {
      const double alpha = spec.drift_per_round > 0.0 ? drift_alpha[r] : 0.0;
      const BlendedField blended(base, target, alpha);
      const ScalarField& field =
          alpha > 0.0 ? static_cast<const ScalarField&>(blended) : base;
      ASSERT_EQ(stored.rounds[r].size(), nodes.size());
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        const double want = nodes[i].alive ? field.value(nodes[i].pos) : 0.0;
        dead += nodes[i].alive ? 0 : 1;
        ASSERT_EQ(bits(stored.rounds[r][i]), bits(want))
            << spec.name << " round " << r + 1 << " node " << i;
      }
    }
    EXPECT_EQ(dead > 0, spec.failure_fraction > 0.0) << spec.name;
  }
}

TEST(IsoMapServiceTest, AttachCapsuleShardRejectsBadInputs) {
  const capsule::RunCapsule continuous =
      capsule::load(golden_path("continuous_drift"));
  const capsule::RunCapsule single =
      capsule::load(golden_path("single_small"));
  IsoMapService service(small_scenario());
  EXPECT_THROW(service.attach_capsule_shard("single", single),
               std::invalid_argument);
  EXPECT_THROW(service.attach_capsule_shard("alpha", continuous),
               std::invalid_argument);  // Duplicate shard name.
  service.attach_capsule_shard("drift", continuous);
  service.tick();
  EXPECT_THROW(service.attach_capsule_shard("late", continuous),
               std::logic_error);
}

/// Golden-compat contract: a service shard hosting an existing golden
/// capsule's deployment (readings scripted from the capsule) serves a
/// final map bitwise-identical to what isomap_replay computes for the
/// same capsule — at thread counts 1 and 4, and again from the cache.
TEST(GoldenCompatTest, ServiceServesReplayIdenticalBytes) {
  const capsule::RunCapsule stored =
      capsule::load(golden_path("continuous_drift"));
  ASSERT_EQ(stored.kind, capsule::RunKind::kContinuous);
  ASSERT_FALSE(stored.rounds.empty());
  const int original = exec::thread_count();
  std::vector<std::string> bodies;
  for (const int threads : {1, 4}) {
    exec::set_thread_count(threads);
    const capsule::RunCapsule fresh = capsule::replay(stored);

    ServiceScenario sc;
    sc.name = "golden";
    sc.rounds = static_cast<int>(stored.rounds.size());
    sc.cache_capacity = 16;
    IsoMapService service(sc);
    const int shard = service.attach_capsule_shard("drift", stored);
    for (std::size_t r = 0; r < stored.rounds.size(); ++r) service.tick();

    const QueryRequest q = full_set_query(service, shard);
    const std::vector<QueryResponse> out = service.serve_batch({q});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_FALSE(out[0].cache_hit);
    const std::string expect = serve::serialize_response(
        "drift", serve::wire_levels_from_contours(fresh.final_contours,
                                                  q.levels));
    EXPECT_EQ(*out[0].body, expect) << "threads=" << threads;
    // The replayed outputs match the recorded golden, so the service
    // also agrees with the capsule's stored contours.
    const std::string golden = serve::serialize_response(
        "drift", serve::wire_levels_from_contours(stored.final_contours,
                                                  q.levels));
    EXPECT_EQ(*out[0].body, golden) << "threads=" << threads;
    // And the cached copy hands out the identical bytes.
    const std::vector<QueryResponse> again = service.serve_batch({q});
    EXPECT_TRUE(again[0].cache_hit);
    EXPECT_EQ(*again[0].body, *out[0].body);
    bodies.push_back(*out[0].body);
  }
  exec::set_thread_count(original);
  ASSERT_EQ(bodies.size(), 2u);
  EXPECT_EQ(bodies[0], bodies[1]);
}

}  // namespace
}  // namespace isomap
