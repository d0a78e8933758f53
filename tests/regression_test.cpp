#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <tuple>
#include <vector>

#include "field/gaussian_field.hpp"
#include "isomap/regression.hpp"
#include "oracle/regression.hpp"
#include "util/rng.hpp"

namespace isomap {
namespace {

TEST(Solve3x3, Identity) {
  double a[3][3] = {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  double b[3] = {4, 5, 6};
  double x[3];
  ASSERT_TRUE(solve3x3(a, b, x));
  EXPECT_DOUBLE_EQ(x[0], 4.0);
  EXPECT_DOUBLE_EQ(x[1], 5.0);
  EXPECT_DOUBLE_EQ(x[2], 6.0);
}

TEST(Solve3x3, RequiresPivoting) {
  // Zero on the first diagonal entry: naive elimination would fail.
  double a[3][3] = {{0, 1, 0}, {1, 0, 0}, {0, 0, 1}};
  double b[3] = {2, 3, 4};
  double x[3];
  ASSERT_TRUE(solve3x3(a, b, x));
  EXPECT_DOUBLE_EQ(x[0], 3.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
  EXPECT_DOUBLE_EQ(x[2], 4.0);
}

TEST(Solve3x3, SingularReturnsFalse) {
  double a[3][3] = {{1, 2, 3}, {2, 4, 6}, {1, 1, 1}};
  double b[3] = {1, 2, 3};
  double x[3];
  EXPECT_FALSE(solve3x3(a, b, x));
}

TEST(Solve3x3, RandomSystemsRoundTrip) {
  Rng rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    double a[3][3], a_copy[3][3], x_true[3], b[3];
    for (int i = 0; i < 3; ++i) {
      x_true[i] = rng.uniform(-5, 5);
      for (int j = 0; j < 3; ++j) a[i][j] = rng.uniform(-5, 5);
    }
    for (int i = 0; i < 3; ++i) {
      b[i] = 0.0;
      for (int j = 0; j < 3; ++j) {
        b[i] += a[i][j] * x_true[j];
        a_copy[i][j] = a[i][j];
      }
    }
    double x[3];
    if (!solve3x3(a_copy, b, x)) continue;  // Nearly singular draw.
    for (int i = 0; i < 3; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-6);
  }
}

TEST(FitPlane, RecoversExactPlane) {
  // Samples from v = 2 + 0.5 x - 1.25 y must be fit exactly.
  std::vector<FieldSample> samples;
  for (double x : {0.0, 1.0, 2.0, 3.0})
    for (double y : {0.0, 1.5, 2.5})
      samples.push_back({{x, y}, 2.0 + 0.5 * x - 1.25 * y});
  const auto fit = fit_plane(samples);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->c0, 2.0, 1e-9);
  EXPECT_NEAR(fit->c1, 0.5, 1e-9);
  EXPECT_NEAR(fit->c2, -1.25, 1e-9);
  EXPECT_NEAR(fit->value_at({2.0, 1.5}), 2.0 + 1.0 - 1.875, 1e-9);
  const Vec2 d = fit->descent_direction();
  EXPECT_NEAR(d.x, -0.5, 1e-9);
  EXPECT_NEAR(d.y, 1.25, 1e-9);
}

TEST(FitPlane, TooFewSamplesFails) {
  EXPECT_FALSE(fit_plane({}).has_value());
  EXPECT_FALSE(fit_plane({{{0, 0}, 1.0}}).has_value());
  EXPECT_FALSE(fit_plane({{{0, 0}, 1.0}, {{1, 0}, 2.0}}).has_value());
}

TEST(FitPlane, CollinearPositionsFail) {
  std::vector<FieldSample> samples;
  for (double x : {0.0, 1.0, 2.0, 3.0, 4.0})
    samples.push_back({{x, 2.0 * x}, x});
  EXPECT_FALSE(fit_plane(samples).has_value());
}

TEST(FitPlane, OpsScaleWithSampleCount) {
  std::vector<FieldSample> small, large;
  Rng rng(2);
  auto fill = [&](std::vector<FieldSample>& v, int n) {
    for (int i = 0; i < n; ++i)
      v.push_back({{rng.uniform(0, 10), rng.uniform(0, 10)},
                   rng.uniform(0, 5)});
  };
  fill(small, 5);
  fill(large, 50);
  double ops_small = 0.0, ops_large = 0.0;
  fit_plane(small, &ops_small);
  fit_plane(large, &ops_large);
  EXPECT_GT(ops_small, 0.0);
  EXPECT_GT(ops_large, ops_small);
  // Linear in n: ratio of the per-sample parts ~ 10.
  EXPECT_NEAR((ops_large - 40.0) / (ops_small - 40.0), 10.0, 1e-9);
}

TEST(FitPlane, NumericallyStableFarFromOrigin) {
  // Samples clustered around (10000, 10000): centring keeps the fit exact.
  std::vector<FieldSample> samples;
  for (double dx : {0.0, 0.5, 1.0})
    for (double dy : {0.0, 0.5, 1.0})
      samples.push_back(
          {{10000.0 + dx, 10000.0 + dy}, 3.0 + 0.25 * dx - 0.5 * dy});
  const auto fit = fit_plane(samples);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->c1, 0.25, 1e-6);
  EXPECT_NEAR(fit->c2, -0.5, 1e-6);
}

class FitPlaneProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FitPlaneProperty, DescentDirectionApproximatesTrueGradient) {
  // On a smooth field, regression over a small neighbourhood must estimate
  // a direction close to -grad f (the Fig. 6/7 premise).
  Rng rng(GetParam());
  GaussianField field = GaussianField::random({0, 0, 50, 50}, 5, 4.0, rng);
  int tested = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const Vec2 center{rng.uniform(5, 45), rng.uniform(5, 45)};
    const Vec2 g = field.gradient(center);
    if (g.norm() < 0.05) continue;  // Skip flat spots: direction undefined.
    std::vector<FieldSample> samples{{center, field.value(center)}};
    for (int i = 0; i < 10; ++i) {
      const Vec2 p = center + Vec2{rng.uniform(-1.5, 1.5),
                                   rng.uniform(-1.5, 1.5)};
      samples.push_back({p, field.value(p)});
    }
    const auto fit = fit_plane(samples);
    ASSERT_TRUE(fit.has_value());
    const double err = angle_between(fit->descent_direction(), -g);
    EXPECT_LT(err, 30.0 * M_PI / 180.0);
    ++tested;
  }
  EXPECT_GT(tested, 10);
}

TEST_P(FitPlaneProperty, ResidualIsMinimal) {
  // Perturbing the fitted coefficients must not reduce the squared error.
  Rng rng(GetParam() + 40);
  std::vector<FieldSample> samples;
  for (int i = 0; i < 15; ++i)
    samples.push_back({{rng.uniform(0, 10), rng.uniform(0, 10)},
                       rng.uniform(-3, 3)});
  const auto fit = fit_plane(samples);
  ASSERT_TRUE(fit.has_value());
  auto sse = [&](double c0, double c1, double c2) {
    double acc = 0.0;
    for (const auto& s : samples) {
      const double r = s.value - (c0 + c1 * s.pos.x + c2 * s.pos.y);
      acc += r * r;
    }
    return acc;
  };
  const double best = sse(fit->c0, fit->c1, fit->c2);
  for (int i = 0; i < 20; ++i) {
    const double d0 = rng.uniform(-0.1, 0.1);
    const double d1 = rng.uniform(-0.1, 0.1);
    const double d2 = rng.uniform(-0.1, 0.1);
    EXPECT_GE(sse(fit->c0 + d0, fit->c1 + d1, fit->c2 + d2), best - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FitPlaneProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// fit_plane_soa feeds the protocol's gradient hot loop; its contract is
// *bitwise* agreement with the AoS fit_plane on the same sample sequence,
// not merely numerical closeness — the golden capsules depend on it.

std::tuple<std::vector<FieldSample>, std::vector<double>, std::vector<double>,
           std::vector<double>>
split_samples(int n, Rng& rng) {
  std::vector<FieldSample> aos;
  std::vector<double> xs, ys, vs;
  for (int i = 0; i < n; ++i) {
    const FieldSample s{{rng.uniform(-50, 50), rng.uniform(-50, 50)},
                        rng.uniform(-10, 10)};
    aos.push_back(s);
    xs.push_back(s.pos.x);
    ys.push_back(s.pos.y);
    vs.push_back(s.value);
  }
  return {aos, xs, ys, vs};
}

void expect_same_position_stats(const PlanePositionStats& a,
                                const PlanePositionStats& b, int n) {
  EXPECT_EQ(a.n, b.n) << "n=" << n;
  EXPECT_EQ(a.mean.x, b.mean.x) << "n=" << n;
  EXPECT_EQ(a.mean.y, b.mean.y) << "n=" << n;
  EXPECT_EQ(a.sx, b.sx) << "n=" << n;
  EXPECT_EQ(a.sy, b.sy) << "n=" << n;
  EXPECT_EQ(a.sxx, b.sxx) << "n=" << n;
  EXPECT_EQ(a.sxy, b.sxy) << "n=" << n;
  EXPECT_EQ(a.syy, b.syy) << "n=" << n;
}

void expect_same_value_stats(const PlaneValueStats& a,
                             const PlaneValueStats& b, int n) {
  EXPECT_EQ(a.mean_v, b.mean_v) << "n=" << n;
  EXPECT_EQ(a.sv, b.sv) << "n=" << n;
  EXPECT_EQ(a.sxv, b.sxv) << "n=" << n;
  EXPECT_EQ(a.syv, b.syv) << "n=" << n;
}

TEST(FitPlaneSoA, StatsBitwiseIdenticalToAoS) {
  // The AoS split path is the reference: the fused plane_stats_batch and
  // the oracle's unfused SoA split kernels must both reproduce it.
  Rng rng(71);
  for (const int n : {3, 4, 7, 16, 33, 60}) {
    const auto [aos, xs, ys, vs] = split_samples(n, rng);
    const PlanePositionStats pa = plane_position_stats(aos);
    const PlaneValueStats va = plane_value_stats(aos, pa);
    const PlaneStats batch = plane_stats_batch(xs, ys, vs);
    expect_same_position_stats(pa, batch.pos, n);
    expect_same_value_stats(va, batch.val, n);
    const PlanePositionStats ps = oracle::plane_position_stats(xs, ys);
    expect_same_position_stats(pa, ps, n);
    expect_same_value_stats(va, oracle::plane_value_stats(xs, ys, vs, ps), n);
  }
}

TEST(FitPlaneSoA, FitBitwiseIdenticalToAoS) {
  Rng rng(72);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 3 + static_cast<int>(rng.uniform_int(40));
    const auto [aos, xs, ys, vs] = split_samples(n, rng);
    double ops = 0.0;
    const auto fit_a = fit_plane(aos, &ops);
    const auto fit_s = fit_plane_soa(xs, ys, vs);
    ASSERT_EQ(fit_a.has_value(), fit_s.has_value()) << "trial " << trial;
    if (!fit_a) continue;
    // The protocol charges fit_plane_ops(n) beside fit_plane_soa; it must
    // be the charge fit_plane itself makes.
    EXPECT_EQ(ops, fit_plane_ops(aos.size())) << "trial " << trial;
    EXPECT_EQ(fit_a->c0, fit_s->c0) << "trial " << trial;
    EXPECT_EQ(fit_a->c1, fit_s->c1) << "trial " << trial;
    EXPECT_EQ(fit_a->c2, fit_s->c2) << "trial " << trial;
  }
}

TEST(FitPlaneSoA, DegenerateCasesAgree) {
  // Too few samples and collinear positions must fail on both paths.
  const std::vector<double> xs3{0.0, 1.0, 2.0}, ys3{0.0, 3.0, 1.0},
      vs3{1.0, 2.0, 3.0};
  for (std::size_t n = 0; n < 3; ++n) {
    const std::span<const double> x(xs3.data(), n), y(ys3.data(), n),
        v(vs3.data(), n);
    EXPECT_FALSE(fit_plane_soa(x, y, v).has_value()) << "n=" << n;
    std::vector<FieldSample> aos;
    for (std::size_t i = 0; i < n; ++i) aos.push_back({{x[i], y[i]}, v[i]});
    EXPECT_FALSE(fit_plane(aos).has_value()) << "n=" << n;
  }
  EXPECT_TRUE(fit_plane_soa(xs3, ys3, vs3).has_value());
  std::vector<double> xs, ys, vs;
  std::vector<FieldSample> aos;
  for (double x : {0.0, 1.0, 2.0, 3.0, 4.0}) {
    xs.push_back(x);
    ys.push_back(2.0 * x);
    vs.push_back(x);
    aos.push_back({{x, 2.0 * x}, x});
  }
  EXPECT_FALSE(fit_plane_soa(xs, ys, vs).has_value());
  EXPECT_FALSE(fit_plane(aos).has_value());
}

}  // namespace
}  // namespace isomap
