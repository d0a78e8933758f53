#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "geometry/point_index.hpp"
#include "util/rng.hpp"

namespace isomap {
namespace {

TEST(PointIndex, EmptySet) {
  PointIndex index({});
  EXPECT_EQ(index.nearest({0, 0}), -1);
  EXPECT_TRUE(index.k_nearest({0, 0}, 3).empty());
  EXPECT_TRUE(index.within({0, 0}, 10.0).empty());
}

TEST(PointIndex, SinglePoint) {
  PointIndex index({{3, 4}});
  EXPECT_EQ(index.nearest({0, 0}), 0);
  EXPECT_EQ(index.nearest({100, 100}), 0);
  EXPECT_EQ(index.within({0, 0}, 5.0).size(), 1u);
  EXPECT_TRUE(index.within({0, 0}, 4.9).empty());
}

TEST(PointIndex, NearestSimpleCases) {
  PointIndex index({{0, 0}, {10, 0}, {0, 10}, {10, 10}});
  EXPECT_EQ(index.nearest({1, 1}), 0);
  EXPECT_EQ(index.nearest({9, 1}), 1);
  EXPECT_EQ(index.nearest({1, 9}), 2);
  EXPECT_EQ(index.nearest({9, 9}), 3);
}

TEST(PointIndex, TieBreaksByLowestIndex) {
  PointIndex index({{0, 0}, {2, 0}});
  EXPECT_EQ(index.nearest({1, 0}), 0);
}

TEST(PointIndex, DuplicatePointsSupported) {
  PointIndex index({{5, 5}, {5, 5}, {8, 8}});
  EXPECT_EQ(index.nearest({5.1, 5.1}), 0);
  EXPECT_EQ(index.within({5, 5}, 0.1).size(), 2u);
}

TEST(PointIndex, KNearestOrdering) {
  PointIndex index({{0, 0}, {1, 0}, {2, 0}, {3, 0}, {10, 0}});
  const auto near3 = index.k_nearest({0.1, 0}, 3);
  ASSERT_EQ(near3.size(), 3u);
  EXPECT_EQ(near3[0], 0);
  EXPECT_EQ(near3[1], 1);
  EXPECT_EQ(near3[2], 2);
  // k larger than the set returns all, closest first.
  const auto all = index.k_nearest({0.1, 0}, 99);
  EXPECT_EQ(all.size(), 5u);
  EXPECT_EQ(all.back(), 4);
}

TEST(PointIndex, ExtentNearDoubleMaxKeepsCellsFinite) {
  // max - min overflows to inf here; the cell size and the cell counts
  // must stay finite (no NaN may reach an int cast, which the
  // float-cast-overflow sanitizer reports).
  PointIndex index({{-1.7e308, 0}, {1.7e308, 0}, {0, 0}});
  EXPECT_TRUE(std::isfinite(index.cell_size()));
  EXPECT_EQ(index.nearest({-1.7e308, 0}), 0);
  EXPECT_EQ(index.nearest({1.7e308, 0}), 1);
  EXPECT_EQ(index.nearest({0, 0}), 2);
  EXPECT_EQ(index.nearest({1e154, 0}), 2);
  EXPECT_EQ(index.nearest({-1e154, 1e150}), 2);
}

TEST(PointIndex, NearestWhenEveryDistanceOverflows) {
  // Every squared distance from these queries overflows to inf; the index
  // still answers with a point of the set.
  PointIndex index({{-1.7e308, 0}, {1.7e308, 0}, {0, 0}});
  for (const Vec2 q : {Vec2{1.6e308, 0}, Vec2{1e200, 0}}) {
    const int got = index.nearest(q);
    EXPECT_GE(got, 0) << q.x;
    EXPECT_LT(got, 3) << q.x;
  }
  EXPECT_EQ(index.nearest({1, 0}), 2);
}

class PointIndexProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PointIndexProperty, MatchesBruteForce) {
  Rng rng(GetParam());
  std::vector<Vec2> points;
  for (int i = 0; i < 300; ++i)
    points.push_back({rng.uniform(0, 50), rng.uniform(0, 50)});
  PointIndex index(points);

  auto brute_nearest = [&](Vec2 q) {
    int best = 0;
    for (std::size_t i = 1; i < points.size(); ++i)
      if ((points[i] - q).norm2() < (points[static_cast<std::size_t>(best)] - q).norm2())
        best = static_cast<int>(i);
    return best;
  };

  for (int trial = 0; trial < 300; ++trial) {
    // Include queries outside the bounding box.
    const Vec2 q{rng.uniform(-20, 70), rng.uniform(-20, 70)};
    const int got = index.nearest(q);
    const int want = brute_nearest(q);
    EXPECT_NEAR((points[static_cast<std::size_t>(got)] - q).norm(),
                (points[static_cast<std::size_t>(want)] - q).norm(), 1e-12)
        << "query " << q.x << "," << q.y;
  }
}

TEST_P(PointIndexProperty, WithinMatchesBruteForce) {
  Rng rng(GetParam() + 41);
  std::vector<Vec2> points;
  for (int i = 0; i < 200; ++i)
    points.push_back({rng.uniform(0, 30), rng.uniform(0, 30)});
  PointIndex index(points);
  for (int trial = 0; trial < 100; ++trial) {
    const Vec2 q{rng.uniform(0, 30), rng.uniform(0, 30)};
    const double radius = rng.uniform(0.5, 8.0);
    auto got = index.within(q, radius);
    std::sort(got.begin(), got.end());
    std::vector<int> want;
    for (std::size_t i = 0; i < points.size(); ++i)
      if ((points[i] - q).norm() <= radius) want.push_back(static_cast<int>(i));
    EXPECT_EQ(got, want);
  }
}

TEST_P(PointIndexProperty, KNearestMatchesBruteForce) {
  Rng rng(GetParam() + 87);
  std::vector<Vec2> points;
  for (int i = 0; i < 150; ++i)
    points.push_back({rng.uniform(0, 25), rng.uniform(0, 25)});
  PointIndex index(points);
  for (int trial = 0; trial < 50; ++trial) {
    const Vec2 q{rng.uniform(0, 25), rng.uniform(0, 25)};
    const int k = 1 + static_cast<int>(rng.uniform_int(6));
    const auto got = index.k_nearest(q, k);
    ASSERT_EQ(got.size(), static_cast<std::size_t>(k));
    std::vector<int> order(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) order[i] = static_cast<int>(i);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const double da = (points[static_cast<std::size_t>(a)] - q).norm2();
      const double db = (points[static_cast<std::size_t>(b)] - q).norm2();
      return da < db || (da == db && a < b);
    });
    for (int i = 0; i < k; ++i) {
      EXPECT_NEAR((points[static_cast<std::size_t>(got[static_cast<std::size_t>(i)])] - q).norm(),
                  (points[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] - q).norm(),
                  1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PointIndexProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace isomap
