#include "oracle/voronoi.hpp"

#include <algorithm>
#include <numeric>

namespace isomap::oracle {

std::vector<VoronoiCell> brute_force_voronoi_cells(
    const std::vector<Vec2>& sites, double x0, double y0, double x1,
    double y1) {
  const std::size_t n = sites.size();
  std::vector<VoronoiCell> cells;
  cells.reserve(n);
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Vec2 si = sites[i];
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const double da = (sites[static_cast<std::size_t>(a)] - si).norm2();
      const double db = (sites[static_cast<std::size_t>(b)] - si).norm2();
      return da < db || (da == db && a < b);
    });
    cells.push_back(voronoi_cell(sites, i, order, x0, y0, x1, y1));
  }
  return cells;
}

}  // namespace isomap::oracle
