#pragma once

#include <vector>

#include "geometry/vec2.hpp"
#include "geometry/voronoi.hpp"

namespace isomap::oracle {

/// Every cell of the bounded Voronoi diagram of `sites`, built by sorting
/// all sites by (squared distance, index) per cell and feeding the whole
/// list to voronoi_cell: O(n^2 log n), no spatial index. VoronoiDiagram
/// must reproduce these cells bit for bit — the same candidate order
/// through the same clipping arithmetic.
std::vector<VoronoiCell> brute_force_voronoi_cells(
    const std::vector<Vec2>& sites, double x0, double y0, double x1,
    double y1);

}  // namespace isomap::oracle
