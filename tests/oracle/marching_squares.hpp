#pragma once

#include <vector>

#include "geometry/marching_squares.hpp"
#include "geometry/polyline.hpp"

namespace isomap::oracle {

/// Straight-line marching squares: evaluates every corner sample per cell
/// (no row cache) and every edge crossing per cell (no laziness), with the
/// same saddle rule and stitching as isomap::marching_squares, which must
/// reproduce it bit for bit.
std::vector<Polyline> marching_squares_reference(const SampleGrid& grid,
                                                 double isolevel);

}  // namespace isomap::oracle
