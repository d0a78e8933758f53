#pragma once

#include <span>

#include "isomap/regression.hpp"

namespace isomap::oracle {

/// SoA position block: plane_position_stats over parallel coordinate
/// arrays, one pass for the means and one for the centred sums. Each
/// accumulator adds the same addends in the same order as the AoS loop,
/// so the block is bit-identical to the AoS path. Together with
/// plane_value_stats below it is the scalar (unfused) oracle of
/// plane_stats_batch.
PlanePositionStats plane_position_stats(std::span<const double> xs,
                                        std::span<const double> ys);

/// SoA value block, centring positions on `pos.mean`; bit-identical to the
/// AoS plane_value_stats on the same samples.
PlaneValueStats plane_value_stats(std::span<const double> xs,
                                  std::span<const double> ys,
                                  std::span<const double> vs,
                                  const PlanePositionStats& pos);

}  // namespace isomap::oracle
