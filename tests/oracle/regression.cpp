#include "oracle/regression.hpp"

namespace isomap::oracle {

PlanePositionStats plane_position_stats(std::span<const double> xs,
                                        std::span<const double> ys) {
  PlanePositionStats stats;
  stats.n = xs.size();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    stats.mean.x += xs[i];
    stats.mean.y += ys[i];
  }
  if (stats.n > 0) stats.mean *= 1.0 / static_cast<double>(stats.n);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double x = xs[i] - stats.mean.x;
    const double y = ys[i] - stats.mean.y;
    stats.sx += x;
    stats.sy += y;
    stats.sxx += x * x;
    stats.sxy += x * y;
    stats.syy += y * y;
  }
  return stats;
}

PlaneValueStats plane_value_stats(std::span<const double> xs,
                                  std::span<const double> ys,
                                  std::span<const double> vs,
                                  const PlanePositionStats& pos) {
  PlaneValueStats stats;
  for (std::size_t i = 0; i < vs.size(); ++i) stats.mean_v += vs[i];
  if (pos.n > 0) stats.mean_v *= 1.0 / static_cast<double>(pos.n);
  for (std::size_t i = 0; i < vs.size(); ++i) {
    const double x = xs[i] - pos.mean.x;
    const double y = ys[i] - pos.mean.y;
    const double v = vs[i] - stats.mean_v;
    stats.sv += v;
    stats.sxv += x * v;
    stats.syv += y * v;
  }
  return stats;
}

}  // namespace isomap::oracle
