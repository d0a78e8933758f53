#include "oracle/node_selection.hpp"

namespace isomap::oracle {

bool is_isoline_node(double reading,
                     const std::vector<double>& neighbour_readings,
                     double isolevel, double epsilon) {
  if (!is_candidate(reading, isolevel, epsilon)) return false;
  for (double nv : neighbour_readings) {
    const bool crossing = (reading < isolevel && isolevel < nv) ||
                          (nv < isolevel && isolevel < reading);
    if (crossing) return true;
  }
  return false;
}

NodeSelectionResult full_scan_selection(const CommGraph& graph,
                                        const std::vector<double>& readings,
                                        int node,
                                        const std::vector<double>& levels,
                                        double epsilon,
                                        std::vector<int>& admitted) {
  admitted.clear();
  NodeSelectionResult result;
  const double v = readings[static_cast<std::size_t>(node)];
  result.ops = static_cast<double>(levels.size());
  for (std::size_t li = 0; li < levels.size(); ++li) {
    const double lambda = levels[li];
    if (!is_candidate(v, lambda, epsilon)) continue;
    ++result.candidates;
    bool crossing = false;
    for (int nb : graph.neighbours(node)) {
      result.ops += 2.0;
      const double nv = readings[static_cast<std::size_t>(nb)];
      if ((v < lambda && lambda < nv) || (nv < lambda && lambda < v)) {
        crossing = true;
        break;
      }
    }
    if (crossing) admitted.push_back(static_cast<int>(li));
  }
  return result;
}

}  // namespace isomap::oracle
