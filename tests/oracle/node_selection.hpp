#pragma once

#include <vector>

#include "isomap/node_selection.hpp"
#include "net/comm_graph.hpp"

namespace isomap::oracle {

/// Definition 3.1 for one node and one level, read straight off the
/// paper: the reading lies in the ε-band of the isolevel and some 1-hop
/// neighbour's reading lies strictly on the other side of it.
bool is_isoline_node(double reading,
                     const std::vector<double>& neighbour_readings,
                     double isolevel, double epsilon);

/// The full level scan of Definition 3.1 for one node: every level is
/// tested, with the ops and candidate accounting of
/// evaluate_node_selection, whose binary-searched band window must
/// reproduce it term for term (admissions, candidates, ops).
NodeSelectionResult full_scan_selection(const CommGraph& graph,
                                        const std::vector<double>& readings,
                                        int node,
                                        const std::vector<double>& levels,
                                        double epsilon,
                                        std::vector<int>& admitted);

}  // namespace isomap::oracle
