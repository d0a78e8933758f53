#pragma once

#include <memory>
#include <span>
#include <vector>

#include "field/scalar_field.hpp"
#include "geometry/polygon.hpp"
#include "geometry/polyline.hpp"
#include "geometry/voronoi.hpp"
#include "isomap/report.hpp"

namespace isomap {

/// How the sink regulates the raw Voronoi/type-1 approximation (Fig. 8e):
///  - kNone:    raw per-cell construction (type-1 cuts + type-2 cell-border
///              complements), no smoothing — Fig. 8d.
///  - kRules:   the paper's Rules 1 & 2 — type-1 boundaries are prolonged
///              to meet the adjacent cell's type-1 boundary, shaving
///              pinnacles and filling concavities (the default).
///  - kBlended: ablation alternative — inverse-distance-weighted blend of
///              the two nearest reports' half-plane tests (smooth
///              continuous boundary; not in the paper).
enum class RegulationMode { kNone, kRules, kBlended };

/// The contour region of a single isolevel as reconstructed at the sink:
/// the Voronoi diagram of the reported isopositions plus, per cell, the
/// convex pieces making up the region (the inner part plus any Rule-2
/// concave fills).
class LevelRegion {
 public:
  LevelRegion(double isolevel, std::vector<IsolineReport> reports,
              FieldBounds bounds, RegulationMode mode);

  double isolevel() const { return isolevel_; }
  const std::vector<IsolineReport>& reports() const { return reports_; }
  const VoronoiDiagram& voronoi() const { return voronoi_; }
  bool has_reports() const { return !reports_.empty(); }

  /// All convex pieces of the region within the cell of site i.
  const std::vector<Polygon>& cell_pieces(int i) const {
    return pieces_[static_cast<std::size_t>(i)];
  }

  /// True if q lies in the reconstructed contour region.
  bool contains(Vec2 q) const;

  /// Batch membership: out[i] = contains(qs[i]) for every i, with the
  /// per-piece inflated-box pre-reject evaluated branch-free (the four
  /// comparisons folded bitwise instead of short-circuited) so the hot
  /// rasterization loop takes one well-predicted branch per piece. The
  /// per-point decision sequence is identical to contains(), so the
  /// output bytes match the scalar oracle bit for bit.
  void contains_batch(std::span<const Vec2> qs,
                      std::span<unsigned char> out) const;

  /// Boundary chains of the region, excluding portions on the field
  /// border; these are the estimated isolines compared against the ground
  /// truth in the paper's Fig. 12 Hausdorff metric.
  const std::vector<Polyline>& boundaries() const { return boundaries_; }

 private:
  /// Axis-aligned bounding box of one piece, inflated by twice the
  /// containment tolerance: a query point outside the inflated box is
  /// farther than the tolerance from every point of the piece, so the
  /// exact Polygon::contains test is guaranteed to reject it. Lets the
  /// point-in-region hot loop skip the per-edge polygon walk for most
  /// pieces with four comparisons.
  struct PieceBox {
    double x0, y0, x1, y1;
  };

  bool contains_rules(Vec2 q) const;
  bool contains_blended(Vec2 q) const;
  void build_pieces(RegulationMode mode);
  void build_piece_boxes();
  void build_boundaries();

  double isolevel_;
  std::vector<IsolineReport> reports_;
  FieldBounds bounds_;
  RegulationMode mode_;
  VoronoiDiagram voronoi_;
  std::vector<Vec2> unit_dirs_;  ///< Normalized descent directions.
  std::vector<std::vector<Polygon>> pieces_;
  std::vector<std::vector<PieceBox>> piece_boxes_;  ///< Parallel to pieces_.
  std::vector<Polyline> boundaries_;
};

/// A full multi-level contour map (Section 3.4): level regions stacked
/// recursively from the lowest isolevel up, each clipped to its
/// predecessors.
class ContourMap {
 public:
  /// Levels reused from a cache (the continuous engine's clean
  /// isolevels) are referenced, not copied. A LevelRegion is immutable
  /// after construction, so sharing is safe.
  ContourMap(FieldBounds bounds,
             std::vector<std::shared_ptr<const LevelRegion>> regions);

  const FieldBounds& bounds() const { return bounds_; }
  int level_count() const { return static_cast<int>(regions_.size()); }
  const LevelRegion& region(int k) const {
    return *regions_[static_cast<std::size_t>(k)];
  }

  /// Level k's region as shared with the map's other holders. A clean
  /// level of the continuous engine hands every round's map the same
  /// pointer, so pointer identity tells an unchanged level apart.
  const std::shared_ptr<const LevelRegion>& shared_region(int k) const {
    return regions_[static_cast<std::size_t>(k)];
  }

  /// Number of nested regions containing q: 0 means q is below the first
  /// isolevel, level_count() means q is inside the highest region. The
  /// recursive restriction rule of Section 3.4 is applied: a point only
  /// counts as inside level k if it is inside all lower levels too.
  /// Levels with no reports are transparent (no isoline of that level
  /// crossed the field): they count exactly when a higher, supported
  /// level contains q.
  int level_index(Vec2 q) const;

  /// Batch variant: out[i] = level_index(qs[i]) for every i. Walks the
  /// level stack once per *batch* instead of once per point, narrowing an
  /// active-point list as lower levels reject points, and resolves each
  /// level's memberships through LevelRegion::contains_batch. Replicates
  /// level_index's early-break and transparent-empty-level bookkeeping
  /// per point exactly, so every output equals the scalar call's.
  void level_index_batch(std::span<const Vec2> qs, std::span<int> out) const;

  /// Estimated isolines of level k (empty when the level had no reports).
  const std::vector<Polyline>& isolines(int k) const {
    return regions_[static_cast<std::size_t>(k)]->boundaries();
  }

 private:
  FieldBounds bounds_;
  std::vector<std::shared_ptr<const LevelRegion>> regions_;
};

/// Index of the entry of `isolevels` (ascending, consecutive entries
/// isolevels_separated) that `level` matches within kIsolevelTolerance;
/// -1 when none does, as for a NaN level. The one rule by which the sink
/// assigns a report to an isolevel.
int isolevel_index(std::span<const double> isolevels, double level);

/// Refill `groups` with one vector per entry of `isolevels`, holding the
/// reports that isolevel_index assigns to it, in report order. Reports
/// that match no level are dropped. The group vectors are cleared, not
/// freed, so a caller that keeps `groups` reuses their capacity.
void group_by_level(std::span<const IsolineReport> reports,
                    std::span<const double> isolevels,
                    std::vector<std::vector<IsolineReport>>& groups);

/// Builds ContourMaps from sink-side report sets.
class ContourMapBuilder {
 public:
  explicit ContourMapBuilder(FieldBounds bounds,
                             RegulationMode mode = RegulationMode::kRules);

  /// Group `reports` with group_by_level (one LevelRegion per entry of
  /// `isolevels`) and construct the stacked map, building the levels
  /// across the exec pool. Each group is moved into its region, so sink
  /// memory is O(delivered reports) plus the regions. Throws
  /// std::invalid_argument unless every pair of consecutive isolevels is
  /// isolevels_separated (ascending, no report can match two levels).
  ContourMap build(const std::vector<IsolineReport>& reports,
                   const std::vector<double>& isolevels) const;

 private:
  FieldBounds bounds_;
  RegulationMode mode_;
};

}  // namespace isomap
