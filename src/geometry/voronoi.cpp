#include "geometry/voronoi.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "geometry/segment.hpp"

namespace isomap {

std::vector<int> VoronoiCell::neighbours() const {
  std::vector<int> out;
  for (int t : edge_tags)
    if (t >= 0) out.push_back(t);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool VoronoiCell::contains(Vec2 q, double eps) const {
  return Polygon(vertices).contains(q, eps);
}

namespace {

struct TaggedLoop {
  std::vector<Vec2> vertices;
  std::vector<int> tags;  // tags[i] tags edge vertices[i] -> vertices[i+1].
};

/// Clip a convex tagged loop by a closed half-plane into `out` (cleared
/// first; its capacity is reused); the newly created edge (lying on the
/// clip line) gets `new_tag`. Consecutive (near-)duplicate vertices are
/// merged as they are emitted, merging their edges: the surviving vertex
/// keeps the tag of the *second* edge when the first degenerated to zero
/// length. A loop left with fewer than three vertices comes back empty.
void clip_tagged(const TaggedLoop& in, const HalfPlane& hp, int new_tag,
                 TaggedLoop& out) {
  out.vertices.clear();
  out.tags.clear();
  const std::size_t n = in.vertices.size();
  if (n < 3) return;
  out.vertices.reserve(n + 2);
  out.tags.reserve(n + 2);
  const auto emit = [&out](Vec2 v, int tag) {
    if (!out.vertices.empty() && out.vertices.back().distance_to(v) <= 1e-9) {
      out.tags.back() = tag;
      return;
    }
    out.vertices.push_back(v);
    out.tags.push_back(tag);
  };
  constexpr double kEps = 1e-12;
  for (std::size_t i = 0; i < n; ++i) {
    const Vec2 cur = in.vertices[i];
    const Vec2 nxt = in.vertices[(i + 1) % n];
    const int tag = in.tags[i];
    const double dc = hp.signed_excess(cur);
    const double dn = hp.signed_excess(nxt);
    const bool cur_in = dc <= kEps;
    const bool nxt_in = dn <= kEps;
    if (cur_in && nxt_in) {
      emit(cur, tag);
    } else if (cur_in && !nxt_in) {
      emit(cur, tag);
      const double t = dc / (dc - dn);
      emit(cur + (nxt - cur) * t, new_tag);
    } else if (!cur_in && nxt_in) {
      const double t = dc / (dc - dn);
      emit(cur + (nxt - cur) * t, tag);
    }
  }
  while (out.vertices.size() > 1 &&
         out.vertices.front().distance_to(out.vertices.back()) <= 1e-9) {
    out.vertices.pop_back();
    out.tags.pop_back();
  }
  if (out.vertices.size() < 3) {
    out.vertices.clear();
    out.tags.clear();
  }
}

TaggedLoop box_loop(double x0, double y0, double x1, double y1) {
  TaggedLoop loop;
  loop.vertices = {{x0, y0}, {x1, y0}, {x1, y1}, {x0, y1}};
  loop.tags = {kBoundaryTag, kBoundaryTag, kBoundaryTag, kBoundaryTag};
  return loop;
}

double farthest_vertex2(const TaggedLoop& loop, Vec2 si) {
  double far2 = 0.0;
  for (Vec2 v : loop.vertices) far2 = std::max(far2, (v - si).norm2());
  return far2;
}

/// Feed candidate j (arriving nearest-first) into cell i's clip loop,
/// clipping into `scratch` and swapping it in, so a cell's clips reuse
/// two buffers instead of allocating per candidate. Returns true when the
/// cell's enumeration is finished: a duplicate site ceded the cell, the
/// remaining bisectors were pruned, or the loop degenerated. Shared
/// verbatim by VoronoiDiagram and voronoi_cell so they stay
/// bitwise-identical.
bool feed_candidate(const std::vector<Vec2>& sites, std::size_t i, int j,
                    TaggedLoop& loop, TaggedLoop& scratch, bool& duplicate) {
  if (static_cast<std::size_t>(j) == i) return false;
  const Vec2 si = sites[i];
  const double dij = sites[static_cast<std::size_t>(j)].distance_to(si);
  if (dij <= 1e-12) {
    // Exact duplicate site: the later-indexed one cedes the cell.
    if (static_cast<std::size_t>(j) < i) {
      duplicate = true;
      return true;
    }
    return false;
  }
  // Prune once the remaining bisectors cannot reach the cell: if
  // |s_j - s_i| / 2 exceeds the farthest cell vertex from s_i, the
  // bisector of (i, j) — and every farther one — lies outside the cell.
  if (dij * dij * 0.25 > farthest_vertex2(loop, si)) return true;
  const HalfPlane hp =
      HalfPlane::closer_to(si, sites[static_cast<std::size_t>(j)]);
  clip_tagged(loop, hp, j, scratch);
  std::swap(loop, scratch);
  return loop.vertices.size() < 3;
}

/// The finished cell: the clipped loop, or empty when a duplicate site
/// ceded it.
VoronoiCell finish_cell(std::size_t i, TaggedLoop& loop, bool duplicate) {
  VoronoiCell cell;
  cell.site = static_cast<int>(i);
  if (!duplicate) {
    cell.vertices = std::move(loop.vertices);
    cell.edge_tags = std::move(loop.tags);
  }
  return cell;
}

}  // namespace

VoronoiCell voronoi_cell(const std::vector<Vec2>& sites, std::size_t i,
                         std::span<const int> nearest_first, double x0,
                         double y0, double x1, double y1) {
  TaggedLoop loop = box_loop(x0, y0, x1, y1);
  TaggedLoop scratch;
  bool duplicate = false;
  for (int j : nearest_first)
    if (feed_candidate(sites, i, j, loop, scratch, duplicate)) break;
  return finish_cell(i, loop, duplicate);
}

VoronoiDiagram::VoronoiDiagram(std::vector<Vec2> sites, double x0, double y0,
                               double x1, double y1)
    : sites_(std::move(sites)), index_(sites_) {
  if (x1 <= x0 || y1 <= y0)
    throw std::invalid_argument("VoronoiDiagram: empty bounding box");
  // Ring-expanding enumeration over the spatial index: candidates arrive
  // in annulus batches of doubling radius, each batch sorted nearest-
  // first, until the pruning cut-off fires. Per cell this touches only
  // the local neighbourhood instead of sorting all n sites.
  const std::size_t n = sites_.size();
  cells_.reserve(n);
  const double diag = std::hypot(x1 - x0, y1 - y0);
  std::vector<int> batch;
  TaggedLoop scratch;  // Clip target, reused across every cell.
  for (std::size_t i = 0; i < n; ++i) {
    const Vec2 si = sites_[i];
    TaggedLoop loop = box_loop(x0, y0, x1, y1);
    bool duplicate = false;
    bool done = false;
    double r_lo = -1.0;  // First batch includes distance-0 duplicates.
    double r = std::max(index_.cell_size(), 1e-9);
    while (!done) {
      batch.clear();
      index_.append_annulus(si, r_lo, r, batch);
      std::sort(batch.begin(), batch.end(), [&](int a, int b) {
        const double da = (sites_[static_cast<std::size_t>(a)] - si).norm2();
        const double db = (sites_[static_cast<std::size_t>(b)] - si).norm2();
        return da < db || (da == db && a < b);
      });
      for (int j : batch) {
        if (feed_candidate(sites_, i, j, loop, scratch, duplicate)) {
          done = true;
          break;
        }
      }
      if (done || r >= diag) break;
      // Unseen sites are all farther than r; if even they are pruned,
      // the cell is final without enumerating them.
      if (r * r * 0.25 > farthest_vertex2(loop, si)) break;
      r_lo = r;
      r *= 2.0;
    }
    cells_.push_back(finish_cell(i, loop, duplicate));
  }
}

bool VoronoiDiagram::adjacent(int i, int j) const {
  if (i < 0 || j < 0 || static_cast<std::size_t>(i) >= cells_.size() ||
      static_cast<std::size_t>(j) >= cells_.size())
    return false;
  for (int t : cells_[i].edge_tags)
    if (t == j) return true;
  return false;
}

}  // namespace isomap
