#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "isomap/contour_map.hpp"
#include "sim/run_capsule.hpp"

namespace isomap::serve {

/// Borrowed view of one boundary chain for response serialization. The
/// pointed-to points must outlive the serialize_response() call.
struct WirePolyline {
  bool closed = false;
  const std::vector<Vec2>* points = nullptr;
};

/// Borrowed view of one isolevel's served geometry.
struct WireLevel {
  double isolevel = 0.0;
  int report_count = 0;
  std::vector<WirePolyline> boundaries;
};

/// The single serialization path for query-response bodies. Every source
/// of contour geometry — a live ContourMap (the service's per-level
/// fragments), the oracle's ContourMapBuilder rebuild, a replayed
/// capsule's stored LevelContours — funnels through this function's
/// writers, so "bitwise-identical responses" reduces to "identical
/// WireLevel inputs": json_number emits the shortest round-trip form,
/// making byte equality equivalent to bit equality of the underlying
/// doubles. The body deliberately excludes
/// the round number and fingerprints — bytes must not depend on *when*
/// a response was built, only on the geometry it describes.
///
/// Format (one line, no whitespace):
///   {"deployment":"<name>","levels":[{"isolevel":N,"reports":N,
///    "boundaries":[{"closed":B,"points":[[x,y],...]},...]},...]}
///
/// serialize_response is the composition of the two writers below: the
/// envelope, each level's object joined by ',', then the closing "]}".
std::string serialize_response(const std::string& deployment,
                               const std::vector<WireLevel>& levels);

/// Append the response prefix: {"deployment":"<name>","levels":[
void write_envelope(std::string& out, const std::string& deployment);

/// Append one level's object: {"isolevel":N,...,"boundaries":[...]}. The
/// bytes depend on the level alone, so a level's object can be written
/// once and reused as a wire fragment by every body that carries it.
void write_level(std::string& out, const WireLevel& level);

/// A response built from pre-written parts: `envelope` (write_envelope
/// output), the level fragments (write_level outputs) joined by ',', then
/// "]}", in a string reserved to its exact length. Equals
/// serialize_response over the same deployment and levels.
std::string assemble_response(
    std::string_view envelope,
    const std::vector<const std::string*>& fragments);

/// WireLevel of one live region: reports = the level's post-filter report
/// count, boundaries = the LevelRegion's estimated isolines.
WireLevel wire_level_of(const LevelRegion& region);

/// WireLevels for the requested level indices (ascending, in range) of a
/// live map, each wire_level_of its region.
std::vector<WireLevel> wire_levels_from_map(const ContourMap& map,
                                            const std::vector<int>& levels);

/// WireLevels for the requested level indices of a capsule's stored
/// per-level contours (capsule::extract_contours output) — the
/// golden-compat path: a capsule replayed by isomap_replay serializes to
/// the same bytes the service serves for the same deployment state.
std::vector<WireLevel> wire_levels_from_contours(
    const std::vector<capsule::LevelContour>& contours,
    const std::vector<int>& levels);

}  // namespace isomap::serve
