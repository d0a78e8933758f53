#include "serve/wire.hpp"

#include "util/json.hpp"

namespace isomap::serve {
namespace {

/// The bytes that close a response after its last level.
constexpr std::string_view kResponseTail = "]}";

}  // namespace

void write_envelope(std::string& out, const std::string& deployment) {
  out += "{\"deployment\":";
  json_escape(out, deployment);
  out += ",\"levels\":[";
}

void write_level(std::string& out, const WireLevel& level) {
  out += "{\"isolevel\":";
  append_json_number(out, level.isolevel);
  out += ",\"reports\":";
  out += std::to_string(level.report_count);
  out += ",\"boundaries\":[";
  bool first_chain = true;
  for (const WirePolyline& chain : level.boundaries) {
    if (!first_chain) out += ',';
    first_chain = false;
    out += "{\"closed\":";
    out += chain.closed ? "true" : "false";
    out += ",\"points\":[";
    bool first_point = true;
    for (const Vec2& p : *chain.points) {
      if (!first_point) out += ',';
      first_point = false;
      out += '[';
      append_json_number(out, p.x);
      out += ',';
      append_json_number(out, p.y);
      out += ']';
    }
    out += "]}";
  }
  out += "]}";
}

std::string serialize_response(const std::string& deployment,
                               const std::vector<WireLevel>& levels) {
  std::string out;
  out.reserve(256);
  write_envelope(out, deployment);
  bool first_level = true;
  for (const WireLevel& level : levels) {
    if (!first_level) out += ',';
    first_level = false;
    write_level(out, level);
  }
  out += kResponseTail;
  return out;
}

std::string assemble_response(
    std::string_view envelope,
    const std::vector<const std::string*>& fragments) {
  std::size_t size = envelope.size() + kResponseTail.size();
  for (const std::string* f : fragments) size += f->size();
  if (!fragments.empty()) size += fragments.size() - 1;
  std::string out;
  out.reserve(size);
  out += envelope;
  for (std::size_t i = 0; i < fragments.size(); ++i) {
    if (i > 0) out += ',';
    out += *fragments[i];
  }
  out += kResponseTail;
  return out;
}

WireLevel wire_level_of(const LevelRegion& region) {
  WireLevel w;
  w.isolevel = region.isolevel();
  w.report_count = static_cast<int>(region.reports().size());
  w.boundaries.reserve(region.boundaries().size());
  for (const Polyline& chain : region.boundaries())
    w.boundaries.push_back({chain.closed(), &chain.points()});
  return w;
}

std::vector<WireLevel> wire_levels_from_map(const ContourMap& map,
                                            const std::vector<int>& levels) {
  std::vector<WireLevel> out;
  out.reserve(levels.size());
  for (const int k : levels) out.push_back(wire_level_of(map.region(k)));
  return out;
}

std::vector<WireLevel> wire_levels_from_contours(
    const std::vector<capsule::LevelContour>& contours,
    const std::vector<int>& levels) {
  std::vector<WireLevel> out;
  out.reserve(levels.size());
  for (const int k : levels) {
    const capsule::LevelContour& lc = contours[static_cast<std::size_t>(k)];
    WireLevel w;
    w.isolevel = lc.isolevel;
    w.report_count = lc.report_count;
    w.boundaries.reserve(lc.boundaries.size());
    for (const capsule::ContourPolyline& chain : lc.boundaries)
      w.boundaries.push_back({chain.closed, &chain.points});
    out.push_back(std::move(w));
  }
  return out;
}

}  // namespace isomap::serve
