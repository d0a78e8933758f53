// check_bench_regression: gate fresh bench output against committed
// baselines. For every BENCH_*.json in the baseline directory, the
// matching file in the fresh results directory must exist, agree exactly
// on the run parameters (top-level scalar fields such as num_nodes /
// rounds / seed_base), and keep every table column's *median* within the
// tolerance of the baseline median. Timing columns (wall-clock
// measurements: *_ms, *_s, speedup, ...) are skipped by default — CI
// runners make them unstable — so the gate guards the deterministic
// behavioural columns: traffic, counts, accuracy percentages.
//
// Usage: check_bench_regression [--fresh=results]
//                               [--baseline=tests/bench_baselines]
//                               [--tolerance=0.25] [--include-timing]
//
// Exit 0: all medians within tolerance. Exit 1: a regression (or a
// missing / parameter-mismatched fresh file). Exit 2: usage/IO error.

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

using isomap::JsonValue;

namespace {

bool is_timing_column(const std::string& header) {
  // Substring markers anywhere; unit markers only as suffixes so names
  // like "adds" or "rooms" are not misclassified. "rss" marks memory
  // columns, which are as machine-dependent as wall clock.
  for (const std::string needle : {"wall", "time", "speedup", "rss"})
    if (header.find(needle) != std::string::npos) return true;
  for (const std::string suffix : {"_ms", "_us", "_ns", "_s", "ms"})
    if (header.size() >= suffix.size() &&
        header.compare(header.size() - suffix.size(), suffix.size(),
                       suffix) == 0)
      return true;
  return false;
}

std::optional<JsonValue> load_json(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return JsonValue::parse(buf.str());
}

/// Median of a column's numeric cells; nullopt when the column has none.
std::optional<double> column_median(const JsonValue& table,
                                    std::size_t column) {
  const JsonValue* rows = table.find("rows");
  if (rows == nullptr || !rows->is_array()) return std::nullopt;
  isomap::SampleSet values;
  for (const JsonValue& row : rows->items()) {
    if (!row.is_array() || column >= row.size()) continue;
    const JsonValue& cell = row.at(column);
    if (cell.is_number()) values.add(cell.as_number());
  }
  if (values.empty()) return std::nullopt;
  return values.median();
}

struct Gate {
  double tolerance = 0.25;
  bool include_timing = false;
  int failures = 0;
  int compared = 0;
  int skipped = 0;

  void fail(const std::string& what) {
    std::cerr << "REGRESSION: " << what << "\n";
    ++failures;
  }

  void check_table(const std::string& file, const std::string& key,
                   const JsonValue& base_table,
                   const JsonValue& fresh_table) {
    const JsonValue* headers = base_table.find("headers");
    if (headers == nullptr || !headers->is_array()) return;
    for (std::size_t col = 0; col < headers->size(); ++col) {
      const std::string name = headers->at(col).as_string();
      if (!include_timing && is_timing_column(name)) {
        ++skipped;
        continue;
      }
      const auto base = column_median(base_table, col);
      const auto fresh = column_median(fresh_table, col);
      if (!base.has_value()) continue;
      if (!fresh.has_value()) {
        fail(file + " " + key + "." + name + ": column missing from fresh");
        continue;
      }
      ++compared;
      const double allowed = tolerance * std::abs(*base);
      if (std::abs(*fresh - *base) > allowed + 1e-12) {
        // Actionable failure line: the offending column, both medians,
        // and the fresh/baseline ratio against the allowed band — enough
        // to judge severity without re-running the bench locally.
        std::ostringstream os;
        os.precision(10);
        os << file << " " << key << "." << name << ": median " << *fresh
           << " vs baseline " << *base;
        if (*base != 0.0) {
          std::ostringstream ratio;
          ratio.precision(4);
          ratio << std::fixed << (*fresh / *base) << " (allowed "
                << 1.0 - tolerance << ".." << 1.0 + tolerance << ")";
          os << " -> ratio " << ratio.str();
        } else {
          os << " (baseline median is 0: any nonzero fresh median fails)";
        }
        fail(os.str());
      }
    }
  }

  void check_file(const std::string& file, const JsonValue& base,
                  const JsonValue& fresh) {
    for (const auto& [key, value] : base.members()) {
      const JsonValue* fresh_value = fresh.find(key);
      if (value.is_number()) {
        // Run parameters must match exactly or the comparison is
        // apples-to-oranges.
        if (fresh_value == nullptr || !fresh_value->is_number() ||
            fresh_value->as_number() != value.as_number())
          fail(file + " parameter " + key + " differs from baseline (" +
               std::to_string(value.as_number()) + ")");
      } else if (value.is_object() && value.find("headers") != nullptr) {
        if (fresh_value == nullptr || !fresh_value->is_object()) {
          fail(file + " table " + key + " missing from fresh results");
          continue;
        }
        check_table(file, key, value, *fresh_value);
      }
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  const isomap::CliArgs args(argc, argv);
  const std::filesystem::path fresh_dir =
      args.get("fresh").value_or("results");
  const std::filesystem::path base_dir =
      args.get("baseline").value_or("tests/bench_baselines");
  Gate gate;
  gate.tolerance = args.get_double("tolerance", 0.25);
  gate.include_timing = args.has("include-timing");

  if (!std::filesystem::is_directory(base_dir)) {
    std::cerr << "check_bench_regression: no baseline directory "
              << base_dir << "\n";
    return 2;
  }

  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(base_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) != 0 ||
        entry.path().extension() != ".json")
      continue;
    ++files;
    const auto base = load_json(entry.path());
    if (!base || !base->is_object()) {
      std::cerr << "check_bench_regression: unreadable baseline " << name
                << "\n";
      return 2;
    }
    const std::filesystem::path fresh_path = fresh_dir / name;
    const auto fresh = load_json(fresh_path);
    if (!fresh || !fresh->is_object()) {
      gate.fail(name + ": fresh result missing at " + fresh_path.string() +
                " (did the bench run?)");
      continue;
    }
    gate.check_file(name, *base, *fresh);
  }

  if (files == 0) {
    std::cerr << "check_bench_regression: no BENCH_*.json baselines in "
              << base_dir << "\n";
    return 2;
  }
  std::cout << "check_bench_regression: " << files << " file(s), "
            << gate.compared << " column median(s) compared, "
            << gate.skipped << " timing column(s) skipped, "
            << gate.failures << " failure(s)\n";
  return gate.failures == 0 ? 0 : 1;
}
