// The repository benchmark harness. One process runs one workload:
//
//   isobench --workload <serve_hot|serve_drift> --seed <n>
//            --seconds <s> --trace <0|1> [--spans-out <path>]
//
// With --trace 0 it measures the workload untraced and prints the
// end-to-end metrics. With --trace 1 it runs the same untraced pass, then
// a traced pass that records spans around every call into the library,
// then the layer probes, and prints the per-layer metrics (including the
// tracing overhead, traced minus untraced). Every metric is printed as
// "name value unit"; the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}. See README.md.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"

namespace {

using isobench::Options;

[[noreturn]] void usage(const char* why) {
  std::cerr << "isobench: " << why
            << "\nusage: isobench --workload <serve_hot|serve_drift> "
               "--seed <n> --seconds <s> --trace <0|1> [--spans-out <path>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(o.seconds > 0.0))
        usage("--seconds takes a positive number");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--spans-out") {
      o.spans_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  isobench::SpanRecorder spans(options.trace);
  isobench::Outcome outcome;
  try {
    if (options.workload == "serve_hot")
      isobench::run_serve(options, spans, outcome, /*drift=*/false);
    else if (options.workload == "serve_drift")
      isobench::run_serve(options, spans, outcome, /*drift=*/true);
    else
      usage(("unknown workload " + options.workload).c_str());
  } catch (const std::exception& e) {
    std::cerr << "isobench: " << options.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  if (options.trace) {
    isobench::emit_span_self_times(outcome, spans);
    if (!options.spans_out.empty() && !spans.write_jsonl(options.spans_out)) {
      std::cerr << "isobench: cannot write spans to " << options.spans_out
                << "\n";
      return 1;
    }
  }
  for (const isobench::Metric& m : outcome.metrics())
    if (!std::isfinite(m.value)) {
      std::cerr << "isobench: metric " << m.name << " is not finite\n";
      return 1;
    }

  char buf[64];
  const auto number = [&buf](double v) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  };
  for (const isobench::Metric& m : outcome.metrics())
    std::cout << m.name << " " << number(m.value) << " " << m.unit << "\n";
  const long long attempted = outcome.attempted();
  const long long failed = outcome.failed();
  std::cout << "error_rate "
            << number(attempted > 0 ? static_cast<double>(failed) /
                                          static_cast<double>(attempted)
                                    : 1.0)
            << " ratio (" << failed << " failed checks / " << attempted
            << " operations)\n";

  std::cout << "{\"correct\":"
            << (failed == 0 && attempted > 0 ? "true" : "false")
            << ",\"attempted\":" << std::max(attempted, 1LL)
            << ",\"failed\":" << failed << ",\"metrics\":{";
  bool first = true;
  for (const isobench::Metric& m : outcome.metrics()) {
    std::cout << (first ? "" : ",") << "\"" << m.name
              << "\":{\"value\":" << number(m.value) << ",\"unit\":\""
              << m.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}
