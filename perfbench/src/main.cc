// nrs_perfbench: the whole-chain benchmark.
//
//   nrs_perfbench --workload cell_e2e|sniffer_air|fleet_query --seed N
//                 [--seconds S] [--trace 0|1] [--weights PATH]
//                 [--trace-dir DIR]
//
// Prints a human-readable report, then, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics the
// workload measured (untraced) or, with --trace 1, its per-layer metrics.
// BENCHMARK.json is the one list of metric names; run.py checks the result
// against it.  Exits 1 when a correctness gate fails, 2 on bad usage.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "common/alloc_shim.h"
#include "workloads.h"

namespace perfbench {
namespace {

int usage() {
  std::fprintf(stderr,
               "usage: nrs_perfbench --workload cell_e2e|sniffer_air|"
               "fleet_query --seed N [--seconds S] [--trace 0|1]\n"
               "                     [--weights PATH] [--trace-dir DIR]\n");
  return 2;
}

/// JSON number with every digit the double carries.
std::string number(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    out += std::string(out.size() > 1 ? ", " : "") + "\"" + m.name +
           "\": {\"value\": " + number(m.value) + ", \"unit\": \"" + m.unit +
           "\"}";
  }
  return out + "}";
}

int run(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return usage();
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value);
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (arg == "--trace") {
      opt.trace = value == "1";
    } else if (arg == "--weights") {
      opt.weights = value;
    } else if (arg == "--trace-dir") {
      opt.trace_dir = value;
    } else {
      return usage();
    }
  }
  if (!have_seed || opt.seconds <= 0.0) {
    return usage();
  }
  Report report;
  if (opt.workload == "cell_e2e") {
    report = run_cell_e2e(opt);
  } else if (opt.workload == "sniffer_air") {
    report = run_sniffer_air(opt);
  } else if (opt.workload == "fleet_query") {
    report = run_fleet_query(opt);
  } else {
    return usage();
  }

  const std::string metrics =
      metrics_json(opt.trace ? report.per_layer : report.end_to_end);
  if (report.attempted == 0) {
    report.violations.push_back("no operation attempted");
  }
  const bool correct = report.violations.empty();
  std::printf("\ncorrectness gate: %s\n", correct ? "pass" : "FAIL");
  for (const std::string& v : report.violations) {
    std::printf("  violation: %s\n", v.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nrs_perfbench: %s\n", e.what());
    return 1;
  }
}
