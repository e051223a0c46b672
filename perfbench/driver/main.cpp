// zh_perfbench — runs one benchmark workload and prints its result line.
//
//   zh_perfbench --workload scan|sweep|serve --seed N --seconds S
//                [--trace 0|1] [--trace-out FILE]
//
// With --trace 0 the run measures the end-to-end metrics with no spans and
// no allocation counting. With --trace 1 it runs untraced and traced
// repetitions and reports the per-layer metrics, prints per-layer self time
// as `#` lines and writes the spans to --trace-out as Chrome trace JSON.
// The last line of stdout is one JSON object: correct, attempted, failed
// and metrics (name → value + unit).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

void print_usage() {
  std::fprintf(stderr,
               "usage: zh_perfbench --workload scan|sweep|serve --seed N "
               "--seconds S [--trace 0|1] [--trace-out FILE]\n");
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') return false;
  out = value;
  return true;
}

/// JSON string escape for metric names and units (ASCII by construction).
std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_result(const perfbench::Report& report) {
  std::string line = "{\"correct\": ";
  line += report.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report.attempted);
  line += ", \"failed\": " + std::to_string(report.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const perfbench::Metric& metric : report.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.9g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    line += first ? "" : ", ";
    line += quoted(metric.name) + ": {\"value\": " + value +
            ", \"unit\": " + quoted(metric.unit) + "}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions options;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    std::uint64_t number = 0;
    if (value == nullptr) {
      print_usage();
      return 2;
    }
    ++i;
    if (std::strcmp(flag, "--workload") == 0) {
      workload = value;
    } else if (std::strcmp(flag, "--seed") == 0 && parse_u64(value, number)) {
      options.seed = number;
      have_seed = true;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      char* end = nullptr;
      options.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && options.seconds > 0.0 &&
                     options.seconds <= 600.0;
    } else if (std::strcmp(flag, "--trace") == 0 && parse_u64(value, number) &&
               number <= 1) {
      options.trace = number == 1;
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      options.trace_out = value;
    } else {
      print_usage();
      return 2;
    }
  }
  if (!have_seed || !have_seconds) {
    print_usage();
    return 2;
  }

  perfbench::Report report;
  try {
    if (workload == "scan") {
      report = perfbench::run_scan(options);
    } else if (workload == "sweep") {
      report = perfbench::run_sweep(options);
    } else if (workload == "serve") {
      report = perfbench::run_serve(options);
    } else {
      print_usage();
      return 2;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "zh_perfbench: %s\n", error.what());
    return 1;
  }
  std::fflush(stdout);
  print_result(report);
  return 0;
}
