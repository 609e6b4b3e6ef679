// e2ebench: the outside-in benchmark binary.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            [--size full|tiny] [--work-dir DIR]
//
// Prints a human-readable report, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "nn/kernels.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--size full|tiny] [--work-dir DIR]\n",
               problem.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options o;
  bool haveWorkload = false, haveSeed = false, haveSeconds = false,
       haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
        haveWorkload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
        haveSeed = true;
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
        haveSeconds = o.seconds > 0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
        haveTrace = true;
      } else if (flag == "--size") {
        if (value != "full" && value != "tiny") usage("--size: full or tiny");
        o.size = value == "tiny" ? e2e::Size::kTiny : e2e::Size::kFull;
      } else if (flag == "--work-dir") {
        o.workDir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (o.workDir.empty()) o.workDir = "e2ebench-work";

  e2e::RunResult r;
  try {
    std::filesystem::create_directories(o.workDir);
    r = e2e::runWorkload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }

  std::printf("workload %s seed %llu trace %d kernel %s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.trace ? 1 : 0, ancstr::nn::activeKernelName());
  std::fputs(r.report.c_str(), stdout);
  std::printf("%-32s %16s %-6s %8s\n", "metric", "value", "unit", "samples");
  std::string json = "{\"correct\": ";
  bool finite = true;
  std::string metrics;
  for (const e2e::Metric& m : r.metrics) {
    std::printf("%-32s %16.6f %-6s %8llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    finite = finite && std::isfinite(m.value);
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
               m.unit + "\"}";
  }
  json += (r.correct && finite) ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {" + metrics + "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
