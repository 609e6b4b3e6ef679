// The four workloads of the outside-in benchmark (see README.md for what
// each one stresses and why it was chosen).
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "generator.h"

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
  /// Scratch space for the disk tier, the run ledger and the span dump.
  std::filesystem::path workDir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Printed ahead of the metrics (per-layer table, notes).
  std::string report;
};

/// Runs one workload; throws on an unknown name.
RunResult runWorkload(const Options& options);

}  // namespace e2e
