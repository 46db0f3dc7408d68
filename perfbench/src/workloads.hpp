#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metrics.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its Chrome trace (empty = not written).
  std::string trace_path;
};

/// Names of the workloads run_workload accepts.
[[nodiscard]] std::vector<std::string> workload_names();

/// Runs one workload for about `options.seconds` and returns its report:
/// end-to-end metrics untraced, or per-layer metrics with options.trace.
[[nodiscard]] Report run_workload(const Options& options);

}  // namespace perfbench
