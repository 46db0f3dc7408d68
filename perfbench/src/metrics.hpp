#pragma once
// Result bookkeeping of the end-to-end benchmark: percentile helpers and the
// named-metric map every workload fills and main() prints.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank-with-interpolation percentile (q in [0, 1]) of `values`;
/// 0 for an empty set.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

inline double median(const std::vector<double>& values) {
  return percentile(values, 0.5);
}

inline double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

struct MetricValue {
  double value = 0.0;
  std::string unit;
};

/// Metrics by name, printed in name order.
using Metrics = std::map<std::string, MetricValue>;

/// What one benchmark invocation reports: the operation counts of the
/// result line, the metrics, and human-readable notes (environment,
/// reconciliation, per-job lines) printed before the result line.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  Metrics metrics;
  /// Event-loop backend the program reports it ran on ("none" without one).
  std::string reactor_backend = "none";
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = MetricValue{value, unit};
  }
  /// Records a failed correctness check: the run is incorrect and the
  /// message is kept for the notes.
  void fail(const std::string& what) {
    correct = false;
    notes.push_back("CHECK FAILED: " + what);
  }
};

}  // namespace perfbench
