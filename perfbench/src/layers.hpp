#pragma once
// Folding traced jobs into per-layer metrics.
//
// Self time: a span's duration minus the part its child spans (same
// thread, caused by it) cover.  Only spans on rank threads inside each
// rank's timed window count toward the per-sample self times, because the
// rank threads are the path every delivery blocks on; spans on prefetcher
// threads still feed the per-layer counts, bytes and latency percentiles.
//
// A rank thread's timed window runs from the end of run_distributed's
// "clocks set" barrier (the last barrier before the timed iterations,
// which end in two barriers each) to the start of the last allgather (the
// stats aggregation after the final epoch).

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "trace.hpp"

namespace perfbench {

struct LayerTotals {
  int jobs = 0;
  std::map<std::string, std::vector<double>> span_us;  ///< durations by span name
  std::map<std::string, double> span_mb;               ///< Σ mb by span name
  std::uint64_t fetch_misses = 0;
  std::array<double, kNumLayers> self_s{};  ///< rank-thread self time by layer
  double window_s = 0.0;                    ///< Σ rank-thread window time
  std::vector<double> start_ms;             ///< per rank: job start -> "ready" barrier
  TracedTransport::Counters net;            ///< summed; peak_gamma is the max

  [[nodiscard]] std::uint64_t count(const std::string& span) const;
  [[nodiscard]] double busy_ms(const std::string& span) const;
  [[nodiscard]] double mb(const std::string& span) const;
  [[nodiscard]] double p(const std::string& span, double q) const;
};

/// Folds one traced job into `totals`.  `timed_barriers` is the number of
/// barriers the timed iterations call.
void absorb(LayerTotals& totals, const Tracer& tracer,
            const std::vector<TracedTransport::Counters>& transports,
            std::size_t timed_barriers);

/// Adds the per-layer metrics every workload reports (net, tiers, self
/// times).  `items` is the number of delivered samples the self times are
/// divided by and `program_s` the self time, by layer, that no
/// span shows: the core stall the program reports, and the runtime's
/// emulated compute as the benchmark models it.  Both are totals over the
/// traced jobs, like `totals`.
void report_layers(Report& report, const LayerTotals& totals, double items,
                   const std::array<double, kNumLayers>& program_s);

}  // namespace perfbench
