#pragma once
// Runtime-side fault-injection hooks (DESIGN.md Sec. 11).
//
// The harness applies a scenario FaultPlan through three seams, one per
// fault class:
//   - stragglers: worker_loop stretches the compute sleep by the rank's
//     straggler factor (src/runtime/harness.cpp);
//   - dropped connections: net::FaultTransport turns remote fetches into
//     misses during scripted windows (src/net/fault_transport.hpp);
//   - slow-PFS bursts: FaultPfs (here) stretches PFS read time during
//     scripted windows.
// All three perturb timing only, never delivery order, so the
// delivered-sample digest stays bit-identical to the fault-free run.
//
// rebalance_after_leave is the elastic-leave half of the membership story:
// an incremental cache-plan rebalance that touches only the departed
// rank's holdings (the gamma side of a leave is already handled by the
// transport's dead-rank release).

#include <chrono>
#include <cstddef>
#include <thread>

#include "core/fetch_router.hpp"
#include "scenario/fault_plan.hpp"
#include "tiers/device_iface.hpp"

namespace nopfs::runtime {

/// PfsDevice decorator applying a plan's slow-PFS bursts: a read issued
/// while a burst window is active takes `derate`x as long.  The underlying
/// device still prices t(gamma) and accounts gamma/peak exactly as before
/// — the burst stretches the caller's wall time after the priced read —
/// so the gamma-envelope pins are unaffected.
class FaultPfs final : public tiers::PfsDevice {
 public:
  /// `inner` must outlive the decorator.  Burst windows are in virtual
  /// seconds; `time_scale` converts the wall clock (which starts at
  /// construction) to virtual time.
  FaultPfs(tiers::PfsDevice& inner, scenario::FaultPlan plan, double time_scale)
      : inner_(inner),
        plan_(std::move(plan)),
        time_scale_(time_scale),
        start_(std::chrono::steady_clock::now()) {}

  void read(int worker, double mb) override {
    const double derate = plan_.pfs_derate(virtual_now());
    const auto t0 = std::chrono::steady_clock::now();
    inner_.read(worker, mb);
    if (derate > 1.0) {
      const std::chrono::duration<double> took =
          std::chrono::steady_clock::now() - t0;
      std::this_thread::sleep_for(took * (derate - 1.0));
    }
  }

  void set_reader_threads(int worker, int threads) override {
    inner_.set_reader_threads(worker, threads);
  }
  [[nodiscard]] int active_clients() const override {
    return inner_.active_clients();
  }
  [[nodiscard]] int peak_clients() const override {
    return inner_.peak_clients();
  }
  [[nodiscard]] double total_read_mb() const override {
    return inner_.total_read_mb();
  }

 private:
  [[nodiscard]] double virtual_now() const {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double>(elapsed).count() * time_scale_;
  }

  tiers::PfsDevice& inner_;
  const scenario::FaultPlan plan_;
  const double time_scale_;
  const std::chrono::steady_clock::time_point start_;
};

/// What an elastic leave did to the cluster cache map.
struct RebalanceReport {
  std::size_t remapped_samples = 0;  ///< still cached by a surviving rank
  std::size_t pfs_only_samples = 0;  ///< now reachable only via the PFS
};

/// Incremental cache-plan rebalance after `dead_rank` leaves: drops only
/// that rank's holdings from the fill schedule (survivor entries are
/// byte-identical, so their prefetch plans need no recomputation) and
/// reports how many samples were remapped to a surviving holder vs.
/// degraded to the PFS fallback.  Delivery completeness holds either way:
/// a fetch that misses every remaining holder falls back to the PFS.
RebalanceReport rebalance_after_leave(core::FillSchedule& schedule, int dead_rank);

}  // namespace nopfs::runtime
