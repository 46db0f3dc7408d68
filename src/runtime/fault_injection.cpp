#include "runtime/fault_injection.hpp"

namespace nopfs::runtime {

RebalanceReport rebalance_after_leave(core::FillSchedule& schedule, int dead_rank) {
  const auto [remapped, pfs_only] = schedule.drop_rank(dead_rank);
  return RebalanceReport{remapped, pfs_only};
}

}  // namespace nopfs::runtime
