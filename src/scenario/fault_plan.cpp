#include "scenario/fault_plan.hpp"

#include <stdexcept>

#include "net/wire.hpp"

namespace nopfs::scenario {

double FaultPlan::straggler_factor(int rank) const {
  double factor = 1.0;
  for (const auto& s : stragglers) {
    if (s.rank == rank) factor *= s.factor;
  }
  return factor;
}

bool FaultPlan::connection_down(int rank, double virtual_s) const {
  for (const auto& d : drops) {
    if (d.rank == rank && virtual_s >= d.start_s && virtual_s < d.end_s) {
      return true;
    }
  }
  return false;
}

double FaultPlan::pfs_derate(double virtual_s) const {
  double derate = 1.0;
  for (const auto& b : pfs_bursts) {
    if (virtual_s >= b.start_s && virtual_s < b.end_s && b.derate > derate) {
      derate = b.derate;
    }
  }
  return derate;
}

std::vector<std::string> validate_fault_plan(const FaultPlan& plan,
                                             int world_size) {
  std::vector<std::string> problems;
  auto bad = [&problems](std::string what) { problems.push_back(std::move(what)); };
  for (const auto& s : plan.stragglers) {
    if (s.rank < 0 || s.rank >= world_size) bad("straggler rank out of world");
    if (!(s.factor >= 1.0)) bad("straggler factor must be >= 1");
  }
  for (const auto& d : plan.drops) {
    if (d.rank < 0 || d.rank >= world_size) bad("drop rank out of world");
    if (!(d.start_s >= 0.0) || !(d.end_s > d.start_s)) bad("drop window empty");
  }
  for (const auto& b : plan.pfs_bursts) {
    if (!(b.start_s >= 0.0) || !(b.end_s > b.start_s)) bad("pfs burst window empty");
    if (!(b.derate >= 1.0)) bad("pfs burst derate must be >= 1");
  }
  for (const auto& m : plan.membership) {
    if (m.rank < 0) bad("membership rank negative");
    if (!(m.join_s >= 0.0)) bad("membership join time negative");
    if (m.leave_s >= 0.0 && m.leave_s < m.join_s) bad("membership leaves before joining");
  }
  return problems;
}

std::vector<std::uint8_t> encode_fault_plan(const FaultPlan& plan) {
  using namespace net::wire;
  std::vector<std::uint8_t> out;
  put_u32(out, static_cast<std::uint32_t>(plan.stragglers.size()));
  for (const auto& s : plan.stragglers) {
    put_i32(out, s.rank);
    put_f64(out, s.factor);
  }
  put_u32(out, static_cast<std::uint32_t>(plan.drops.size()));
  for (const auto& d : plan.drops) {
    put_i32(out, d.rank);
    put_f64(out, d.start_s);
    put_f64(out, d.end_s);
  }
  put_u32(out, static_cast<std::uint32_t>(plan.pfs_bursts.size()));
  for (const auto& b : plan.pfs_bursts) {
    put_f64(out, b.start_s);
    put_f64(out, b.end_s);
    put_f64(out, b.derate);
  }
  put_u32(out, static_cast<std::uint32_t>(plan.membership.size()));
  for (const auto& m : plan.membership) {
    put_i32(out, m.rank);
    put_f64(out, m.join_s);
    put_f64(out, m.leave_s);
  }
  return out;
}

FaultPlan decode_fault_plan(const std::vector<std::uint8_t>& bytes) {
  net::wire::Reader r(bytes);
  FaultPlan plan;
  const std::uint32_t num_stragglers = r.count(4 + 8);  // i32 rank, f64 factor
  plan.stragglers.reserve(num_stragglers);
  for (std::uint32_t i = 0; i < num_stragglers; ++i) {
    FaultPlan::Straggler s;
    s.rank = r.i32();
    s.factor = r.f64();
    plan.stragglers.push_back(s);
  }
  const std::uint32_t num_drops = r.count(4 + 2 * 8);  // i32 rank, f64 window
  plan.drops.reserve(num_drops);
  for (std::uint32_t i = 0; i < num_drops; ++i) {
    FaultPlan::Drop d;
    d.rank = r.i32();
    d.start_s = r.f64();
    d.end_s = r.f64();
    plan.drops.push_back(d);
  }
  const std::uint32_t num_bursts = r.count(3 * 8);  // f64 window, f64 derate
  plan.pfs_bursts.reserve(num_bursts);
  for (std::uint32_t i = 0; i < num_bursts; ++i) {
    FaultPlan::PfsBurst b;
    b.start_s = r.f64();
    b.end_s = r.f64();
    b.derate = r.f64();
    plan.pfs_bursts.push_back(b);
  }
  const std::uint32_t num_membership = r.count(4 + 2 * 8);  // i32 rank, f64 join/leave
  plan.membership.reserve(num_membership);
  for (std::uint32_t i = 0; i < num_membership; ++i) {
    FaultPlan::Membership m;
    m.rank = r.i32();
    m.join_s = r.f64();
    m.leave_s = r.f64();
    plan.membership.push_back(m);
  }
  if (r.remaining() != 0) {
    throw std::runtime_error("fault plan: trailing bytes");
  }
  return plan;
}

}  // namespace nopfs::scenario
