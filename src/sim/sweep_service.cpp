#include "sim/sweep_service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "net/transport.hpp"
#include "net/wire.hpp"
#include "sim/policies.hpp"

namespace nopfs::sim {

namespace {

namespace wire = net::wire;

/// Checkpoint file leader: "NPSW" + format version.
constexpr std::uint32_t kCheckpointMagic = 0x4E505357u;
constexpr std::uint32_t kCheckpointVersion = 1;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
}

void fnv_u64(std::uint64_t& h, std::uint64_t v) { fnv_bytes(h, &v, 8); }

void fnv_f64(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  fnv_u64(h, bits);
}

void fnv_string(std::uint64_t& h, const std::string& s) {
  fnv_u64(h, s.size());
  fnv_bytes(h, s.data(), s.size());
}

}  // namespace

std::uint64_t sweep_grid_signature(const std::vector<SweepPoint>& points) {
  std::uint64_t h = kFnvOffset;
  fnv_u64(h, points.size());
  for (const SweepPoint& point : points) {
    fnv_string(h, point.policy);
    if (point.dataset != nullptr) {
      fnv_string(h, point.dataset->name());
      fnv_u64(h, point.dataset->num_samples());
      fnv_f64(h, point.dataset->total_mb());
    } else {
      fnv_u64(h, 0);
    }
    fnv_u64(h, point.config.seed);
    fnv_u64(h, static_cast<std::uint64_t>(point.config.num_epochs));
    fnv_u64(h, point.config.per_worker_batch);
    fnv_u64(h, static_cast<std::uint64_t>(point.config.system.num_workers));
    fnv_u64(h, point.config.drop_last ? 1 : 0);
    fnv_f64(h, point.config.allreduce_s);
    fnv_u64(h, point.config.uniform_compute ? 1 : 0);
  }
  return h;
}

std::uint64_t sweep_results_digest(const std::vector<SimResult>& results) {
  std::uint64_t h = kFnvOffset;
  fnv_u64(h, results.size());
  for (const SimResult& result : results) {
    const std::vector<std::uint8_t> encoded = wire::encode_sim_result(result);
    fnv_u64(h, encoded.size());
    fnv_bytes(h, encoded.data(), encoded.size());
  }
  return h;
}

// ---------------------------------------------------------------------------
// SweepScheduler

SweepScheduler::SweepScheduler(std::uint64_t total_cells,
                               std::uint64_t grid_signature,
                               SweepServiceOptions options, int workers)
    : total_(total_cells),
      signature_(grid_signature),
      options_(std::move(options)),
      workers_(std::max(workers, 1)),
      results_(total_cells),
      completed_(total_cells, 0),
      last_pull_seq_(static_cast<std::size_t>(workers_), 0),
      last_result_seq_(static_cast<std::size_t>(workers_), 0) {}

std::uint64_t SweepScheduler::load_checkpoint() {
  if (options_.checkpoint_path.empty()) return 0;
  std::ifstream in(options_.checkpoint_path, std::ios::binary);
  if (!in) return 0;  // no checkpoint yet: fresh start
  const std::vector<std::uint8_t> raw(std::istreambuf_iterator<char>(in), {});
  wire::Reader reader(raw);
  if (reader.u32() != kCheckpointMagic) {
    throw std::runtime_error("sweep checkpoint: bad magic in " +
                             options_.checkpoint_path);
  }
  if (reader.u32() != kCheckpointVersion) {
    throw std::runtime_error("sweep checkpoint: unsupported version in " +
                             options_.checkpoint_path);
  }
  const std::uint64_t signature = reader.u64();
  const std::uint64_t total = reader.u64();
  if (signature != signature_ || total != total_) {
    throw std::runtime_error(
        "sweep checkpoint: " + options_.checkpoint_path +
        " belongs to a different grid (signature/cell-count mismatch)");
  }
  const std::uint64_t count = reader.u64();
  const std::scoped_lock lock(mutex_);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t idx = reader.u64();
    if (idx >= total_) {
      throw std::runtime_error("sweep checkpoint: cell index out of range");
    }
    SimResult result = wire::read_sim_result(reader);
    if (completed_[idx] != 0) continue;  // defensive: duplicate record
    results_[idx] = std::move(result);
    completed_[idx] = 1;
    ++completed_count_;
  }
  if (reader.remaining() != 0) {
    throw std::runtime_error("sweep checkpoint: trailing bytes");
  }
  restored_ = completed_count_;
  last_checkpoint_at_ = completed_count_;
  return restored_;
}

bool SweepScheduler::interrupted_locked() const {
  return options_.interrupt_after_cells > 0 &&
         completed_count_ >= restored_ + options_.interrupt_after_cells;
}

SweepScheduler::Range SweepScheduler::grant() {
  const std::scoped_lock lock(mutex_);
  if (interrupted_locked() || completed_count_ == total_) return {};
  while (cursor_ < total_ && completed_[cursor_] != 0) ++cursor_;
  if (cursor_ < total_) {
    // Contiguous run of never-granted, not-completed cells at the cursor
    // (restored cells break runs and are never granted again).
    std::uint64_t run = 0;
    while (cursor_ + run < total_ && completed_[cursor_ + run] == 0) ++run;
    std::uint64_t pending = 0;  // not-completed cells still ungranted
    for (std::uint64_t i = cursor_; i < total_; ++i) {
      if (completed_[i] == 0) ++pending;
    }
    const std::uint64_t size = std::min<std::uint64_t>(
        sweep_grant_size(static_cast<std::size_t>(pending), workers_,
                         options_.min_grant),
        run);
    const Range range{cursor_, static_cast<std::uint32_t>(size)};
    cursor_ += size;
    outstanding_.push_back(range);
    return range;
  }
  // Tail: every cell is granted but some are outstanding.  Re-grant the
  // oldest outstanding range and rotate it to the back, so successive
  // pulls speculate on DIFFERENT straggler ranges.  Results are pure
  // functions of the cell, so the duplicate fold is idempotent — and the
  // grid drains even if the rank holding a range died.
  if (!outstanding_.empty()) {
    const Range range = outstanding_.front();
    outstanding_.erase(outstanding_.begin());
    outstanding_.push_back(range);
    return range;
  }
  return {};
}

void SweepScheduler::submit(std::uint64_t first,
                            std::vector<SimResult> results) {
  const std::scoped_lock lock(mutex_);
  if (first + results.size() > total_) {
    throw std::runtime_error("sweep service: result range out of bounds");
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::uint64_t idx = first + i;
    if (completed_[idx] != 0) {
      ++duplicates_;  // tail re-grant or duplicated frame: first write won
      continue;
    }
    results_[idx] = std::move(results[i]);
    completed_[idx] = 1;
    ++completed_count_;
  }
  // Drop outstanding ranges whose every cell completed.
  std::erase_if(outstanding_, [&](const Range& range) {
    for (std::uint64_t i = range.first; i < range.first + range.count; ++i) {
      if (completed_[i] == 0) return false;
    }
    return true;
  });
  if (!options_.checkpoint_path.empty() &&
      (completed_count_ - last_checkpoint_at_ >=
           std::max<std::uint64_t>(options_.checkpoint_every_cells, 1) ||
       completed_count_ == total_ || interrupted_locked())) {
    checkpoint_locked();
  }
}

bool SweepScheduler::advance_pull_seq(int from, std::uint32_t seq) {
  const std::scoped_lock lock(mutex_);
  if (from < 0 || from >= workers_) return false;
  std::uint32_t& last = last_pull_seq_[static_cast<std::size_t>(from)];
  if (seq <= last) return false;
  last = seq;
  return true;
}

bool SweepScheduler::advance_result_seq(int from, std::uint32_t seq) {
  const std::scoped_lock lock(mutex_);
  if (from < 0 || from >= workers_) return false;
  std::uint32_t& last = last_result_seq_[static_cast<std::size_t>(from)];
  if (seq <= last) return false;
  last = seq;
  return true;
}

bool SweepScheduler::done() const {
  const std::scoped_lock lock(mutex_);
  return completed_count_ == total_;
}

bool SweepScheduler::interrupted() const {
  const std::scoped_lock lock(mutex_);
  return interrupted_locked();
}

std::uint64_t SweepScheduler::completed_cells() const {
  const std::scoped_lock lock(mutex_);
  return completed_count_;
}

std::uint64_t SweepScheduler::duplicate_cells() const {
  const std::scoped_lock lock(mutex_);
  return duplicates_;
}

void SweepScheduler::checkpoint_now() {
  const std::scoped_lock lock(mutex_);
  if (options_.checkpoint_path.empty()) return;
  checkpoint_locked();
}

void SweepScheduler::checkpoint_locked() {
  std::vector<std::uint8_t> out;
  wire::put_u32(out, kCheckpointMagic);
  wire::put_u32(out, kCheckpointVersion);
  wire::put_u64(out, signature_);
  wire::put_u64(out, total_);
  wire::put_u64(out, completed_count_);
  for (std::uint64_t idx = 0; idx < total_; ++idx) {
    if (completed_[idx] == 0) continue;
    wire::put_u64(out, idx);
    wire::put_sim_result(out, results_[idx]);
  }
  // Atomic replace: a kill mid-write leaves the previous checkpoint (or
  // none), never a torn file.
  const std::string tmp = options_.checkpoint_path + ".tmp";
  {
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    if (!file) {
      throw std::runtime_error("sweep checkpoint: cannot write " + tmp);
    }
    file.write(reinterpret_cast<const char*>(out.data()),
               static_cast<std::streamsize>(out.size()));
    if (!file) {
      throw std::runtime_error("sweep checkpoint: short write to " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), options_.checkpoint_path.c_str()) != 0) {
    throw std::runtime_error("sweep checkpoint: rename to " +
                             options_.checkpoint_path + " failed");
  }
  last_checkpoint_at_ = completed_count_;
}

std::vector<SimResult> SweepScheduler::take_results() {
  const std::scoped_lock lock(mutex_);
  return std::move(results_);
}

// ---------------------------------------------------------------------------
// run_sweep_service

SweepServiceReport run_sweep_service(
    net::Transport* transport, std::uint64_t total_cells,
    const std::function<SimResult(std::uint64_t)>& evaluate,
    std::uint64_t grid_signature, const SweepServiceOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  const int world = transport != nullptr ? transport->world_size() : 1;
  const int rank = transport != nullptr ? transport->rank() : 0;
  // Elastic worlds may hold late joiners with ranks >= world, so the
  // scheduler's per-sender seq guards are sized for the largest world the
  // transport may grow to; a solo elastic root still installs the service.
  const int max_workers = std::max(world, options.max_workers);
  const bool distributed = transport != nullptr && max_workers > 1;
  if (options.abandon_after_pulls > 0 && !options.elastic) {
    throw std::invalid_argument(
        "sweep service: abandon_after_pulls requires elastic (a dead worker "
        "cannot enter the completion barrier)");
  }

  SweepServiceReport report;
  report.stats.total_cells = total_cells;

  // Cells of one range run on the local guided thread-pool runner; the
  // service only decides WHICH rank runs them.
  const SweepRunner runner(SweepOptions{options.num_threads});
  const auto evaluate_range = [&](std::uint64_t first, std::uint32_t count) {
    return runner.run(count,
                      [&](std::size_t i) { return evaluate(first + i); });
  };

  if (rank == 0) {
    SweepScheduler scheduler(total_cells, grid_signature, options, max_workers);
    if (options.resume) {
      report.stats.restored_cells = scheduler.load_checkpoint();
    }
    if (distributed) {
      net::Transport::SweepService service;
      service.on_pull = [&scheduler](int from, net::Bytes pull)
          -> std::pair<bool, net::Bytes> {
        const wire::SweepPull request = wire::decode_sweep_pull(pull);
        if (!scheduler.advance_pull_seq(from, request.seq)) {
          // Stale or duplicated pull: answer done — the sender's live pull
          // (the one with the fresh seq) keeps its grid share moving.
          return {true, wire::encode_sweep_done({request.seq})};
        }
        const SweepScheduler::Range range = scheduler.grant();
        if (range.count == 0) {
          return {true, wire::encode_sweep_done({request.seq})};
        }
        return {false, wire::encode_sweep_grant(
                           {request.seq, range.first, range.count})};
      };
      service.on_result = [&scheduler](int from, net::Bytes payload) {
        wire::SweepResultBatch batch =
            wire::decode_sweep_result_batch(payload);
        if (!scheduler.advance_result_seq(from, batch.seq)) return;
        scheduler.submit(batch.first, std::move(batch.results));
      };
      transport->set_sweep_service(std::move(service));
      // Start fence: no initial-world worker pulls before the service is
      // installed (a pull that beat it would read as "lost rank 0").  Late
      // joiners (rank >= world) are outside the collective and unfenced;
      // an elastic joiner whose pull beats the install stops as done.
      if (world > 1) transport->barrier();
    }
    // Rank 0 works the grid too, pulling straight from the scheduler.  At
    // the tail this loop re-executes outstanding remote ranges (grant()'s
    // speculation), so it exits only once the grid is fully drained — no
    // separate straggler wait is needed.
    for (;;) {
      const SweepScheduler::Range range = scheduler.grant();
      if (range.count == 0) break;
      std::vector<SimResult> results = evaluate_range(range.first, range.count);
      report.stats.executed_cells += range.count;
      scheduler.submit(range.first, std::move(results));
    }
    if (distributed) {
      if (options.elastic) {
        // An elastic world cannot barrier: a worker may have died holding
        // a grant (its cells were re-granted at the tail), and a late
        // joiner was never part of the collective count.  Completion
        // needs no barrier here — the grant loop above exits only once
        // every cell is folded — but a straggler's in-flight pull must
        // still be answered, so swap in a capture-free done-stub instead
        // of withdrawing the service.
        net::Transport::SweepService stub;
        stub.on_pull = [](int, net::Bytes pull) -> std::pair<bool, net::Bytes> {
          const wire::SweepPull request = wire::decode_sweep_pull(pull);
          return {true, wire::encode_sweep_done({request.seq})};
        };
        stub.on_result = [](int, net::Bytes) {};
        transport->set_sweep_service(std::move(stub));
      } else {
        // Workers only enter the barrier after their pull answered done,
        // and a done reply orders AFTER the sender's prior result frames
        // on the same channel — so barrier completion implies every
        // remote result has been folded.
        transport->barrier();
        transport->set_sweep_service({});
      }
    }
    scheduler.checkpoint_now();
    report.stats.interrupted = scheduler.interrupted();
    report.stats.completed_cells = scheduler.completed_cells();
    report.stats.duplicate_cells = scheduler.duplicate_cells();
    report.results = scheduler.take_results();
  } else {
    std::uint32_t pull_seq = 0;
    std::uint32_t result_seq = 0;
    int completed_pulls = 0;
    if (rank < world) transport->barrier();  // start fence (see rank 0)
    for (;;) {
      const auto reply =
          transport->sweep_pull(wire::encode_sweep_pull({++pull_seq}));
      if (!reply.has_value()) {
        // Rank 0 unreachable.  In an elastic world that is an expected
        // membership event (the sweep finished and rank 0 moved on);
        // everything this worker computed has already been pushed.
        if (options.elastic) break;
        throw std::runtime_error("sweep service: lost rank 0 mid-sweep");
      }
      if (reply->first) break;  // kSweepDone
      if (options.abandon_after_pulls > 0 &&
          completed_pulls >= options.abandon_after_pulls) {
        // Scripted mid-sweep death: this grant is never evaluated or
        // reported — rank 0's tail re-grants recover its cells, and the
        // results digest must come out bit-identical regardless.
        break;
      }
      const wire::SweepGrant grant = wire::decode_sweep_grant(reply->second);
      wire::SweepResultBatch batch;
      batch.seq = ++result_seq;
      batch.first = grant.first;
      batch.results = evaluate_range(grant.first, grant.count);
      report.stats.executed_cells += grant.count;
      transport->sweep_push_result(wire::encode_sweep_result_batch(batch));
      ++completed_pulls;
    }
    if (!options.elastic) transport->barrier();
  }
  report.stats.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return report;
}

SweepServiceReport run_sweep_service(net::Transport* transport,
                                     const std::vector<SweepPoint>& points,
                                     const SweepServiceOptions& options) {
  return run_sweep_service(
      transport, points.size(),
      [&points](std::uint64_t i) {
        const SweepPoint& point = points[static_cast<std::size_t>(i)];
        if (point.dataset == nullptr) {
          throw std::invalid_argument("sweep service: point has no dataset");
        }
        const auto policy = make_policy(point.policy);
        // Same cell semantics as SweepRunner::run(points): shared epoch
        // permutations, fresh policy per cell — bit-identical output.
        SimConfig config = point.config;
        config.share_epoch_orders = true;
        return simulate(config, *point.dataset, *policy);
      },
      sweep_grid_signature(points), options);
}

}  // namespace nopfs::sim
