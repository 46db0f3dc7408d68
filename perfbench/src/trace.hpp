#pragma once
// Span recorder and the forwarding decorators of the traced run.
//
// Spans are recorded from outside the program, around the calls the
// benchmark can intercept: every net::Transport call (TracedTransport, the
// same forwarding pattern as net::FaultTransport), every tier and NIC
// device call (TracedTier / TracedNic, swapped into a bench-built
// tiers::EmulatedCluster through cluster.worker(r)), and each rank's whole
// job.  A span's cause is the span enclosing it on the
// same thread; a span that does not carry a sample id itself inherits its
// cause's, so the tier read a peer does inside a served fetch shares the
// fetch's sample id.  Spans stay in per-thread memory until the run ends;
// write_chrome_json() emits them once as Chrome trace-event JSON.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "net/transport.hpp"
#include "tiers/device_iface.hpp"

namespace perfbench {

enum class Layer : std::uint8_t { kRuntime, kCore, kNet, kTiers };
inline constexpr int kNumLayers = 4;

[[nodiscard]] const char* layer_name(Layer layer) noexcept;

struct Span {
  const char* name = "";      ///< static string
  Layer layer = Layer::kRuntime;
  std::int64_t start_ns = 0;  ///< since the tracer's origin
  std::int64_t end_ns = -1;   ///< -1 while open
  std::int64_t sample = -1;   ///< sample id; -1 = unknown
  std::int32_t parent = -1;   ///< cause: enclosing span on this thread
  double mb = 0.0;            ///< payload moved by the call, if any
};

/// One thread's spans, in start order.
struct ThreadLog {
  std::uint32_t thread = 0;
  bool rank_thread = false;  ///< a rank's consumer thread (blocking path)
  std::vector<Span> spans;
  std::vector<std::int32_t> open;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on the calling thread and returns its handle.
  std::int32_t begin(const char* name, Layer layer, std::int64_t sample = -1);
  /// Closes the span `handle` of the calling thread, recording `mb`.
  void end(std::int32_t handle, double mb = 0.0);

  /// Marks the calling thread as a rank thread: the per-item self times
  /// are attributed along rank threads, the path every delivery blocks on.
  void mark_rank_thread();

  /// Every thread's log.  Only call once all traced threads are done.
  [[nodiscard]] const std::vector<std::unique_ptr<ThreadLog>>& logs() const {
    return logs_;
  }

  /// Chrome trace-event JSON ("X" complete events, one tid per thread).
  void write_chrome_json(std::ostream& out, const std::string& label) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;
  ThreadLog& log();

  const std::uint64_t id_;
  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;  // guards logs_ (registration only)
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// RAII span on the calling thread; records nothing when `tracer` is null.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, Layer layer, std::int64_t sample = -1)
      : tracer_(tracer), handle_(tracer != nullptr ? tracer->begin(name, layer, sample) : -1) {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->end(handle_, mb_);
  }

  void set_mb(double mb) { mb_ = mb; }

 private:
  Tracer* tracer_;
  std::int32_t handle_;
  double mb_ = 0.0;
};

/// Thrown by TracedTransport::barrier() when the barrier a set-up probe
/// stops at has returned.
struct SetupComplete : std::exception {
  [[nodiscard]] const char* what() const noexcept override { return "set-up complete"; }
};

/// Transport decorator: a span per blocking call, plus counters for the
/// calls too cheap or too frequent to span.  Also times each rank's matched
/// pfs_adjust(+w) .. pfs_adjust(-w) interval: the time this rank had a PFS
/// read outstanding, as the contention protocol sees it.  With a null
/// tracer it records no spans, only when each barrier returned: untraced
/// jobs find the end of set-up through that.
class TracedTransport final : public nopfs::net::Transport {
 public:
  using Bytes = nopfs::net::Bytes;
  using TimePoint = std::chrono::steady_clock::time_point;

  /// `inner` and a non-null `tracer` must outlive the decorator.
  TracedTransport(nopfs::net::Transport& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] int rank() const override { return inner_.rank(); }
  [[nodiscard]] int world_size() const override { return inner_.world_size(); }
  std::vector<Bytes> allgather(Bytes local) override;
  void barrier() override;
  void set_serve_handler(ServeHandler handler) override;
  std::optional<Bytes> fetch_sample(int peer, std::uint64_t id) override;
  int pfs_adjust(int delta) override;
  void set_pfs_listener(PfsListener listener) override {
    inner_.set_pfs_listener(std::move(listener));
  }
  void set_sweep_service(SweepService service) override {
    inner_.set_sweep_service(std::move(service));
  }
  std::optional<std::pair<bool, Bytes>> sweep_pull(Bytes pull) override {
    return inner_.sweep_pull(std::move(pull));
  }
  void sweep_push_result(Bytes batch) override {
    inner_.sweep_push_result(std::move(batch));
  }
  void publish_watermark(std::uint64_t position) override {
    watermarks_.fetch_add(1, std::memory_order_relaxed);
    inner_.publish_watermark(position);
  }
  [[nodiscard]] std::uint64_t watermark_of(int peer) const override {
    return inner_.watermark_of(peer);
  }
  [[nodiscard]] double transferred_mb() const override {
    return inner_.transferred_mb();
  }
  [[nodiscard]] const char* reactor_backend() const noexcept override {
    return inner_.reactor_backend();
  }

  struct Counters {
    std::uint64_t pfs_adjusts = 0;
    std::uint64_t watermarks = 0;
    double pfs_wait_s = 0.0;    ///< Σ matched +/- pfs_adjust intervals
    int peak_gamma = 0;         ///< highest gamma pfs_adjust returned
  };
  [[nodiscard]] Counters counters() const;

  /// When each barrier returned, in call order (only the rank's own thread
  /// calls barrier(); read after it joined).
  [[nodiscard]] const std::vector<TimePoint>& barrier_ends() const { return barrier_ends_; }

  /// Makes the `n`-th barrier() throw SetupComplete once it has returned,
  /// so every rank leaves the job at the same point (0 = never).
  void stop_after_barrier(std::size_t n) { stop_after_ = n; }

 private:
  nopfs::net::Transport& inner_;
  Tracer* tracer_;
  std::size_t stop_after_ = 0;
  std::atomic<std::uint64_t> watermarks_{0};
  std::vector<TimePoint> barrier_ends_;
  mutable std::mutex pfs_mutex_;  // guards the pfs_* members below
  int pfs_outstanding_ = 0;
  TimePoint pfs_since_{};
  std::uint64_t pfs_adjusts_ = 0;
  double pfs_wait_s_ = 0.0;
  int peak_gamma_ = 0;
};

/// Tier decorator: spans every read and write ("tiers.<class>.read|write").
class TracedTier final : public nopfs::tiers::TierDevice {
 public:
  TracedTier(std::unique_ptr<nopfs::tiers::TierDevice> inner, Tracer& tracer);

  void read(double mb) override;
  void write(double mb) override;
  [[nodiscard]] const std::string& name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] double capacity_mb() const noexcept override {
    return inner_->capacity_mb();
  }
  [[nodiscard]] double total_read_mb() const override { return inner_->total_read_mb(); }
  [[nodiscard]] double total_written_mb() const override {
    return inner_->total_written_mb();
  }

 private:
  std::unique_ptr<nopfs::tiers::TierDevice> inner_;
  Tracer& tracer_;
  const char* read_span_;
  const char* write_span_;
};

/// NIC decorator: spans every transfer ("tiers.nic.transfer").
class TracedNic final : public nopfs::tiers::NicDevice {
 public:
  TracedNic(std::unique_ptr<nopfs::tiers::NicDevice> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  void transfer(double mb) override;
  [[nodiscard]] double total_transferred_mb() const override {
    return inner_->total_transferred_mb();
  }

 private:
  std::unique_ptr<nopfs::tiers::NicDevice> inner_;
  Tracer& tracer_;
};

/// Swaps every tier and the NIC of `devices` for traced decorators.
void trace_devices(nopfs::tiers::WorkerDevices& devices, Tracer& tracer);

}  // namespace perfbench
