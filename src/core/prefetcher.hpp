#pragma once
// Prefetcher backends (paper Sec. 5.2.2).
//
// ClassPrefetcher: p_j threads fill storage class j with the planned samples
// this worker is the designated PFS reader of, in epoch-0 need order
// (Rule 1 applied job-wide; core::FillSchedule).  The worker's other planned
// samples arrive lazily, as peer copies at their first access.  If the
// router already cached a sample (load-imbalance smoothing), the prefetcher
// skips it.
//
// StagingPrefetcher: p_0 threads walk the worker's access stream R,
// reserving staging-buffer slots in stream order from a shared dispenser,
// fetching each sample from the fastest source, charging the preprocessing
// and staging-write costs, and committing slots as they complete (possibly
// out of order; the consumer reorders).

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/access_stream.hpp"
#include "core/fetch_router.hpp"
#include "core/staging_buffer.hpp"

namespace nopfs::core {

/// Fills one storage class with the samples this worker reads for the fill.
class ClassPrefetcher {
 public:
  /// `cls` indexes the router's backends; `samples` is the class's fill
  /// order (the prefetcher keeps a reference — the caller owns it).
  ClassPrefetcher(int cls, const std::vector<data::SampleId>& samples,
                  const data::Dataset& dataset, FetchRouter& router, int num_threads);
  ~ClassPrefetcher();

  ClassPrefetcher(const ClassPrefetcher&) = delete;
  ClassPrefetcher& operator=(const ClassPrefetcher&) = delete;

  void start();
  void stop();    ///< cooperative; joins threads
  void join();    ///< waits for the fill order to be fully prefetched

  [[nodiscard]] bool done() const noexcept;
  [[nodiscard]] std::uint64_t fetched() const noexcept {
    return fetched_.load(std::memory_order_relaxed);
  }

 private:
  void thread_main();

  int cls_;
  const std::vector<data::SampleId>& samples_;
  const data::Dataset& dataset_;
  FetchRouter& router_;
  int num_threads_;
  std::atomic<std::uint64_t> next_{0};
  std::atomic<std::uint64_t> fetched_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Fills the staging buffer with the access stream R.
class StagingPrefetcher {
 public:
  /// `stream` is worker-local R (sample ids in consumption order) of
  /// `num_epochs` equal epochs; the prefetcher keeps a reference — the
  /// caller owns the storage.
  StagingPrefetcher(const std::vector<data::SampleId>& stream, int num_epochs,
                    const data::Dataset& dataset, StagingBuffer& buffer,
                    FetchRouter& router, tiers::WorkerDevices* devices,
                    double preprocess_mbps, double time_scale, int num_threads,
                    net::Transport* transport);
  ~StagingPrefetcher();

  StagingPrefetcher(const StagingPrefetcher&) = delete;
  StagingPrefetcher& operator=(const StagingPrefetcher&) = delete;

  void start();
  /// Cooperative shutdown: closes the staging buffer (waking any producer
  /// blocked in reserve()) and joins all threads.  Safe to call while
  /// producers are parked waiting for ring space.
  void stop();

  /// Stream position reached by the dispenser (watermark basis).
  [[nodiscard]] std::uint64_t progress() const noexcept {
    return next_.load(std::memory_order_relaxed);
  }

 private:
  void thread_main();

  const std::vector<data::SampleId>& stream_;
  std::uint64_t num_epochs_;
  const data::Dataset& dataset_;
  StagingBuffer& buffer_;
  FetchRouter& router_;
  tiers::WorkerDevices* devices_;
  double preprocess_mbps_;
  double time_scale_;
  int num_threads_;
  net::Transport* transport_;
  std::mutex dispense_mutex_;
  std::atomic<std::uint64_t> next_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace nopfs::core
