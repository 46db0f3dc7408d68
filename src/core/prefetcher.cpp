#include "core/prefetcher.hpp"

#include <chrono>

#include "util/log.hpp"

namespace nopfs::core {

ClassPrefetcher::ClassPrefetcher(int cls, const std::vector<data::SampleId>& samples,
                                 const data::Dataset& dataset, FetchRouter& router,
                                 int num_threads)
    : cls_(cls),
      samples_(samples),
      dataset_(dataset),
      router_(router),
      num_threads_(num_threads < 1 ? 1 : num_threads) {}

ClassPrefetcher::~ClassPrefetcher() { stop(); }

void ClassPrefetcher::start() {
  threads_.reserve(static_cast<std::size_t>(num_threads_));
  for (int t = 0; t < num_threads_; ++t) {
    threads_.emplace_back([this] { thread_main(); });
  }
}

void ClassPrefetcher::stop() {
  stop_.store(true, std::memory_order_relaxed);
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
}

void ClassPrefetcher::join() {
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
}

bool ClassPrefetcher::done() const noexcept {
  return completed_.load(std::memory_order_acquire) >= samples_.size();
}

void ClassPrefetcher::thread_main() {
  for (;;) {
    if (stop_.load(std::memory_order_relaxed)) return;
    const std::uint64_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= samples_.size()) return;
    const data::SampleId sample = samples_[i];
    // prefetch_planned claims, fetches and stores; it is a no-op when the
    // staging path (load-imbalance smoothing) already cached or claimed
    // the sample — planned samples are materialized exactly once.
    if (router_.prefetch_planned(sample, dataset_.size_mb(sample))) {
      fetched_.fetch_add(1, std::memory_order_relaxed);
    }
    router_.note_class_progress(cls_);
    completed_.fetch_add(1, std::memory_order_release);
  }
}

StagingPrefetcher::StagingPrefetcher(const std::vector<data::SampleId>& stream,
                                     int num_epochs, const data::Dataset& dataset,
                                     StagingBuffer& buffer, FetchRouter& router,
                                     tiers::WorkerDevices* devices,
                                     double preprocess_mbps, double time_scale,
                                     int num_threads, net::Transport* transport)
    : stream_(stream),
      num_epochs_(static_cast<std::uint64_t>(num_epochs)),
      dataset_(dataset),
      buffer_(buffer),
      router_(router),
      devices_(devices),
      preprocess_mbps_(preprocess_mbps),
      time_scale_(time_scale),
      num_threads_(num_threads < 1 ? 1 : num_threads),
      transport_(transport) {}

StagingPrefetcher::~StagingPrefetcher() { stop(); }

void StagingPrefetcher::start() {
  threads_.reserve(static_cast<std::size_t>(num_threads_));
  for (int t = 0; t < num_threads_; ++t) {
    threads_.emplace_back([this] { thread_main(); });
  }
}

void StagingPrefetcher::stop() {
  stop_.store(true, std::memory_order_relaxed);
  // Closing the buffer wakes any producer parked inside reserve() (it
  // returns nullopt), so the joins below cannot deadlock on a thread that
  // is blocked waiting for ring space the consumer will never free.
  buffer_.close();
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
}

void StagingPrefetcher::thread_main() {
  while (!stop_.load(std::memory_order_relaxed)) {
    std::uint64_t seq = 0;
    data::SampleId sample = 0;
    std::optional<ProducerSlot> slot;
    {
      // Single-logical-stream invariant: the p_0 producer threads share ONE
      // access stream R, and slots must be reserved in stream order, so seq
      // assignment and reservation happen under one dispenser lock
      // (StagingBuffer::reserve enforces the ordering by throwing on any
      // out-of-order seq).  Blocking on buffer space while holding the lock
      // is safe — not because it is lock-free, but because of two
      // invariants this class must preserve:
      //   (a) the ring is FIFO, so position f+1 cannot be placed before
      //       position f — a peer thread waiting on the dispenser could not
      //       make progress anyway; and
      //   (b) the party that creates space (the consumer via release()) and
      //       the party that aborts the wait (stop()/close()) never acquire
      //       dispense_mutex_, so the parked producer is always woken.
      // DESIGN.md Sec. 2.1 discusses this trade-off.
      const std::scoped_lock lock(dispense_mutex_);
      // Stop-responsive exit: do not park in reserve() for a stop()ed
      // prefetcher — stop() closes the buffer before joining, but a thread
      // that acquired the dispenser after close() would otherwise still
      // attempt a reservation on a drained ring.
      if (stop_.load(std::memory_order_relaxed)) return;
      seq = next_.load(std::memory_order_relaxed);
      if (seq >= stream_.size()) return;
      sample = stream_[seq];
      const auto bytes = static_cast<std::size_t>(dataset_.size_mb(sample) * 1024.0 * 1024.0);
      slot = buffer_.reserve(seq, sample, bytes);
      if (!slot.has_value()) return;  // closed (stop() or external close)
      next_.store(seq + 1, std::memory_order_relaxed);
      if (transport_ != nullptr) transport_->publish_watermark(seq + 1);
    }
    const double mb = dataset_.size_mb(sample);
    // Epochs are equally long, so this is the epoch of stream position seq.
    const auto epoch = static_cast<int>(seq * num_epochs_ / stream_.size());
    Bytes bytes = router_.fetch(sample, mb, epoch);
    // Preprocess and store into the staging buffer.  The model pipelines
    // them (write = max(s/beta, s/(w0/p0))); the emulation charges the
    // staging write via its token bucket and the preprocessing as a sleep,
    // which upper-bounds the max by the sum (documented in DESIGN.md).
    if (devices_ != nullptr) {
      devices_->staging->write(mb);
      if (preprocess_mbps_ > 0.0 && time_scale_ > 0.0) {
        const double virtual_s = mb / preprocess_mbps_;
        std::this_thread::sleep_for(
            std::chrono::duration<double>(virtual_s / time_scale_));
      }
    }
    const std::size_t n = std::min(bytes.size(), slot->data.size());
    std::copy_n(bytes.begin(), n, slot->data.begin());
    buffer_.commit(seq);
    util::log_trace("staging: committed seq ", seq, " sample ", sample);
  }
}

}  // namespace nopfs::core
