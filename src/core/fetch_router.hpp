#pragma once
// FetchRouter: runtime fetch-source selection (paper Secs. 5.1, 5.2.2).
//
// For each needed sample the router asks the performance model for the
// fastest applicable source among
//   - a local storage class already holding the sample (case 2),
//   - the fastest remote worker planning to cache it (case 1), gated by the
//     prefetch-progress watermark heuristic ("if local prefetching has
//     reached the corresponding access stream location, the remote worker
//     likely has, too"),
//   - the PFS (case 0, always available).
// The clairvoyant fill schedule (FillSchedule) decides which worker reads
// each planned sample from the PFS and when every other holder's copy
// appears; the heuristic is applied to it.  A remote miss (the heuristic's
// false positive) is detected, retries the sample's designated reader, and
// then falls back to the PFS; the paper confirms these are rare, and our
// stats record them.
//
// When a sample that this worker *plans* to cache is needed before its
// class prefetcher got to it, the router caches it on the way through
// ("smoothing out load imbalance" — Sec. 5.2.2).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/access_stream.hpp"
#include "core/cache_policy.hpp"
#include "core/metadata_store.hpp"
#include "core/perf_model.hpp"
#include "core/sample_source.hpp"
#include "net/transport.hpp"
#include "tiers/device_iface.hpp"

namespace nopfs::core {

/// The clairvoyant fill schedule (DESIGN.md Sec. 12): who caches each
/// sample, who reads it from the PFS, and when every other holder's copy
/// appears.  It is every worker's replica of "who caches what".
///
/// Every rank derives the same table from the allgathered plans and the
/// seed's epoch orders.  The designated reader d(S) of a sample is its
/// epoch-0 consumer when that rank plans it; otherwise one of its holders,
/// picked by a deterministic hash, so PFS reads spread evenly.  Only d(S)
/// prefetches S from the PFS, in epoch-0 need order.  Every other holder
/// materializes its copy lazily at its own first access of S (always in
/// epoch >= 1), from a peer that already has it.
class FillSchedule {
 public:
  FillSchedule() = default;

  /// Builds the schedule from every worker's plan (indexed by rank) and the
  /// access-stream generator; `self_rank` selects whose fill order is kept
  /// and who counts as remote.  Throws std::invalid_argument when a plan
  /// names a sample outside the dataset.
  FillSchedule(const std::vector<CachePlan>& plans,
               const AccessStreamGenerator& generator, int self_rank);

  /// Designated PFS reader of `sample`, or -1 when no worker plans it.
  [[nodiscard]] int reader(data::SampleId sample) const noexcept;

  /// Storage class in which `rank` plans `sample`, or -1.
  [[nodiscard]] int class_at(int rank, data::SampleId sample) const noexcept;

  /// First epoch in which `rank` holds its copy of `sample`: 0 for the
  /// designated reader, the epoch of the first access for any other
  /// holder; -1 when `rank` does not plan it.
  [[nodiscard]] int copy_epoch(int rank, data::SampleId sample) const noexcept;

  /// Samples this worker reads from the PFS into class `cls`, in epoch-0
  /// need order (the class prefetcher's work list).
  [[nodiscard]] const std::vector<data::SampleId>& fill_order(int cls) const;

  /// The readiness heuristic (paper Sec. 5.2.2, "if local prefetching has
  /// reached the corresponding access stream location, the remote worker
  /// likely has, too"), applied to the schedule: `peer`'s copy of `sample`
  /// is likely there for an access in epoch `epoch` when
  ///   - `peer` is the reader: from epoch 1 on, or once `self_progress`
  ///     (this worker's own fill progress in the class `peer` holds the
  ///     sample in) has passed the sample's position in the reader's fill
  ///     order;
  ///   - `peer` is another holder: once the epoch of its first access is
  ///     over.
  [[nodiscard]] bool likely_cached(int peer, data::SampleId sample,
                                   std::uint64_t self_progress, int epoch) const noexcept;

  /// Fastest remote holder of `sample`: (peer, class).  Among holders with
  /// the same class the peer is picked by deterministic hashing of
  /// (sample, self rank) to spread remote-fetch load (paper Sec. 5.1:
  /// "samples should be well-distributed among workers").
  struct RemoteLocation {
    int peer = -1;
    int storage_class = -1;
  };
  [[nodiscard]] std::optional<RemoteLocation> best_remote(
      data::SampleId sample) const noexcept;

  /// All holders of `sample` (including self) in rank order, for
  /// diagnostics and tests.
  struct Holder {
    int rank = -1;
    int storage_class = -1;
  };
  [[nodiscard]] std::vector<Holder> holders(data::SampleId sample) const;

  /// True if any worker (anyone, incl. self) plans to cache `sample`.
  [[nodiscard]] bool cached_anywhere(data::SampleId sample) const noexcept;

  /// Incremental rebalance after rank `rank` leaves the world (elastic
  /// membership, DESIGN.md Sec. 11): removes every holding of that rank,
  /// in place, and nothing else.  Holdings of surviving ranks are
  /// untouched, so best_remote() re-resolves deterministically among the
  /// survivors; samples whose only holder was the dead rank degrade to the
  /// PFS fallback (cached_anywhere() is false), and samples it was to read
  /// lose their designated reader (reader() is -1).  Returns {samples still
  /// cached by a survivor, samples now PFS-only}.
  std::pair<std::size_t, std::size_t> drop_rank(int rank);

 private:
  struct Holding {
    std::int32_t rank = -1;
    std::int32_t cls = -1;
    std::uint32_t copy_epoch = 0;
  };
  [[nodiscard]] const Holding* find(int rank, data::SampleId sample) const noexcept;
  [[nodiscard]] Holding* find(int rank, data::SampleId sample) noexcept;

  int self_rank_ = -1;
  std::vector<std::int32_t> reader_;      ///< per sample; -1 = unplanned
  std::vector<std::uint32_t> fill_pos_;   ///< per sample: index in reader's fill order
  std::vector<std::uint32_t> offsets_;    ///< per sample: start of its holdings (CSR)
  std::vector<Holding> holdings_;         ///< of one sample: in rank order
  std::vector<std::vector<data::SampleId>> fill_order_;  ///< self, per class
};

/// Per-source fetch statistics (drives the Fig. 12 breakdown).
struct FetchStats {
  std::atomic<std::uint64_t> staging_hits{0};
  std::atomic<std::uint64_t> local_fetches{0};
  std::atomic<std::uint64_t> remote_fetches{0};
  std::atomic<std::uint64_t> pfs_fetches{0};
  std::atomic<std::uint64_t> remote_misses{0};  ///< heuristic false positives
  std::atomic<double> local_mb{0.0};
  std::atomic<double> remote_mb{0.0};
  std::atomic<double> pfs_mb{0.0};

  void add_mb(std::atomic<double>& counter, double mb) {
    counter.fetch_add(mb, std::memory_order_relaxed);
  }
};

/// Runtime configuration switches (ablations toggle these).
struct RouterOptions {
  bool use_remote = true;               ///< allow case-1 fetches
  bool use_watermark_heuristic = true;  ///< gate remote on readiness estimate
  /// Cache a sample this worker reads for the fill when the staging path
  /// needs it first (load smoothing).  Peer copies of the worker's other
  /// planned samples are made on that path regardless.
  bool cache_on_miss = true;
};

class FetchRouter {
 public:
  /// `devices` and `pfs` may be nullptr for untimed tests; `transport` may
  /// be nullptr when use_remote is false or world size is 1.
  FetchRouter(int rank, const PerfModel& model, const CachePlan& self_plan,
              const FillSchedule& schedule, MetadataStore& metadata,
              std::vector<std::unique_ptr<StorageBackend>>& backends,
              SampleSource& source, net::Transport* transport,
              tiers::WorkerDevices* devices, RouterOptions options);

  /// Fetches the bytes of `sample`, accessed in epoch `epoch`, from the
  /// fastest available source (staging-prefetcher path).  If this worker
  /// plans to cache the sample and nobody is already fetching it, the bytes
  /// are cached on the way through; if another thread is mid-fetch, this
  /// call waits for that fetch and serves the result locally — planned
  /// samples are materialized at most once per worker.
  [[nodiscard]] Bytes fetch(data::SampleId sample, double size_mb, int epoch);

  /// Class-prefetcher path: fetches and caches `sample` (one this worker
  /// reads for the fill) unless it is already cached or another thread
  /// claimed it.  Returns true if this call did the caching.
  bool prefetch_planned(data::SampleId sample, double size_mb);

  /// Advances this worker's class-`cls` prefetch progress (used by the
  /// watermark heuristic for remote readiness).
  void note_class_progress(int cls);

  [[nodiscard]] std::uint64_t class_progress(int cls) const;

  [[nodiscard]] FetchStats& stats() noexcept { return stats_; }
  [[nodiscard]] const RouterOptions& options() const noexcept { return options_; }

  /// Loads `sample` from local cache only (serve handler path); charges the
  /// holding tier's read time.  nullopt when not cached.
  [[nodiscard]] std::optional<Bytes> load_local(data::SampleId sample);

 private:
  /// Fetches from the fastest remote/PFS source per the model (no local
  /// check, no caching).  The designated reader goes straight to the PFS; a
  /// remote miss at another holder retries the reader before the PFS.
  [[nodiscard]] Bytes fetch_from_source(data::SampleId sample, double size_mb, int epoch);

  /// One fetch_sample call, counted as a remote fetch or a remote miss.
  [[nodiscard]] std::optional<Bytes> fetch_remote(int peer, data::SampleId sample,
                                                  double size_mb);

  /// Claims the right to materialize `sample` locally.  False if already
  /// cached or claimed by another thread.
  [[nodiscard]] bool try_claim(data::SampleId sample);

  /// Stores claimed bytes into `sample`'s planned class, updates metadata,
  /// releases the claim and wakes waiters.
  void finish_claim(data::SampleId sample, const Bytes& bytes);

  /// Blocks while another thread holds the claim for `sample`.
  void wait_if_inflight(data::SampleId sample);

  int rank_;
  const PerfModel& model_;
  const CachePlan& self_plan_;
  const FillSchedule& schedule_;
  MetadataStore& metadata_;
  std::vector<std::unique_ptr<StorageBackend>>& backends_;
  SampleSource& source_;
  net::Transport* transport_;
  tiers::WorkerDevices* devices_;
  RouterOptions options_;
  FetchStats stats_;
  std::vector<std::atomic<std::uint64_t>> progress_;  ///< per class

  // Samples currently being fetched-for-caching by some thread.
  std::mutex inflight_mutex_;
  std::condition_variable inflight_cv_;
  std::unordered_set<data::SampleId> inflight_;
};

}  // namespace nopfs::core
