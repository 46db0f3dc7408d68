#include "core/fetch_router.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/log.hpp"

namespace nopfs::core {

namespace {

/// copy_epoch of a holding whose holder never accesses the sample.
constexpr std::uint32_t kNoCopy = 0xffffffffu;

/// Full splitmix64 finalizer: a weak mix measurably skews the reads across
/// equal holders.
std::uint64_t mix(std::uint64_t h) noexcept {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

}  // namespace

FillSchedule::FillSchedule(const std::vector<CachePlan>& plans,
                           const AccessStreamGenerator& generator, int self_rank)
    : self_rank_(self_rank) {
  const StreamConfig& config = generator.config();
  const std::uint64_t f = config.num_samples;

  // Every holding of every sample, as flat per-sample ranges (CSR): count,
  // prefix-sum, scatter.  Holdings of one sample are in rank order.
  offsets_.assign(f + 1, 0);
  std::size_t num_classes = 0;
  for (const auto& plan : plans) {
    num_classes = std::max(num_classes, plan.per_class.size());
    for (const auto& class_plan : plan.per_class) {
      for (const data::SampleId sample : class_plan.samples) {
        if (sample >= f) {
          throw std::invalid_argument("FillSchedule: planned sample outside the dataset");
        }
        ++offsets_[sample + 1];
      }
    }
  }
  for (std::uint64_t k = 0; k < f; ++k) offsets_[k + 1] += offsets_[k];
  holdings_.resize(offsets_[f]);
  {
    std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
    for (std::size_t rank = 0; rank < plans.size(); ++rank) {
      const auto& per_class = plans[rank].per_class;
      for (std::size_t cls = 0; cls < per_class.size(); ++cls) {
        for (const data::SampleId sample : per_class[cls].samples) {
          holdings_[cursor[sample]++] = Holding{static_cast<std::int32_t>(rank),
                                                static_cast<std::int32_t>(cls), kNoCopy};
        }
      }
    }
  }

  // Epoch 0 designates the readers.  Walking its order hands each reader
  // its samples in need order.
  const std::uint64_t consumed =
      std::min<std::uint64_t>(f, config.iterations_per_epoch() * config.global_batch);
  reader_.assign(f, -1);
  fill_pos_.assign(f, 0);
  fill_order_.assign(num_classes, {});
  std::vector<std::uint32_t> fill_count(plans.size() * num_classes, 0);
  std::vector<data::SampleId> order;
  generator.epoch_order_into(0, order);
  struct Lazy {
    data::SampleId sample;
    std::uint32_t holding;
  };
  std::vector<Lazy> lazy;  // holdings still to be dated
  for (std::uint64_t g = 0; g < f; ++g) {
    const data::SampleId sample = order[g];
    const std::uint32_t begin = offsets_[sample];
    const std::uint32_t count = offsets_[sample + 1] - begin;
    if (count == 0) continue;
    Holding* pick = g < consumed ? find(generator.owner_of_position(g), sample) : nullptr;
    if (pick == nullptr) pick = &holdings_[begin + mix(sample) % count];
    pick->copy_epoch = 0;
    reader_[sample] = pick->rank;
    auto& next = fill_count[static_cast<std::size_t>(pick->rank) * num_classes +
                            static_cast<std::size_t>(pick->cls)];
    fill_pos_[sample] = next++;
    if (pick->rank == self_rank) {
      fill_order_[static_cast<std::size_t>(pick->cls)].push_back(sample);
    }
    for (std::uint32_t i = begin; i < begin + count; ++i) {
      if (&holdings_[i] != pick) lazy.push_back(Lazy{sample, i});
    }
  }

  // Later epochs date every other holder's copy by its first access: the
  // epoch in which the sample's position falls to that holder.
  std::vector<std::uint64_t> position(f);
  for (int e = 1; e < config.num_epochs && !lazy.empty(); ++e) {
    generator.epoch_order_into(e, order);
    for (std::uint64_t g = 0; g < f; ++g) position[order[g]] = g;
    std::erase_if(lazy, [&](const Lazy& l) {
      const std::uint64_t g = position[l.sample];
      Holding& holding = holdings_[l.holding];
      if (g >= consumed || generator.owner_of_position(g) != holding.rank) return false;
      holding.copy_epoch = static_cast<std::uint32_t>(e);
      return true;
    });
  }
}

const FillSchedule::Holding* FillSchedule::find(int rank,
                                                data::SampleId sample) const noexcept {
  if (sample >= reader_.size()) return nullptr;
  for (std::uint32_t i = offsets_[sample]; i < offsets_[sample + 1]; ++i) {
    if (holdings_[i].rank == rank) return &holdings_[i];
  }
  return nullptr;
}

FillSchedule::Holding* FillSchedule::find(int rank, data::SampleId sample) noexcept {
  return const_cast<Holding*>(std::as_const(*this).find(rank, sample));
}

int FillSchedule::reader(data::SampleId sample) const noexcept {
  return sample < reader_.size() ? reader_[sample] : -1;
}

int FillSchedule::class_at(int rank, data::SampleId sample) const noexcept {
  const Holding* holding = find(rank, sample);
  return holding != nullptr ? holding->cls : -1;
}

int FillSchedule::copy_epoch(int rank, data::SampleId sample) const noexcept {
  const Holding* holding = find(rank, sample);
  if (holding == nullptr) return -1;
  return holding->copy_epoch == kNoCopy ? std::numeric_limits<int>::max()
                                        : static_cast<int>(holding->copy_epoch);
}

const std::vector<data::SampleId>& FillSchedule::fill_order(int cls) const {
  static const std::vector<data::SampleId> kNone;
  if (cls < 0 || static_cast<std::size_t>(cls) >= fill_order_.size()) return kNone;
  return fill_order_[static_cast<std::size_t>(cls)];
}

bool FillSchedule::likely_cached(int peer, data::SampleId sample,
                                 std::uint64_t self_progress, int epoch) const noexcept {
  const Holding* holding = find(peer, sample);
  if (holding == nullptr) return false;
  if (peer != reader_[sample]) {
    return holding->copy_epoch < static_cast<std::uint32_t>(epoch);
  }
  return epoch >= 1 || fill_pos_[sample] < self_progress;
}

std::optional<FillSchedule::RemoteLocation> FillSchedule::best_remote(
    data::SampleId sample) const noexcept {
  if (sample >= reader_.size()) return std::nullopt;
  // Fastest class wins; among holders with the fastest class, hash
  // (sample, self rank) to spread load across peers.
  const std::uint32_t begin = offsets_[sample];
  const std::uint32_t end = offsets_[sample + 1];
  std::int32_t best_class = -1;
  std::uint64_t equal = 0;
  for (std::uint32_t i = begin; i < end; ++i) {
    const Holding& h = holdings_[i];
    if (h.rank == self_rank_) continue;
    if (best_class == -1 || h.cls < best_class) {
      best_class = h.cls;
      equal = 0;
    }
    if (h.cls == best_class) ++equal;
  }
  if (equal == 0) return std::nullopt;
  std::uint64_t pick =
      mix(sample ^ (static_cast<std::uint64_t>(self_rank_) << 32)) % equal;
  for (std::uint32_t i = begin; i < end; ++i) {
    const Holding& h = holdings_[i];
    if (h.rank == self_rank_ || h.cls != best_class) continue;
    if (pick-- == 0) return RemoteLocation{h.rank, h.cls};
  }
  return std::nullopt;  // unreachable: `equal` holders match
}

std::vector<FillSchedule::Holder> FillSchedule::holders(data::SampleId sample) const {
  std::vector<Holder> result;
  if (sample >= reader_.size()) return result;
  for (std::uint32_t i = offsets_[sample]; i < offsets_[sample + 1]; ++i) {
    result.push_back(Holder{holdings_[i].rank, holdings_[i].cls});
  }
  return result;
}

bool FillSchedule::cached_anywhere(data::SampleId sample) const noexcept {
  return sample < reader_.size() && offsets_[sample] != offsets_[sample + 1];
}

std::pair<std::size_t, std::size_t> FillSchedule::drop_rank(int rank) {
  std::size_t remapped = 0;
  std::size_t pfs_only = 0;
  std::uint32_t kept = 0;
  for (std::size_t sample = 0; sample < reader_.size(); ++sample) {
    const std::uint32_t begin = offsets_[sample];
    const std::uint32_t end = offsets_[sample + 1];
    offsets_[sample] = kept;
    for (std::uint32_t i = begin; i < end; ++i) {
      if (holdings_[i].rank != rank) holdings_[kept++] = holdings_[i];
    }
    if (kept == offsets_[sample] && end != begin) {
      ++pfs_only;
    } else if (kept - offsets_[sample] != end - begin) {
      ++remapped;
    }
    if (reader_[sample] == rank) reader_[sample] = -1;
  }
  if (!offsets_.empty()) offsets_.back() = kept;
  holdings_.resize(kept);
  return {remapped, pfs_only};
}

FetchRouter::FetchRouter(int rank, const PerfModel& model, const CachePlan& self_plan,
                         const FillSchedule& schedule, MetadataStore& metadata,
                         std::vector<std::unique_ptr<StorageBackend>>& backends,
                         SampleSource& source, net::Transport* transport,
                         tiers::WorkerDevices* devices, RouterOptions options)
    : rank_(rank),
      model_(model),
      self_plan_(self_plan),
      schedule_(schedule),
      metadata_(metadata),
      backends_(backends),
      source_(source),
      transport_(transport),
      devices_(devices),
      options_(options),
      progress_(backends.size()) {
  for (auto& p : progress_) p.store(0, std::memory_order_relaxed);
}

void FetchRouter::note_class_progress(int cls) {
  progress_.at(static_cast<std::size_t>(cls)).fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t FetchRouter::class_progress(int cls) const {
  return progress_.at(static_cast<std::size_t>(cls)).load(std::memory_order_relaxed);
}

std::optional<Bytes> FetchRouter::load_local(data::SampleId sample) {
  const auto cls = metadata_.find(sample);
  if (!cls.has_value()) return std::nullopt;
  auto bytes = backends_.at(static_cast<std::size_t>(*cls))->load(sample);
  if (!bytes.has_value()) return std::nullopt;
  if (devices_ != nullptr) {
    devices_->tiers.at(static_cast<std::size_t>(*cls))
        ->read(static_cast<double>(bytes->size()) / (1024.0 * 1024.0));
  }
  return bytes;
}

bool FetchRouter::try_claim(data::SampleId sample) {
  const std::scoped_lock lock(inflight_mutex_);
  if (metadata_.contains(sample)) return false;
  return inflight_.insert(sample).second;
}

void FetchRouter::finish_claim(data::SampleId sample, const Bytes& bytes) {
  const auto planned = self_plan_.find(sample);
  if (planned.has_value()) {
    const double mb = static_cast<double>(bytes.size()) / (1024.0 * 1024.0);
    auto& backend = backends_.at(static_cast<std::size_t>(*planned));
    if (backend->store(sample, bytes)) {
      if (devices_ != nullptr) {
        devices_->tiers.at(static_cast<std::size_t>(*planned))->write(mb);
      }
      metadata_.insert(sample, *planned, mb);
    }
  }
  {
    const std::scoped_lock lock(inflight_mutex_);
    inflight_.erase(sample);
  }
  inflight_cv_.notify_all();
}

void FetchRouter::wait_if_inflight(data::SampleId sample) {
  std::unique_lock lock(inflight_mutex_);
  if (!inflight_.contains(sample)) return;
  util::log_trace("rank ", rank_, ": waiting for in-flight sample ", sample);
  inflight_cv_.wait(lock, [&] { return !inflight_.contains(sample); });
  util::log_trace("rank ", rank_, ": in-flight wait done for sample ", sample);
}

std::optional<Bytes> FetchRouter::fetch_remote(int peer, data::SampleId sample,
                                               double size_mb) {
  auto bytes = transport_->fetch_sample(peer, sample);
  if (!bytes.has_value()) {
    // Heuristic false positive: detected, not an error (Sec. 5.2.2).
    ++stats_.remote_misses;
    return std::nullopt;
  }
  ++stats_.remote_fetches;
  stats_.add_mb(stats_.remote_mb, size_mb);
  return bytes;
}

Bytes FetchRouter::fetch_from_source(data::SampleId sample, double size_mb, int epoch) {
  // The designated reader is the one worker that reads the sample from the
  // PFS; nobody else has a copy before it does.
  const int reader = schedule_.reader(sample);
  int remote_cls = -1;
  int remote_peer = -1;
  if (reader != rank_ && options_.use_remote && transport_ != nullptr &&
      transport_->world_size() > 1) {
    const auto ready = [&](int peer, int cls) {
      return !options_.use_watermark_heuristic ||
             schedule_.likely_cached(peer, sample, class_progress(cls), epoch);
    };
    if (const auto remote = schedule_.best_remote(sample); remote.has_value()) {
      if (ready(remote->peer, remote->storage_class)) {
        remote_cls = remote->storage_class;
        remote_peer = remote->peer;
      } else if (reader >= 0 && reader != remote->peer) {
        // The hashed holder may have no copy yet; the reader may.
        const int cls = schedule_.class_at(reader, sample);
        if (ready(reader, cls)) {
          remote_cls = cls;
          remote_peer = reader;
        }
      }
    }
  }

  // The model cannot see live PFS congestion; it uses the conservative
  // estimate gamma = N (every worker contending), which is what the paper's
  // "minimize gamma" reasoning assumes.
  const int gamma = model_.params().num_workers;
  const FetchChoice choice =
      model_.choose_fetch(size_mb, /*local=*/-1, remote_cls, remote_peer, gamma);

  if (choice.source == FetchSource::kRemote) {
    if (auto bytes = fetch_remote(choice.peer, sample, size_mb)) return std::move(*bytes);
    // A holder that has not made its copy yet: retry the reader, which has
    // held the sample since the fill.
    if (reader >= 0 && reader != rank_ && reader != choice.peer) {
      if (auto bytes = fetch_remote(reader, sample, size_mb)) return std::move(*bytes);
    }
  }

  // Case 0: the PFS always has the data at rest.
  Bytes bytes = source_.read(rank_, sample);
  ++stats_.pfs_fetches;
  stats_.add_mb(stats_.pfs_mb, size_mb);
  return bytes;
}

Bytes FetchRouter::fetch(data::SampleId sample, double size_mb, int epoch) {
  // A planned sample this worker does not read for the fill is copied here,
  // at its first access, whatever cache_on_miss says: no prefetcher will.
  const bool may_cache =
      self_plan_.find(sample).has_value() &&
      (options_.cache_on_miss || schedule_.reader(sample) != rank_);
  for (;;) {
    // Local cache first — the fastest source when present.
    if (auto bytes = load_local(sample); bytes.has_value()) {
      ++stats_.local_fetches;
      stats_.add_mb(stats_.local_mb, size_mb);
      return std::move(*bytes);
    }
    if (!may_cache) break;
    if (try_claim(sample)) {
      // This thread materializes the sample for everyone.
      Bytes bytes = fetch_from_source(sample, size_mb, epoch);
      finish_claim(sample, bytes);
      return bytes;
    }
    // Someone else (class prefetcher or a sibling staging thread) is
    // fetching it right now; wait and serve it from the local cache —
    // planned samples are materialized at most once per worker.
    wait_if_inflight(sample);
  }
  return fetch_from_source(sample, size_mb, epoch);
}

bool FetchRouter::prefetch_planned(data::SampleId sample, double size_mb) {
  if (!try_claim(sample)) return false;
  Bytes bytes = fetch_from_source(sample, size_mb, /*epoch=*/0);
  finish_claim(sample, bytes);
  return true;
}

}  // namespace nopfs::core
