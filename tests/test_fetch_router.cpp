// Tests for runtime fetch-source selection: local hits, watermark-gated
// remote fetches, false-positive fallback, and cache-on-miss smoothing
// (paper Secs. 5.1, 5.2.2).

#include <gtest/gtest.h>

#include <atomic>

#include "core/fetch_router.hpp"
#include "data/materialize.hpp"
#include "net/sim_transport.hpp"
#include "util/units.hpp"

namespace nopfs::core {
namespace {

struct RouterFixture {
  RouterFixture() : dataset("fix", std::vector<float>(64, 0.001f)), source(dataset, nullptr) {
    // System: one RAM class; make_router sets the world size.
    system.node.network_mbps = 1000.0;
    system.node.compute_mbps = 50.0;
    system.node.preprocess_mbps = 500.0;
    system.node.staging.prefetch_threads = 2;
    system.node.staging.read_mbps = util::ThroughputCurve({{0, 0}, {2, 4000}});
    system.node.staging.write_mbps = system.node.staging.read_mbps;
    tiers::StorageClassParams ram;
    ram.name = "ram";
    ram.capacity_mb = 100.0;
    ram.prefetch_threads = 2;
    ram.read_mbps = util::ThroughputCurve({{0, 0}, {2, 4000}});
    ram.write_mbps = ram.read_mbps;
    system.node.classes = {ram};
  }

  /// Builds the router for rank 0 of a world of `plans.size()` workers.
  std::unique_ptr<FetchRouter> make_router(std::vector<CachePlan> plans,
                                           RouterOptions options,
                                           net::Transport* transport) {
    system.num_workers = static_cast<int>(plans.size());
    model = std::make_unique<PerfModel>(system);
    self_plan = plans[0];
    generator =
        std::make_unique<AccessStreamGenerator>(stream_config(system.num_workers));
    schedule = FillSchedule(plans, *generator, 0);
    metadata = std::make_unique<MetadataStore>(1);
    backends.clear();
    backends.push_back(std::make_unique<MemoryBackend>(100.0));
    return std::make_unique<FetchRouter>(0, *model, self_plan, schedule,
                                         *metadata, backends, source, transport,
                                         nullptr, options);
  }

  static StreamConfig stream_config(int workers) {
    StreamConfig config;
    config.seed = 5;
    config.num_samples = 64;
    config.num_workers = workers;
    config.num_epochs = 3;
    config.global_batch = static_cast<std::uint64_t>(workers);
    return config;
  }

  static CachePlan plan_with(std::initializer_list<data::SampleId> samples) {
    CachePlan plan;
    plan.per_class.resize(1);
    for (const auto sample : samples) plan.add(sample, 0);
    return plan;
  }

  tiers::SystemParams system;
  data::Dataset dataset;
  SyntheticPfsSource source;
  std::unique_ptr<PerfModel> model;
  CachePlan self_plan;
  std::unique_ptr<AccessStreamGenerator> generator;
  FillSchedule schedule;
  std::unique_ptr<MetadataStore> metadata;
  std::vector<std::unique_ptr<StorageBackend>> backends;
};

TEST(FetchRouter, PfsFallbackWhenNothingCached) {
  RouterFixture fix;
  auto router = fix.make_router({RouterFixture::plan_with({}), RouterFixture::plan_with({})},
                                RouterOptions{}, nullptr);
  const Bytes bytes = router->fetch(5, fix.dataset.size_mb(5), 0);
  EXPECT_TRUE(data::verify_sample_content(5, bytes));
  EXPECT_EQ(router->stats().pfs_fetches.load(), 1u);
}

TEST(FetchRouter, LocalHitAfterCached) {
  RouterFixture fix;
  auto router = fix.make_router(
      {RouterFixture::plan_with({5}), RouterFixture::plan_with({})}, RouterOptions{},
      nullptr);
  // First fetch: PFS + cache-on-miss into the planned class.
  (void)router->fetch(5, fix.dataset.size_mb(5), 0);
  EXPECT_EQ(router->stats().pfs_fetches.load(), 1u);
  EXPECT_TRUE(fix.metadata->contains(5));
  // Second fetch: local.
  const Bytes bytes = router->fetch(5, fix.dataset.size_mb(5), 0);
  EXPECT_TRUE(data::verify_sample_content(5, bytes));
  EXPECT_EQ(router->stats().local_fetches.load(), 1u);
}

TEST(FetchRouter, CacheOnMissDisabled) {
  RouterFixture fix;
  RouterOptions options;
  options.cache_on_miss = false;
  auto router = fix.make_router(
      {RouterFixture::plan_with({5}), RouterFixture::plan_with({})}, options, nullptr);
  (void)router->fetch(5, fix.dataset.size_mb(5), 0);
  EXPECT_FALSE(fix.metadata->contains(5));
}

TEST(FetchRouter, UnplannedSampleNotCached) {
  RouterFixture fix;
  auto router = fix.make_router(
      {RouterFixture::plan_with({1}), RouterFixture::plan_with({})}, RouterOptions{},
      nullptr);
  (void)router->fetch(9, fix.dataset.size_mb(9), 0);
  EXPECT_FALSE(fix.metadata->contains(9));
}

TEST(FetchRouter, RemoteFetchThroughTransport) {
  RouterFixture fix;
  auto transports = net::make_sim_transports(2);
  // Peer 1 serves sample 7.
  Bytes payload(util::mb_to_bytes(fix.dataset.size_mb(7)));
  data::fill_sample_content(7, payload);
  transports[1]->set_serve_handler(
      [payload](std::uint64_t id) -> std::optional<net::Bytes> {
        if (id == 7) return payload;
        return std::nullopt;
      });

  auto router = fix.make_router(
      {RouterFixture::plan_with({}), RouterFixture::plan_with({7})}, RouterOptions{},
      transports[0].get());
  // Watermark heuristic: sample 7 sits at position 0 of the peer's fill
  // order; our class-0 progress must exceed 0 for the remote to count as
  // ready in epoch 0.
  router->note_class_progress(0);
  const Bytes bytes = router->fetch(7, fix.dataset.size_mb(7), 0);
  EXPECT_TRUE(data::verify_sample_content(7, bytes));
  EXPECT_EQ(router->stats().remote_fetches.load(), 1u);
  EXPECT_EQ(router->stats().pfs_fetches.load(), 0u);
}

TEST(FetchRouter, WatermarkGatesRemote) {
  RouterFixture fix;
  auto transports = net::make_sim_transports(2);
  transports[1]->set_serve_handler(
      [](std::uint64_t) -> std::optional<net::Bytes> { return net::Bytes{1}; });
  auto router = fix.make_router(
      {RouterFixture::plan_with({}), RouterFixture::plan_with({7})}, RouterOptions{},
      transports[0].get());
  // No local progress yet -> heuristic says peer has not prefetched -> PFS.
  (void)router->fetch(7, fix.dataset.size_mb(7), 0);
  EXPECT_EQ(router->stats().pfs_fetches.load(), 1u);
  EXPECT_EQ(router->stats().remote_fetches.load(), 0u);
}

TEST(FetchRouter, RemoteMissFallsBackToPfs) {
  RouterFixture fix;
  auto transports = net::make_sim_transports(2);
  // Peer claims nothing despite the plan (prefetcher hasn't fetched yet):
  // the heuristic's false positive.
  transports[1]->set_serve_handler(
      [](std::uint64_t) -> std::optional<net::Bytes> { return std::nullopt; });
  auto router = fix.make_router(
      {RouterFixture::plan_with({}), RouterFixture::plan_with({7})}, RouterOptions{},
      transports[0].get());
  router->note_class_progress(0);
  const Bytes bytes = router->fetch(7, fix.dataset.size_mb(7), 0);
  EXPECT_TRUE(data::verify_sample_content(7, bytes));
  EXPECT_EQ(router->stats().remote_misses.load(), 1u);
  EXPECT_EQ(router->stats().pfs_fetches.load(), 1u);
}

TEST(FetchRouter, RemoteDisabledByOption) {
  RouterFixture fix;
  auto transports = net::make_sim_transports(2);
  transports[1]->set_serve_handler(
      [](std::uint64_t) -> std::optional<net::Bytes> { return net::Bytes{1}; });
  RouterOptions options;
  options.use_remote = false;
  auto router = fix.make_router(
      {RouterFixture::plan_with({}), RouterFixture::plan_with({7})}, options,
      transports[0].get());
  router->note_class_progress(0);
  (void)router->fetch(7, fix.dataset.size_mb(7), 0);
  EXPECT_EQ(router->stats().remote_fetches.load(), 0u);
  EXPECT_EQ(router->stats().pfs_fetches.load(), 1u);
}

TEST(FetchRouter, ReaderIsReadyFromEpochOne) {
  RouterFixture fix;
  auto transports = net::make_sim_transports(2);
  Bytes payload(util::mb_to_bytes(fix.dataset.size_mb(7)));
  data::fill_sample_content(7, payload);
  transports[1]->set_serve_handler(
      [payload](std::uint64_t) -> std::optional<net::Bytes> { return payload; });
  auto router = fix.make_router(
      {RouterFixture::plan_with({}), RouterFixture::plan_with({7})}, RouterOptions{},
      transports[0].get());
  // No local fill progress, but the fill epoch is over.
  (void)router->fetch(7, fix.dataset.size_mb(7), 1);
  EXPECT_EQ(router->stats().remote_fetches.load(), 1u);
  EXPECT_EQ(router->stats().pfs_fetches.load(), 0u);
}

TEST(FetchRouter, DesignatedReaderGoesToThePfs) {
  RouterFixture fix;
  auto transports = net::make_sim_transports(2);
  transports[1]->set_serve_handler(
      [](std::uint64_t) -> std::optional<net::Bytes> { return net::Bytes{1}; });
  // Both workers plan every sample; sample k's reader is its epoch-0
  // consumer.  Find one that rank 0 reads.
  std::vector<data::SampleId> all(64);
  for (data::SampleId k = 0; k < 64; ++k) all[k] = k;
  CachePlan both;
  for (const auto k : all) both.add(k, 0);
  RouterOptions options;
  options.use_watermark_heuristic = false;
  auto router = fix.make_router({both, both}, options, transports[0].get());
  data::SampleId mine = 64;
  for (data::SampleId k = 0; k < 64 && mine == 64; ++k) {
    if (fix.schedule.reader(k) == 0) mine = k;
  }
  ASSERT_LT(mine, 64u);
  EXPECT_TRUE(router->prefetch_planned(mine, fix.dataset.size_mb(mine)));
  EXPECT_EQ(router->stats().pfs_fetches.load(), 1u);
  EXPECT_EQ(router->stats().remote_fetches.load(), 0u);
  EXPECT_EQ(router->stats().remote_misses.load(), 0u);
}

/// Three workers: rank 0 plans nothing, ranks 1 and 2 plan every sample.
/// Returns a sample whose hashed remote holder (FillSchedule::best_remote
/// from rank 0) is not its designated reader, so that holder copies the
/// sample lazily in a later epoch.
data::SampleId lazy_hashed_sample(std::vector<CachePlan>& plans) {
  std::vector<data::SampleId> all(64);
  for (data::SampleId k = 0; k < 64; ++k) all[k] = k;
  CachePlan both;
  for (const auto k : all) both.add(k, 0);
  plans = {RouterFixture::plan_with({}), both, both};
  const AccessStreamGenerator generator(RouterFixture::stream_config(3));
  const FillSchedule schedule(plans, generator, 0);
  for (data::SampleId k = 0; k < 64; ++k) {
    if (schedule.best_remote(k)->peer != schedule.reader(k)) return k;
  }
  ADD_FAILURE() << "no sample with a lazy hashed holder";
  return 0;
}

TEST(FetchRouter, MissAtHashedHolderRetriesTheReader) {
  RouterFixture fix;
  std::vector<CachePlan> plans;
  const data::SampleId s = lazy_hashed_sample(plans);
  auto transports = net::make_sim_transports(3);
  Bytes payload(util::mb_to_bytes(fix.dataset.size_mb(s)));
  data::fill_sample_content(s, payload);
  RouterOptions options;
  options.use_watermark_heuristic = false;  // always try the hashed holder
  auto router = fix.make_router(plans, options, transports[0].get());
  const int reader = fix.schedule.reader(s);
  for (int peer = 1; peer <= 2; ++peer) {
    transports[static_cast<std::size_t>(peer)]->set_serve_handler(
        [payload, serve = peer == reader](std::uint64_t) -> std::optional<net::Bytes> {
          if (serve) return payload;
          return std::nullopt;
        });
  }
  const Bytes bytes = router->fetch(s, fix.dataset.size_mb(s), 1);
  EXPECT_TRUE(data::verify_sample_content(s, bytes));
  EXPECT_EQ(router->stats().remote_misses.load(), 1u);
  EXPECT_EQ(router->stats().remote_fetches.load(), 1u);
  EXPECT_EQ(router->stats().pfs_fetches.load(), 0u);
}

TEST(FetchRouter, UncopiedHashedHolderIsSkippedForTheReader) {
  RouterFixture fix;
  std::vector<CachePlan> plans;
  const data::SampleId s = lazy_hashed_sample(plans);
  auto transports = net::make_sim_transports(3);
  Bytes payload(util::mb_to_bytes(fix.dataset.size_mb(s)));
  data::fill_sample_content(s, payload);
  auto router = fix.make_router(plans, RouterOptions{}, transports[0].get());
  const int reader = fix.schedule.reader(s);
  const int lazy = 3 - reader;
  std::atomic<int> lazy_calls{0};
  transports[static_cast<std::size_t>(reader)]->set_serve_handler(
      [payload](std::uint64_t) -> std::optional<net::Bytes> { return payload; });
  transports[static_cast<std::size_t>(lazy)]->set_serve_handler(
      [&lazy_calls](std::uint64_t) -> std::optional<net::Bytes> {
        ++lazy_calls;
        return std::nullopt;
      });
  // An access in the epoch of the lazy holder's first access: its copy is
  // not there yet, so the heuristic sends the fetch to the reader.
  const int epoch = fix.schedule.copy_epoch(lazy, s);
  ASSERT_GE(epoch, 1);
  ASSERT_LT(epoch, 3);
  (void)router->fetch(s, fix.dataset.size_mb(s), epoch);
  EXPECT_EQ(lazy_calls.load(), 0);
  EXPECT_EQ(router->stats().remote_fetches.load(), 1u);
  EXPECT_EQ(router->stats().remote_misses.load(), 0u);
}

TEST(FetchRouter, LoadLocalServesOnlyCached) {
  RouterFixture fix;
  auto router = fix.make_router(
      {RouterFixture::plan_with({3}), RouterFixture::plan_with({})}, RouterOptions{},
      nullptr);
  EXPECT_FALSE(router->load_local(3).has_value());
  (void)router->fetch(3, fix.dataset.size_mb(3), 0);  // caches it
  const auto bytes = router->load_local(3);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_TRUE(data::verify_sample_content(3, *bytes));
}

TEST(FetchRouter, ProgressCounters) {
  RouterFixture fix;
  auto router = fix.make_router(
      {RouterFixture::plan_with({}), RouterFixture::plan_with({})}, RouterOptions{},
      nullptr);
  EXPECT_EQ(router->class_progress(0), 0u);
  router->note_class_progress(0);
  router->note_class_progress(0);
  EXPECT_EQ(router->class_progress(0), 2u);
}

}  // namespace
}  // namespace nopfs::core
