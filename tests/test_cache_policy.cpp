// Tests for the frequency-ordered cache plans, their wire codec, and the
// cluster-wide holder lookups of the fill schedule (paper Sec. 5.1).

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <stdexcept>

#include "core/cache_policy.hpp"
#include "core/fetch_router.hpp"
#include "net/wire.hpp"
#include "util/units.hpp"

namespace nopfs::core {
namespace {

StreamConfig make_config(std::uint64_t f, int n, int e, std::uint64_t b) {
  StreamConfig config;
  config.seed = 11;
  config.num_samples = f;
  config.num_workers = n;
  config.num_epochs = e;
  config.global_batch = b;
  return config;
}

tiers::NodeParams node_with(double ram_mb, double ssd_mb) {
  tiers::NodeParams node;
  tiers::StorageClassParams ram;
  ram.name = "ram";
  ram.capacity_mb = ram_mb;
  ram.prefetch_threads = 2;
  ram.read_mbps = util::ThroughputCurve({{0, 0}, {2, 4000}});
  ram.write_mbps = ram.read_mbps;
  node.classes.push_back(ram);
  if (ssd_mb > 0.0) {
    tiers::StorageClassParams ssd = ram;
    ssd.name = "ssd";
    ssd.capacity_mb = ssd_mb;
    ssd.read_mbps = util::ThroughputCurve({{0, 0}, {2, 400}});
    ssd.write_mbps = ssd.read_mbps;
    node.classes.push_back(ssd);
  }
  return node;
}

data::Dataset uniform_dataset(std::uint64_t f, float mb_each) {
  return data::Dataset("uniform", std::vector<float>(f, mb_each));
}

TEST(CachePlan, CapacityNeverExceeded) {
  const AccessStreamGenerator gen(make_config(1000, 4, 8, 40));
  const auto dataset = uniform_dataset(1000, 1.0f);
  const auto node = node_with(50.0, 100.0);
  const CachePlan plan = compute_cache_plan(gen, 0, dataset, node);
  ASSERT_EQ(plan.per_class.size(), 2u);
  EXPECT_LE(plan.per_class[0].planned_mb, 50.0);
  EXPECT_LE(plan.per_class[1].planned_mb, 100.0);
  EXPECT_EQ(plan.per_class[0].samples.size(), 50u);  // 1 MB samples
  EXPECT_EQ(plan.per_class[1].samples.size(), 100u);
}

TEST(CachePlan, HotSamplesGoToFastClass) {
  const AccessStreamGenerator gen(make_config(200, 2, 16, 20));
  const auto dataset = uniform_dataset(200, 1.0f);
  const auto node = node_with(20.0, 60.0);
  const CachePlan plan = compute_cache_plan(gen, 0, dataset, node);
  const FrequencyMap freqs = count_worker_frequencies(gen, 0);
  // The minimum frequency in RAM must be >= the maximum in SSD.
  std::uint32_t min_ram = 0xffffffff;
  for (const auto sample : plan.per_class[0].samples) {
    min_ram = std::min(min_ram, freqs.at(sample));
  }
  std::uint32_t max_ssd = 0;
  for (const auto sample : plan.per_class[1].samples) {
    max_ssd = std::max(max_ssd, freqs.at(sample));
  }
  EXPECT_GE(min_ram, max_ssd);
}

TEST(CachePlan, OnlyAccessedSamplesPlanned) {
  const AccessStreamGenerator gen(make_config(1000, 4, 2, 40));
  const auto dataset = uniform_dataset(1000, 0.001f);
  const auto node = node_with(10'000.0, 0.0);
  const CachePlan plan = compute_cache_plan(gen, 3, dataset, node);
  const FrequencyMap freqs = count_worker_frequencies(gen, 3);
  EXPECT_EQ(plan.total_samples(), freqs.size());  // capacity ample
  for (const auto& class_plan : plan.per_class) {
    for (const auto sample : class_plan.samples) EXPECT_TRUE(freqs.contains(sample));
  }
}

TEST(CachePlan, PrefetchOrderIsFirstAccessOrder) {
  const AccessStreamGenerator gen(make_config(400, 2, 4, 40));
  const auto dataset = uniform_dataset(400, 0.01f);
  const auto node = node_with(100.0, 0.0);
  const CachePlan plan = compute_cache_plan(gen, 0, dataset, node);
  // Record each sample's first-access position.
  std::unordered_map<data::SampleId, std::uint64_t> first;
  gen.for_each_access(0, [&](const Access& access) {
    first.try_emplace(access.sample, access.position);
  });
  for (const auto& class_plan : plan.per_class) {
    for (std::size_t i = 1; i < class_plan.samples.size(); ++i) {
      EXPECT_LT(first.at(class_plan.samples[i - 1]), first.at(class_plan.samples[i]));
    }
  }
}

TEST(CachePlan, FindReportsClass) {
  const AccessStreamGenerator gen(make_config(100, 2, 2, 10));
  const auto dataset = uniform_dataset(100, 1.0f);
  const CachePlan plan = compute_cache_plan(gen, 0, dataset, node_with(10.0, 20.0));
  for (std::size_t c = 0; c < plan.per_class.size(); ++c) {
    for (const auto sample : plan.per_class[c].samples) {
      ASSERT_TRUE(plan.find(sample).has_value());
      EXPECT_EQ(*plan.find(sample), static_cast<int>(c));
    }
  }
  EXPECT_FALSE(plan.find(99'999).has_value());
}

TEST(CachePlan, EncodeDecodeRoundTrip) {
  const AccessStreamGenerator gen(make_config(300, 3, 3, 30));
  const auto dataset = uniform_dataset(300, 0.5f);
  const CachePlan plan = compute_cache_plan(gen, 1, dataset, node_with(20.0, 30.0));
  const CachePlan decoded = decode_plan(encode_plan(plan), 300);
  ASSERT_EQ(decoded.per_class.size(), plan.per_class.size());
  for (std::size_t c = 0; c < plan.per_class.size(); ++c) {
    EXPECT_EQ(decoded.per_class[c].samples, plan.per_class[c].samples);
  }
  EXPECT_EQ(decoded.class_of, plan.class_of);
}

TEST(CachePlan, DecodeRejectsTruncated) {
  const AccessStreamGenerator gen(make_config(100, 2, 2, 10));
  const auto dataset = uniform_dataset(100, 0.5f);
  const CachePlan plan = compute_cache_plan(gen, 0, dataset, node_with(20.0, 0.0));
  auto bytes = encode_plan(plan);
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW((void)decode_plan(bytes, 100), std::runtime_error);
}

TEST(CachePlan, DecodeRejectsOversizedCounts) {
  // A class count or sample count the remaining bytes cannot hold is
  // rejected before it sizes anything.
  std::vector<std::uint8_t> classes;
  net::wire::put_u32(classes, std::numeric_limits<std::uint32_t>::max());
  EXPECT_THROW((void)decode_plan(classes, 100), std::runtime_error);
  std::vector<std::uint8_t> samples;
  net::wire::put_u32(samples, 1);
  net::wire::put_u64(samples, std::uint64_t{1} << 62);
  net::wire::put_u64(samples, 3);
  EXPECT_THROW((void)decode_plan(samples, 100), std::runtime_error);
}

TEST(CachePlan, DecodeRejectsSamplesOutsideTheDataset) {
  CachePlan plan;
  plan.add(3, 0);
  plan.add(100, 0);
  EXPECT_NO_THROW((void)decode_plan(encode_plan(plan), 101));
  EXPECT_THROW((void)decode_plan(encode_plan(plan), 100), std::runtime_error);
  plan.add(3, 1);  // one sample in two classes
  EXPECT_THROW((void)decode_plan(encode_plan(plan), 101), std::runtime_error);
  auto trailing = encode_plan(CachePlan{});
  trailing.push_back(0);
  EXPECT_THROW((void)decode_plan(trailing, 101), std::runtime_error);
}

/// The shape of perfbench's threaded-pfs-bound workload: 960 samples of
/// 0.2 +- 0.05 MB, 4 ranks caching 8 MB RAM + 16 MB SSD each, 4 epochs,
/// batch 2 per rank.  The four caches hold about half the dataset.
struct PfsBoundShape {
  explicit PfsBoundShape(std::uint64_t seed)
      : generator(config(seed)),
        dataset(data::Dataset::synthetic(
            data::DatasetSpec{"pfs-bound", 960, 0.2, 0.05, 1}, seed)) {
    for (int r = 0; r < 4; ++r) {
      plans.push_back(compute_cache_plan(generator, r, dataset, node_with(8.0, 16.0)));
    }
  }

  static StreamConfig config(std::uint64_t seed) {
    StreamConfig c = make_config(960, 4, 4, 8);
    c.seed = seed * 7919 + 1;
    return c;
  }

  AccessStreamGenerator generator;
  data::Dataset dataset;
  std::vector<CachePlan> plans;
};

TEST(CachePlan, TiesFillTheCachesWithDistinctSamples) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    const PfsBoundShape shape(seed);
    std::set<data::SampleId> distinct;
    double summed_mb = 0.0;
    for (const auto& plan : shape.plans) {
      for (const auto& class_plan : plan.per_class) {
        summed_mb += class_plan.planned_mb;
        distinct.insert(class_plan.samples.begin(), class_plan.samples.end());
      }
    }
    double distinct_mb = 0.0;
    for (const auto sample : distinct) distinct_mb += shape.dataset.size_mb(sample);
    ASSERT_GT(summed_mb, 80.0) << "seed " << seed;
    EXPECT_GE(distinct_mb, 0.97 * summed_mb) << "seed " << seed;
  }
}

TEST(CachePlan, EpochZeroConsumersPlanTheirSamples) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    const PfsBoundShape shape(seed);
    const auto order = shape.generator.epoch_order(0);
    std::size_t planned = 0;
    std::size_t by_consumer = 0;
    for (std::uint64_t g = 0; g < order.size(); ++g) {
      const data::SampleId s = order[g];
      bool any = false;
      for (const auto& plan : shape.plans) any = any || plan.find(s).has_value();
      if (!any) continue;
      ++planned;
      const int consumer = shape.generator.owner_of_position(g);
      const auto& plan = shape.plans[static_cast<std::size_t>(consumer)];
      if (plan.find(s).has_value()) ++by_consumer;
    }
    ASSERT_GT(planned, 300u) << "seed " << seed;
    EXPECT_GE(static_cast<double>(by_consumer), 0.85 * static_cast<double>(planned))
        << "seed " << seed;
  }
}

/// A generator for hand-built plans: `n` workers over `f` samples.
AccessStreamGenerator small_generator(std::uint64_t f, int n) {
  return AccessStreamGenerator(make_config(f, n, 1, static_cast<std::uint64_t>(n)));
}

TEST(FillScheduleHolders, HoldersAndRemoteLookup) {
  const int n = 4;
  const AccessStreamGenerator gen(make_config(500, n, 6, 40));
  const auto dataset = uniform_dataset(500, 0.1f);
  const auto node = node_with(30.0, 0.0);
  std::vector<CachePlan> plans;
  for (int w = 0; w < n; ++w) {
    plans.push_back(compute_cache_plan(gen, w, dataset, node));
  }
  const FillSchedule index(plans, gen, /*self_rank=*/0);
  for (const auto sample : plans[1].per_class[0].samples) {
    EXPECT_TRUE(index.cached_anywhere(sample));
    const auto holders = index.holders(sample);
    const bool has_worker1 = std::any_of(
        holders.begin(), holders.end(), [](const auto& h) { return h.rank == 1; });
    EXPECT_TRUE(has_worker1);
  }
}

TEST(FillScheduleHolders, BestRemoteExcludesSelf) {
  CachePlan mine;
  mine.add(7, 0);
  std::vector<CachePlan> plans = {mine, CachePlan{}};
  plans[1].per_class.resize(1);
  const FillSchedule index(plans, small_generator(9, 2), /*self_rank=*/0);
  // Only self caches sample 7 -> no remote source.
  EXPECT_FALSE(index.best_remote(7).has_value());
  EXPECT_FALSE(index.best_remote(8).has_value());
}

TEST(FillScheduleHolders, BestRemotePrefersFasterClass) {
  CachePlan slow;  // worker 0: class 1
  slow.add(5, 1);
  CachePlan fast;  // worker 1: class 0
  fast.per_class.resize(2);
  fast.add(5, 0);
  const FillSchedule index({slow, fast, CachePlan{}}, small_generator(6, 3),
                           /*self_rank=*/2);
  const auto remote = index.best_remote(5);
  ASSERT_TRUE(remote.has_value());
  EXPECT_EQ(remote->peer, 1);
  EXPECT_EQ(remote->storage_class, 0);
}

TEST(FillScheduleHolders, LoadSpreadAcrossEqualHolders) {
  // Many samples held by the same two peers in the same class: different
  // samples should hash to different peers.
  CachePlan a;
  CachePlan b;
  for (data::SampleId k = 0; k < 64; ++k) {
    a.add(k, 0);
    b.add(k, 0);
  }
  const FillSchedule index({a, b, CachePlan{}}, small_generator(64, 3), /*self_rank=*/2);
  std::set<int> peers;
  for (data::SampleId k = 0; k < 64; ++k) {
    peers.insert(index.best_remote(k)->peer);
  }
  EXPECT_EQ(peers.size(), 2u);  // both peers serve some share
}

}  // namespace
}  // namespace nopfs::core
