// Unit tests for core::FillSchedule, the clairvoyant fill schedule: one
// designated PFS reader per planned sample (its epoch-0 consumer when that
// rank plans it, else a hashed holder), epoch-0 need order for the class
// prefetchers, first-access dating of every other holder's copy, and the
// readiness heuristic of paper Sec. 5.2.2 applied to that schedule.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/cache_policy.hpp"
#include "core/fetch_router.hpp"
#include "util/units.hpp"

namespace nopfs::core {
namespace {

constexpr int kRanks = 4;

StreamConfig make_config(std::uint64_t f, int n, int e, std::uint64_t b) {
  StreamConfig config;
  config.seed = 23;
  config.num_samples = f;
  config.num_workers = n;
  config.num_epochs = e;
  config.global_batch = b;
  return config;
}

/// One RAM and one SSD class per node; the two together hold
/// `fraction` of a dataset of `f` 1 MB samples.
tiers::NodeParams node_holding(std::uint64_t f, double fraction) {
  tiers::NodeParams node;
  tiers::StorageClassParams ram;
  ram.name = "ram";
  ram.capacity_mb = static_cast<double>(f) * fraction / 3.0;
  ram.read_mbps = util::ThroughputCurve({{0, 0}, {2, 4000}});
  ram.write_mbps = ram.read_mbps;
  tiers::StorageClassParams ssd = ram;
  ssd.name = "ssd";
  ssd.capacity_mb = static_cast<double>(f) * fraction * 2.0 / 3.0;
  node.classes = {ram, ssd};
  return node;
}

/// A 4-rank job in which each node caches `fraction` of the dataset; by
/// default half, so the caches hold the dataset twice over.
struct Shape {
  explicit Shape(double fraction = 0.5)
      : generator(make_config(800, kRanks, 5, 16)),
        dataset("uniform", std::vector<float>(800, 1.0f)) {
    const auto node = node_holding(800, fraction);
    for (int r = 0; r < kRanks; ++r) {
      plans.push_back(compute_cache_plan(generator, r, dataset, node));
    }
  }

  [[nodiscard]] std::uint64_t consumed() const {
    const auto& c = generator.config();
    return std::min<std::uint64_t>(c.num_samples,
                                   c.iterations_per_epoch() * c.global_batch);
  }

  AccessStreamGenerator generator;
  data::Dataset dataset;
  std::vector<CachePlan> plans;
};

TEST(FillSchedule, EveryRankDerivesTheSameReaders) {
  const Shape shape;
  std::vector<FillSchedule> schedules;
  for (int r = 0; r < kRanks; ++r) {
    schedules.emplace_back(shape.plans, shape.generator, r);
  }
  for (data::SampleId s = 0; s < 800; ++s) {
    for (int r = 1; r < kRanks; ++r) {
      ASSERT_EQ(schedules[r].reader(s), schedules[0].reader(s)) << "sample " << s;
      ASSERT_EQ(schedules[r].copy_epoch(r, s), schedules[0].copy_epoch(r, s));
    }
  }
}

TEST(FillSchedule, ReaderIsThePlanningConsumerElseAHolder) {
  const Shape shape;
  const FillSchedule schedule(shape.plans, shape.generator, 0);
  const auto order = shape.generator.epoch_order(0);
  for (std::uint64_t g = 0; g < order.size(); ++g) {
    const data::SampleId s = order[g];
    const int reader = schedule.reader(s);
    bool planned = false;
    for (const auto& plan : shape.plans) planned = planned || plan.find(s).has_value();
    if (!planned) {
      EXPECT_EQ(reader, -1);
      continue;
    }
    ASSERT_GE(reader, 0);
    EXPECT_TRUE(shape.plans[static_cast<std::size_t>(reader)].find(s).has_value());
    const int consumer = shape.generator.owner_of_position(g);
    if (g < shape.consumed() &&
        shape.plans[static_cast<std::size_t>(consumer)].find(s).has_value()) {
      EXPECT_EQ(reader, consumer) << "sample " << s;
    }
  }
}

TEST(FillSchedule, HashedReadsSpreadAcrossHolders) {
  // At half the dataset per node every epoch-0 consumer plans its own
  // samples (the plan ranks them first among equal frequencies), leaving
  // no hashed pick; at a fifth the consumers' rarest samples spill to
  // other holders.
  const Shape shape(0.2);
  const FillSchedule schedule(shape.plans, shape.generator, 0);
  const auto order = shape.generator.epoch_order(0);
  std::vector<int> hashed(kRanks, 0);
  int total = 0;
  for (std::uint64_t g = 0; g < order.size(); ++g) {
    const data::SampleId s = order[g];
    const int reader = schedule.reader(s);
    if (reader < 0) continue;
    const int consumer = shape.generator.owner_of_position(g);
    if (g < shape.consumed() &&
        shape.plans[static_cast<std::size_t>(consumer)].find(s).has_value()) {
      continue;
    }
    ++hashed[static_cast<std::size_t>(reader)];
    ++total;
  }
  ASSERT_GT(total, 40) << "the shape must exercise the hashed pick";
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_LE(hashed[static_cast<std::size_t>(r)], 1.5 * total / kRanks) << "rank " << r;
  }
}

TEST(FillSchedule, FillOrdersPartitionThePlannedSamplesInNeedOrder) {
  const Shape shape;
  const auto order = shape.generator.epoch_order(0);
  std::vector<std::uint64_t> need(order.size());
  for (std::uint64_t g = 0; g < order.size(); ++g) need[order[g]] = g;
  std::multiset<data::SampleId> filled;
  for (int r = 0; r < kRanks; ++r) {
    const FillSchedule schedule(shape.plans, shape.generator, r);
    for (int cls = 0; cls < 2; ++cls) {
      const auto& samples = schedule.fill_order(cls);
      for (std::size_t i = 0; i < samples.size(); ++i) {
        EXPECT_EQ(schedule.reader(samples[i]), r);
        EXPECT_EQ(shape.plans[static_cast<std::size_t>(r)].find(samples[i]), cls);
        if (i > 0) {
          EXPECT_LT(need[samples[i - 1]], need[samples[i]]);
        }
        filled.insert(samples[i]);
      }
    }
    EXPECT_TRUE(schedule.fill_order(2).empty());
    EXPECT_TRUE(schedule.fill_order(-1).empty());
  }
  std::set<data::SampleId> planned;
  for (const auto& plan : shape.plans) {
    for (const auto& class_plan : plan.per_class) {
      planned.insert(class_plan.samples.begin(), class_plan.samples.end());
    }
  }
  EXPECT_EQ(filled.size(), planned.size()) << "each planned sample is read once";
  EXPECT_EQ(std::set<data::SampleId>(filled.begin(), filled.end()), planned);
}

TEST(FillSchedule, OtherHoldersCopyAtTheirFirstAccess) {
  const Shape shape;
  const FillSchedule schedule(shape.plans, shape.generator, 0);
  for (int r = 0; r < kRanks; ++r) {
    const auto& plan = shape.plans[static_cast<std::size_t>(r)];
    std::vector<int> first(800, -1);
    shape.generator.for_each_access(r, [&](const Access& a) {
      if (first[a.sample] < 0) first[a.sample] = a.epoch;
    });
    for (data::SampleId sample = 0; sample < plan.class_of.size(); ++sample) {
      const int cls = plan.class_of[sample];
      if (cls < 0) continue;
      EXPECT_EQ(schedule.class_at(r, sample), cls);
      if (schedule.reader(sample) == r) {
        EXPECT_EQ(schedule.copy_epoch(r, sample), 0);
      } else {
        EXPECT_EQ(schedule.copy_epoch(r, sample), first[sample]);
        EXPECT_GE(schedule.copy_epoch(r, sample), 1) << "a lazy copy falls in epoch >= 1";
      }
    }
  }
  EXPECT_EQ(schedule.copy_epoch(0, 100000), -1);
  EXPECT_EQ(schedule.class_at(kRanks, 0), -1);
}

TEST(FillSchedule, LikelyCachedFollowsTheSchedule) {
  // Two workers, one class each.  Sample `s` is accessed by both and
  // planned by both, so one of them reads it and the other copies it at its
  // first access; sample `t` is planned by worker 0 alone.
  const AccessStreamGenerator generator(make_config(8, 2, 3, 2));
  std::vector<std::vector<bool>> accesses(2, std::vector<bool>(8, false));
  for (int r = 0; r < 2; ++r) {
    generator.for_each_access(r, [&](const Access& a) { accesses[r][a.sample] = true; });
  }
  data::SampleId s = 8;
  for (data::SampleId k = 0; k < 8 && s == 8; ++k) {
    if (accesses[0][k] && accesses[1][k]) s = k;
  }
  ASSERT_LT(s, 8u) << "the seed must have a sample both workers access";
  const data::SampleId t = s == 0 ? 1 : 0;
  std::vector<CachePlan> plans(2);
  plans[0].add(s, 0);
  plans[0].add(t, 0);
  plans[1].add(s, 0);
  const FillSchedule schedule(plans, generator, 0);
  EXPECT_EQ(schedule.reader(t), 0);  // sole holder
  const int reader = schedule.reader(s);
  ASSERT_GE(reader, 0);
  const int other = 1 - reader;
  // The reader: strict progress boundary in epoch 0, always from epoch 1.
  const auto& own = schedule.fill_order(0);
  const auto pos = static_cast<std::uint64_t>(
      reader == 0 ? std::find(own.begin(), own.end(), s) - own.begin() : 0);
  EXPECT_FALSE(schedule.likely_cached(reader, s, pos, 0));
  EXPECT_TRUE(schedule.likely_cached(reader, s, pos + 1, 0));
  EXPECT_TRUE(schedule.likely_cached(reader, s, 0, 1));
  // The other holder: only after the epoch of its first access.
  const int copy = schedule.copy_epoch(other, s);
  ASSERT_GE(copy, 1);
  ASSERT_LT(copy, 3);
  EXPECT_FALSE(schedule.likely_cached(other, s, 1000, copy));
  EXPECT_TRUE(schedule.likely_cached(other, s, 0, copy + 1));
  // Non-holders and unknown samples are never ready.
  EXPECT_FALSE(schedule.likely_cached(1, t, 1000, 2));
  EXPECT_FALSE(schedule.likely_cached(0, 999, 1000, 2));
  EXPECT_FALSE(FillSchedule{}.likely_cached(0, 1, 100, 1));
  EXPECT_EQ(FillSchedule{}.reader(1), -1);
}

TEST(FillSchedule, RejectsSamplesOutsideTheDataset) {
  const AccessStreamGenerator generator(make_config(8, 2, 1, 2));
  std::vector<CachePlan> plans(2);
  plans[1].per_class.resize(1);
  plans[1].per_class[0].samples = {8};
  EXPECT_THROW(FillSchedule(plans, generator, 0), std::invalid_argument);
}

}  // namespace
}  // namespace nopfs::core
