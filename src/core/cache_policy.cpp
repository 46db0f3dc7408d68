#include "core/cache_policy.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/wire.hpp"

namespace nopfs::core {

std::optional<int> CachePlan::find(data::SampleId sample) const {
  if (sample >= class_of.size() || class_of[sample] < 0) return std::nullopt;
  return class_of[sample];
}

void CachePlan::add(data::SampleId sample, int cls, double size_mb) {
  const auto c = static_cast<std::size_t>(cls);
  if (c >= per_class.size()) per_class.resize(c + 1);
  if (sample >= class_of.size()) class_of.resize(sample + 1, -1);
  per_class[c].samples.push_back(sample);
  per_class[c].planned_mb += size_mb;
  class_of[sample] = cls;
}

std::size_t CachePlan::total_samples() const {
  std::size_t total = 0;
  for (const auto& class_plan : per_class) total += class_plan.samples.size();
  return total;
}

CachePlan compute_cache_plan(const AccessStreamGenerator& gen, int rank,
                             const data::Dataset& dataset,
                             const tiers::NodeParams& node) {
  const std::uint64_t f = gen.config().num_samples;

  // One walk of R: per sample, the rank key 2 * frequency + (consumed in
  // epoch 0), 0 = never accessed; and the distinct samples in first-access
  // order.  A sample is consumed at most once per epoch, so one consumed in
  // epoch 0 is first accessed there.
  std::vector<std::uint32_t> key(f, 0);
  std::vector<data::SampleId> first_seen;
  std::uint32_t max_key = 0;
  gen.for_each_access(rank, [&](const Access& access) {
    std::uint32_t& k = key[access.sample];
    if (k == 0) {
      first_seen.push_back(access.sample);
      if (access.epoch == 0) k = 1;
    }
    k += 2;
    max_key = std::max(max_key, k);
  });

  // Candidate order by counting sort: hottest key first, ids ascending
  // within a key.
  std::vector<std::uint64_t> next(static_cast<std::size_t>(max_key) + 1, 0);
  for (const data::SampleId sample : first_seen) ++next[key[sample]];
  std::uint64_t begin = 0;
  for (std::size_t k = next.size(); k-- > 1;) {
    const std::uint64_t count = next[k];
    next[k] = begin;
    begin += count;
  }
  std::vector<data::SampleId> candidates(first_seen.size());
  for (data::SampleId sample = 0; sample < f; ++sample) {
    if (key[sample] != 0) candidates[next[key[sample]]++] = sample;
  }

  CachePlan plan;
  plan.per_class.resize(node.classes.size());
  plan.class_of.assign(f, -1);

  // Greedy fill: hottest samples into the fastest class, spill downward.
  std::size_t cls = 0;
  double used_mb = 0.0;
  for (const data::SampleId sample : candidates) {
    const double size = dataset.size_mb(sample);
    while (cls < node.classes.size() &&
           used_mb + size > node.classes[cls].capacity_mb) {
      ++cls;
      used_mb = 0.0;
    }
    if (cls >= node.classes.size()) break;  // local storage D exhausted
    plan.per_class[cls].planned_mb += size;
    plan.class_of[sample] = static_cast<std::int32_t>(cls);
    used_mb += size;
  }

  // Prefetch order within each class = order of first access in R (Rule 1).
  for (const data::SampleId sample : first_seen) {
    const std::int32_t c = plan.class_of[sample];
    if (c >= 0) plan.per_class[static_cast<std::size_t>(c)].samples.push_back(sample);
  }
  return plan;
}

std::vector<std::uint8_t> encode_plan(const CachePlan& plan) {
  // Layout: u32 num_classes, then per class u64 count + count * u64 ids.
  // Byte-explicit little-endian (net/wire.hpp): plans ride the transport's
  // allgather, which with SocketTransport may cross machine boundaries.
  std::vector<std::uint8_t> bytes;
  std::size_t total = sizeof(std::uint32_t);
  for (const auto& class_plan : plan.per_class) {
    total += sizeof(std::uint64_t) * (1 + class_plan.samples.size());
  }
  bytes.reserve(total);
  net::wire::put_u32(bytes, static_cast<std::uint32_t>(plan.per_class.size()));
  for (const auto& class_plan : plan.per_class) {
    net::wire::put_u64(bytes, static_cast<std::uint64_t>(class_plan.samples.size()));
    for (const data::SampleId sample : class_plan.samples) {
      net::wire::put_u64(bytes, sample);
    }
  }
  return bytes;
}

CachePlan decode_plan(const std::vector<std::uint8_t>& bytes, std::uint64_t num_samples) {
  // Every count comes off the wire, so each is bounded by the bytes that
  // remain before it sizes anything: a class needs at least its u64 count,
  // a sample its u64 id.
  CachePlan plan;
  net::wire::Reader reader(bytes);
  plan.per_class.resize(reader.count(sizeof(std::uint64_t)));
  plan.class_of.assign(num_samples, -1);
  for (std::size_t c = 0; c < plan.per_class.size(); ++c) {
    const std::uint64_t count = reader.u64();
    if (count > reader.remaining() / sizeof(std::uint64_t)) {
      throw std::runtime_error("decode_plan: sample count exceeds the encoding");
    }
    auto& samples = plan.per_class[c].samples;
    samples.resize(count);
    for (auto& sample : samples) {
      sample = reader.u64();
      if (sample >= num_samples) {
        throw std::runtime_error("decode_plan: sample id outside the dataset");
      }
      if (plan.class_of[sample] >= 0) {
        throw std::runtime_error("decode_plan: sample planned twice");
      }
      plan.class_of[sample] = static_cast<std::int32_t>(c);
    }
  }
  if (reader.remaining() != 0) {
    throw std::runtime_error("decode_plan: trailing bytes after the plan");
  }
  return plan;
}

}  // namespace nopfs::core
