#pragma once
// The NoPFS distributed caching policy (paper Sec. 5.1).
//
// Each worker assigns the samples it accesses most frequently (its own r_k,
// exact thanks to clairvoyance) to its fastest storage class, spilling to
// slower classes until the dataset is fully cached or local capacity D is
// exhausted.  Lemma 1 guarantees complementarity: a sample one worker
// accesses rarely is accessed often by another, so collectively the cluster
// caches the dataset with the hot copies in the fast tiers of exactly the
// workers that want them.
//
// Equal frequencies are common (X ~ Binomial(E, 1/N) takes few values), so
// the tie-break decides what the last slots of every cache hold.  A worker
// ranks the samples it consumes in epoch 0 first among equals.  Every sample
// has exactly one epoch-0 consumer and every worker knows it, so ties split
// across workers and the caches fill with distinct samples before any
// sample is held twice (DESIGN.md Sec. 12, "plan tie-break").
//
// Prefetch *order* within a class follows the access stream R (optimal
// prefetching, Rule 1): samples are fetched in order of their first access.
//
// Every worker's replica of "who caches what" is core::FillSchedule
// (core/fetch_router.hpp), built from an allgather of these plans.

#include <cstdint>
#include <optional>
#include <vector>

#include "core/access_stream.hpp"
#include "core/frequency.hpp"
#include "core/perf_model.hpp"
#include "data/dataset.hpp"

namespace nopfs::core {

/// The samples one worker will cache in one storage class.
struct ClassPlan {
  /// Samples in prefetch order (ascending first access in R).
  std::vector<data::SampleId> samples;
  double planned_mb = 0.0;  ///< total size, <= class capacity
};

/// A worker's complete cache plan.
struct CachePlan {
  std::vector<ClassPlan> per_class;  ///< index = storage class (0-based = class 1..J)
  /// Per sample id: the class caching it, -1 when not planned.  Ids past
  /// the end are not planned.
  std::vector<std::int32_t> class_of;

  /// Storage class caching `sample`, or nullopt.
  [[nodiscard]] std::optional<int> find(data::SampleId sample) const;

  /// Appends `sample` to class `cls`'s prefetch order (growing per_class and
  /// class_of as needed); `sample` must not be planned yet.
  void add(data::SampleId sample, int cls, double size_mb = 0.0);

  [[nodiscard]] std::size_t total_samples() const;
};

/// Computes worker `rank`'s cache plan: fill of classes 1..J (fastest
/// first) bounded by capacity, in order of frequency, then "consumed by
/// `rank` in epoch 0", then sample id; prefetch order by first access.
[[nodiscard]] CachePlan compute_cache_plan(const AccessStreamGenerator& gen, int rank,
                                           const data::Dataset& dataset,
                                           const tiers::NodeParams& node);

/// Compact wire encoding of a plan for the setup allgather.
[[nodiscard]] std::vector<std::uint8_t> encode_plan(const CachePlan& plan);

/// Decodes a peer's plan over a dataset of `num_samples` samples.  Throws
/// std::runtime_error on a truncated or oversized encoding, trailing bytes,
/// a sample id >= `num_samples`, or a sample planned twice.
[[nodiscard]] CachePlan decode_plan(const std::vector<std::uint8_t>& bytes,
                                    std::uint64_t num_samples);

}  // namespace nopfs::core
