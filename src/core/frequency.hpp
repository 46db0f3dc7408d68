#pragma once
// Access-frequency analysis (paper Sec. 3.1).
//
// Over E epochs, the number of times a fixed worker accesses a fixed sample
// is X ~ Binomial(E, 1/N).  The long tail of that distribution — samples a
// worker accesses far more often than the mean E/N — is what makes
// frequency-aware caching beat first-touch policies: caching those samples
// locally buys the most PFS/remote traffic reduction per byte of capacity.
//
// This module provides the exact per-worker frequency counts from the
// clairvoyant stream, the analytic Binomial tail expectation the paper
// validates against Monte-Carlo simulation (Fig. 3), and the Lemma 1
// complementarity bound.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/access_stream.hpp"
#include "util/stats.hpp"

namespace nopfs::core {

/// Exact access counts of one worker: sample id -> times accessed over the
/// full training run.  Samples the worker never touches are absent.
using FrequencyMap = std::unordered_map<data::SampleId, std::uint32_t>;

/// Counts how often worker `rank` accesses each sample across all epochs.
[[nodiscard]] FrequencyMap count_worker_frequencies(const AccessStreamGenerator& gen,
                                                    int rank);

/// Histogram of a worker's access frequencies over all F samples (samples
/// never accessed count in bin 0) — the Fig. 3 plot.
[[nodiscard]] util::Histogram frequency_histogram(const AccessStreamGenerator& gen,
                                                  int rank, std::size_t num_bins = 20);

/// Analytic expected number of samples a worker accesses more than
/// (1+delta) * E/N times: F * P(X > ceil((1+delta) E/N)), X ~ Binom(E, 1/N)
/// (paper Sec. 3.1; the ImageNet-1k example gives ~31,635 for delta=0.8).
[[nodiscard]] double expected_samples_above(std::uint64_t num_samples, int num_workers,
                                            int num_epochs, double delta);

/// Lemma 1 upper bound: if one worker accesses a sample ceil((1+delta) E/N)
/// times, some other worker accesses it at most ceil((N-1-delta)/(N-1) * E/N)
/// times.  Returns that bound.
[[nodiscard]] std::uint64_t lemma1_other_worker_bound(int num_workers, int num_epochs,
                                                      double delta);

/// Sorted (descending) frequencies of one worker with deterministic
/// tie-breaking by sample id.  This is not the cache policy's fill order:
/// compute_cache_plan (core/cache_policy.hpp) ranks the samples the worker
/// consumes in epoch 0 first among equal frequencies.
[[nodiscard]] std::vector<std::pair<data::SampleId, std::uint32_t>> sorted_by_frequency(
    const FrequencyMap& freqs);

}  // namespace nopfs::core
