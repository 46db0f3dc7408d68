// The benchmark's workloads (README.md in this directory says why each
// exists and which layer metric should move which end-to-end metric).
//
// Every workload repeats complete jobs until its time is up.  Set-up
// (dataset synthesis, cluster allocation, Loader::start) lasts a few ms, so
// it is timed many times per run, apart from the jobs, and reported as a
// median.  Traced and untraced jobs take the same path; only the decorators
// differ.

#include "workloads.hpp"

#include <sys/resource.h>

#include <array>
#include <chrono>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/access_stream.hpp"
#include "data/dataset.hpp"
#include "layers.hpp"
#include "net/sim_transport.hpp"
#include "runtime/harness.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"
#include "sim/policy.hpp"
#include "tiers/clock.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

namespace data = nopfs::data;
namespace net = nopfs::net;
namespace runtime = nopfs::runtime;
namespace sim = nopfs::sim;
namespace tiers = nopfs::tiers;

using SteadyClock = std::chrono::steady_clock;

double since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

/// Runs `body(rank)` on one thread per rank; returns each rank's error
/// message (empty when it succeeded).
std::vector<std::string> run_ranks(int ranks, const std::function<void(int)>& body) {
  std::vector<std::string> errors(static_cast<std::size_t>(ranks));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    threads.emplace_back([&, r] {
      try {
        body(r);
      } catch (const std::exception& ex) {
        errors[static_cast<std::size_t>(r)] = ex.what();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  return errors;
}

std::string first_error(const std::vector<std::string>& errors) {
  for (std::size_t r = 0; r < errors.size(); ++r) {
    if (!errors[r].empty()) return "rank " + std::to_string(r) + ": " + errors[r];
  }
  return {};
}

struct ProcUsage {
  double cpu_s = 0.0;
  double ctx_switches = 0.0;
};

ProcUsage proc_usage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {secs(usage.ru_utime) + secs(usage.ru_stime),
          static_cast<double>(usage.ru_nvcsw + usage.ru_nivcsw)};
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void write_trace(const Tracer& tracer, const Options& options) {
  if (options.trace_path.empty()) return;
  std::ofstream out(options.trace_path);
  tracer.write_chrome_json(out, options.workload + " seed " + std::to_string(options.seed));
}

std::string fmt(double value, int precision = 3) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(precision);
  out << value;
  return out.str();
}

// ---------------------------------------------------------------------------
// Clairvoyant digest.  The harness digests each rank's delivered ids in
// delivery order (FNV-1a over the id's little-endian bytes) and combines
// ranks by XOR of a rank-keyed splitmix64 finalizer.  Recomputing it here
// from AccessStreamGenerator::worker_stream checks delivery against the
// order the seed predicts, independently of the loader.

std::uint64_t fnv_ids(const std::vector<data::SampleId>& ids) {
  std::uint64_t digest = 1469598103934665603ull;
  for (const data::SampleId id : ids) {
    for (int shift = 0; shift < 64; shift += 8) {
      digest = (digest ^ ((id >> shift) & 0xff)) * 1099511628211ull;
    }
  }
  return digest;
}

std::uint64_t rank_mix(int rank, std::uint64_t digest) {
  std::uint64_t z = digest + 0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(rank) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

nopfs::core::StreamConfig stream_config(const data::Dataset& dataset,
                                        const runtime::RuntimeConfig& config) {
  nopfs::core::StreamConfig stream;
  stream.seed = config.seed;
  stream.num_samples = dataset.num_samples();
  stream.num_workers = config.system.num_workers;
  stream.num_epochs = config.num_epochs;
  stream.global_batch = config.global_batch();
  stream.drop_last = config.drop_last;
  stream.validate();
  return stream;
}

// ---------------------------------------------------------------------------
// Loader workloads

struct LoaderSpec {
  data::DatasetSpec dataset;
  std::uint64_t dataset_seed = 0;
  runtime::RuntimeConfig config;
};

/// 4 rank threads over SimTransport, 960 samples of ~0.2 MB against an
/// aggregate cache of half the dataset (each node's RAM and SSD classes are
/// halved to 8 and 16 MB), compute on: paced by the emulated PFS and
/// compute.  Time scale 1 keeps each emulated wait long (the compute sleep
/// is 4 ms per sample) so late wake-ups on a busy host stay a small share
/// of it.  At time scale 2 with twice the samples (the same job length) a
/// busy host took up to 25% off the throughput within ten minutes, and
/// three busy-looping processes took 13% off it; at time scale 1 they took
/// 2%.  Each rank runs run_distributed over its SimTransport endpoint, so
/// the PFS is priced job-wide through net::SharedPfs and the transport's
/// gamma protocol, where the traced run sees every pfs_adjust.
/// (run_training cannot be used: it builds its own cluster and transports,
/// leaving no seam for the decorators, and it prices the PFS through one
/// shared EmulatedPfs instead.)
LoaderSpec threaded_pfs_bound(std::uint64_t seed) {
  LoaderSpec spec;
  spec.dataset = data::DatasetSpec{"threaded-pfs-bound", 960, 0.2, 0.05, 1};
  spec.dataset_seed = seed;
  runtime::RuntimeConfig& config = spec.config;
  config.system = nopfs::scenario::loopback_system(4, 1.0);
  config.system.node.classes[0].capacity_mb = 8.0;
  config.system.node.classes[1].capacity_mb = 16.0;
  config.system.node.preprocess_mbps = 0.0;
  config.loader = nopfs::baselines::LoaderKind::kNoPFS;
  config.seed = seed * 7919 + 1;
  config.num_epochs = 4;
  config.per_worker_batch = 2;
  config.time_scale = 1.0;
  config.verify_content = true;
  return spec;
}

/// The distributed-cache regime: 4 rank threads over SimTransport, 960
/// samples of ~0.1 MB, so each node's cache holds about half the dataset
/// and the four caches hold it twice over.  After the fill epoch nearly
/// every delivery is a local cache read or a remote fetch from the peer
/// that caches the sample; the PFS is idle.  Compute is on (2 ms of
/// emulated compute per sample at time scale 1) so the workload is paced
/// by emulated compute and NIC transfers, not by the host's CPU speed.  A
/// batch of 4 per rank halves the barrier wake-ups per sample: with a
/// batch of 2, three busy-looping processes took 10% off the throughput.
/// It moves with the remote-fetch path, cache placement and the barriers,
/// and bypasses what only the PFS path uses.
LoaderSpec threaded_cache_fit(std::uint64_t seed) {
  LoaderSpec spec;
  spec.dataset = data::DatasetSpec{"threaded-cache-fit", 960, 0.1, 0.025, 1};
  spec.dataset_seed = seed;
  runtime::RuntimeConfig& config = spec.config;
  config.system = nopfs::scenario::loopback_system(4, 1.0);
  config.system.node.preprocess_mbps = 0.0;
  config.loader = nopfs::baselines::LoaderKind::kNoPFS;
  config.seed = seed * 7919 + 3;
  config.num_epochs = 6;
  config.per_worker_batch = 4;
  config.time_scale = 1.0;
  config.verify_content = true;
  return spec;
}

/// Set-up probes after each untraced job, in groups of kSetupGroup run
/// back to back.  One probe is a few ms, mostly thread start-up and
/// wake-ups, and it is bimodal: either every rank starts at once, or some
/// rank starts or wakes late and the probe takes two to three times as
/// long.  The share of slow probes follows the host's load, so a median
/// over single probes jumps between the two modes whenever that share
/// crosses one half.  The mean over a group moves with the share instead.
/// So one set-up sample is a group's mean, and setup_s is the median of
/// the samples.  A probe lasts about 0.5 s on threaded-pfs-bound with its
/// teardown (each loader stops prefetchers that are mid-read), so there are
/// only 10 per job, which leaves room for 3 jobs in a 40 s run.
constexpr int kSetupProbes = 10;
constexpr int kSetupGroup = 5;

struct LoaderJob {
  std::string error;                 ///< empty when the job ran to completion
  runtime::RuntimeResult result;     ///< rank 0's
  std::vector<std::uint64_t> digests;  ///< every rank's returned digest
  /// Job start to the end of rank 0's "clocks set" barrier: dataset
  /// synthesis, cluster allocation and Loader::start on every rank.
  double setup_s = 0.0;
  /// Barriers a rank calls up to and including "clocks set".
  std::size_t setup_barriers = 0;
  std::vector<TracedTransport::Counters> net;
};

/// One training job: a rank thread per worker, each calling
/// run_distributed over its SimTransport endpoint of one cluster, through
/// a TracedTransport (which records spans only when `tracer` is set).  With
/// a tracer the devices are wrapped in decorators too.
/// `timed_barriers` is the number of barriers the timed iterations call.
/// With `stop_after_setup` set to the job's setup_barriers, the job is a
/// set-up probe: every rank leaves run_distributed right after "clocks
/// set" (its loader stops and withdraws its serve handler on the way out)
/// and only setup_s is filled in.
LoaderJob run_loader_job(const LoaderSpec& spec, std::size_t timed_barriers, Tracer* tracer,
                         std::size_t stop_after_setup = 0) {
  LoaderJob job;
  const auto start = SteadyClock::now();
  const runtime::RuntimeConfig& config = spec.config;
  const int n = config.system.num_workers;
  std::vector<runtime::RuntimeResult> results(static_cast<std::size_t>(n));
  std::vector<TracedTransport::TimePoint> rank0_barriers;
  job.net.resize(static_cast<std::size_t>(n));
  try {
    const data::Dataset dataset = data::Dataset::synthetic(spec.dataset, spec.dataset_seed);
    tiers::RealClock clock;
    tiers::EmulatedCluster cluster(clock, config.system, config.time_scale);
    if (tracer != nullptr) {
      for (int r = 0; r < n; ++r) trace_devices(cluster.worker(r), *tracer);
    }
    // After the swap: each endpoint charges its rank's (traced) NIC.
    auto transports = net::make_sim_transports(n, &cluster);
    job.error = first_error(run_ranks(n, [&](int r) {
      const auto ur = static_cast<std::size_t>(r);
      if (tracer != nullptr) tracer->mark_rank_thread();
      TracedTransport traced(*transports[ur], tracer);
      traced.stop_after_barrier(stop_after_setup);
      try {
        SpanScope job_span(tracer, "runtime.job", Layer::kRuntime);
        results[ur] = runtime::run_distributed(dataset, config, traced, &cluster);
        if (stop_after_setup != 0) throw std::runtime_error("set-up probe ran the whole job");
      } catch (const SetupComplete&) {
        if (r == 0) rank0_barriers = traced.barrier_ends();
        return;
      }
      job.net[ur] = traced.counters();
      if (r == 0) rank0_barriers = traced.barrier_ends();
    }));
  } catch (const std::exception& ex) {
    job.error = ex.what();
  }
  if (job.error.empty() && stop_after_setup != 0) {
    job.setup_barriers = stop_after_setup;
    if (rank0_barriers.size() != stop_after_setup) job.error = "probe stopped at another barrier";
  } else if (job.error.empty()) {
    if (rank0_barriers.size() <= timed_barriers) {
      job.error = "fewer barriers than the timed iterations call";
    } else {
      job.setup_barriers = rank0_barriers.size() - timed_barriers;
    }
  }
  if (job.error.empty()) {
    const auto clocks_set = rank0_barriers[job.setup_barriers - 1];
    job.setup_s = std::chrono::duration<double>(clocks_set - start).count();
  }
  for (const auto& result : results) job.digests.push_back(result.delivered_digest);
  job.result = std::move(results[0]);
  return job;
}

/// Empty when the job delivered exactly the clairvoyant stream, verified.
std::string check_loader_job(const LoaderJob& job, std::uint64_t expected_digest,
                             std::uint64_t deliveries, int epochs) {
  if (!job.error.empty()) return "job failed: " + job.error;
  for (const std::uint64_t digest : job.digests) {
    if (digest != expected_digest) return "delivered digest differs from the clairvoyant digest";
  }
  if (job.result.verification_failures != 0) {
    return std::to_string(job.result.verification_failures) + " content verification failures";
  }
  if (job.result.verified_samples != deliveries) return "not every delivery was verified";
  if (job.result.epoch_s.size() != static_cast<std::size_t>(epochs)) {
    return "missing epoch timings";
  }
  return {};
}

/// The JobStats a traced job must reproduce exactly.  Every planned sample
/// is materialized from a source once and every unplanned delivery goes to
/// a source, so remote_fetches + pfs_fetches and the cached set are fixed
/// by the plan.  The split between remote and PFS (a remote miss falls
/// back to the PFS) and local_fetches (a delivery that races the class
/// prefetcher for the same sample) depend on thread timing.
std::string jobstats_identity(const nopfs::core::JobStats& stats) {
  return "remote+pfs=" + std::to_string(stats.remote_fetches + stats.pfs_fetches) +
         " cached=" + std::to_string(stats.cached_samples);
}

/// Runs of the analytic model per traced run: sim::simulate of the job's
/// config and seed.  The model is the sim layer's work; it runs off the
/// rank path, so it is timed on its own rather than as a share of rank time.
constexpr int kModelRuns = 5;

struct ModelRuns {
  double pfs_reads = 0.0;       ///< PFS reads the model predicts
  double accesses = 0.0;        ///< sample accesses one simulation covers
  std::vector<double> run_ms;   ///< wall time of each simulate() call
};

ModelRuns run_model(const data::Dataset& dataset, const runtime::RuntimeConfig& config) {
  sim::SimConfig sc;
  sc.system = config.system;
  sc.seed = config.seed;
  sc.num_epochs = config.num_epochs;
  sc.per_worker_batch = config.per_worker_batch;
  sc.drop_last = config.drop_last;
  ModelRuns model;
  for (int k = 0; k < kModelRuns; ++k) {
    const auto start = SteadyClock::now();
    const auto policy = sim::make_policy("nopfs");
    const sim::SimResult result = sim::simulate(sc, dataset, *policy);
    model.run_ms.push_back(since(start) * 1e3);
    model.pfs_reads =
        static_cast<double>(result.location_count[static_cast<int>(sim::Location::kPfs)]);
    model.accesses =
        static_cast<double>(result.location_count[static_cast<int>(sim::Location::kStagingWrite)]);
  }
  return model;
}

Report run_loader_workload(const LoaderSpec& spec, const Options& options) {
  Report report;
  const runtime::RuntimeConfig& config = spec.config;
  const double ts = config.time_scale;
  const int n = config.system.num_workers;

  // Reference values, computed outside every timed region.
  const data::Dataset dataset = data::Dataset::synthetic(spec.dataset, spec.dataset_seed);
  const nopfs::core::StreamConfig stream = stream_config(dataset, config);
  const nopfs::core::AccessStreamGenerator generator(stream);
  std::uint64_t expected_digest = 0;
  double compute_s = 0.0;  // emulated compute per job, real seconds, all ranks
  for (int r = 0; r < n; ++r) {
    const auto ids = generator.worker_stream(r);
    expected_digest ^= rank_mix(r, fnv_ids(ids));
    if (!config.skip_compute && config.system.node.compute_mbps > 0.0) {
      for (const data::SampleId id : ids) {
        compute_s += dataset.size_mb(id) / config.system.node.compute_mbps / ts;
      }
    }
  }
  const std::uint64_t per_epoch = stream.iterations_per_epoch() * stream.global_batch;
  const std::uint64_t deliveries = per_epoch * static_cast<std::uint64_t>(config.num_epochs);
  const double steady_samples = static_cast<double>(per_epoch * (config.num_epochs - 1));
  // The harness ends every iteration with two barriers.
  const std::size_t timed_barriers =
      2 * stream.iterations_per_epoch() * static_cast<std::size_t>(config.num_epochs);

  // A run has only a few jobs, so the steady epochs and iterations of all
  // its jobs are pooled: samples_per_s is every steady sample over every
  // steady second, and the iteration percentiles run over every timed
  // iteration.
  struct Side {
    double steady_samples = 0.0;
    double steady_s = 0.0;
    std::vector<double> batch_ms;  ///< every timed iteration
    std::vector<double> fill_s, setup_s;
    std::vector<double> probe_s;  ///< every set-up probe, for the notes
    std::vector<std::string> stats_identity;
    [[nodiscard]] double samples_per_s() const {
      return steady_samples / std::max(1e-12, steady_s);
    }
  };
  Side untraced;
  Side traced;
  LayerTotals layers;
  std::array<double, kNumLayers> program_s{};
  double traced_items = 0.0;
  nopfs::core::JobStats traced_stats;
  ProcUsage untraced_usage;
  double untraced_samples = 0.0;
  std::unique_ptr<Tracer> last_tracer;

  const auto deadline = SteadyClock::now() + std::chrono::duration<double>(options.seconds);
  for (int k = 0;; ++k) {
    const bool tracing = options.trace && k % 2 == 1;
    auto tracer = tracing ? std::make_unique<Tracer>() : nullptr;
    const ProcUsage before = proc_usage();
    LoaderJob job = run_loader_job(spec, timed_barriers, tracer.get());
    const ProcUsage after = proc_usage();
    report.attempted += deliveries;
    const std::string problem =
        check_loader_job(job, expected_digest, deliveries, config.num_epochs);
    if (!problem.empty()) {
      report.failed += deliveries;
      report.fail(std::string(tracing ? "traced" : "untraced") + " job " +
                  std::to_string(k) + ": " + problem);
    } else {
      const runtime::RuntimeResult& result = job.result;
      const double fill = result.epoch_s.front() / ts;
      double steady = 0.0;
      for (std::size_t e = 1; e < result.epoch_s.size(); ++e) steady += result.epoch_s[e] / ts;
      Side& side = tracing ? traced : untraced;
      side.steady_samples += steady_samples;
      side.steady_s += steady;
      side.fill_s.push_back(fill);
      for (const double b : result.batch_s_rest) side.batch_ms.push_back(b / ts * 1e3);
      side.stats_identity.push_back(jobstats_identity(result.stats));
      report.reactor_backend = result.reactor_backend;
      if (tracing) {
        absorb(layers, *tracer, job.net, timed_barriers);
        program_s[static_cast<std::size_t>(Layer::kCore)] += result.stats.stall_s / ts;
        program_s[static_cast<std::size_t>(Layer::kRuntime)] += compute_s;
        traced_items += static_cast<double>(deliveries);
        const auto& s = result.stats;
        traced_stats.local_fetches += s.local_fetches;
        traced_stats.remote_fetches += s.remote_fetches;
        traced_stats.pfs_fetches += s.pfs_fetches;
        traced_stats.remote_misses += s.remote_misses;
        traced_stats.local_mb += s.local_mb;
        traced_stats.remote_mb += s.remote_mb;
        last_tracer = std::move(tracer);
      } else {
        untraced_usage.cpu_s += after.cpu_s - before.cpu_s;
        untraced_usage.ctx_switches += after.ctx_switches - before.ctx_switches;
        untraced_samples += static_cast<double>(deliveries);
      }
      report.notes.push_back(
          std::string(tracing ? "traced" : "untraced") + " job " + std::to_string(k) +
          ": " + fmt(steady_samples / steady, 0) + " samples/s, fill " + fmt(fill) +
          " s, setup " + fmt(job.setup_s) + " s, local/remote/pfs/miss " +
          std::to_string(result.stats.local_fetches) + "/" +
          std::to_string(result.stats.remote_fetches) + "/" +
          std::to_string(result.stats.pfs_fetches) + "/" +
          std::to_string(result.stats.remote_misses));
    }
    for (int p = 0; p < kSetupProbes && !options.trace && problem.empty(); ++p) {
      const LoaderJob probe = run_loader_job(spec, timed_barriers, nullptr, job.setup_barriers);
      ++report.attempted;
      if (!probe.error.empty()) {
        ++report.failed;
        report.fail("set-up probe after job " + std::to_string(k) + ": " + probe.error);
        break;
      }
      untraced.probe_s.push_back(probe.setup_s);
      if ((p + 1) % kSetupGroup == 0) {
        const auto group = untraced.probe_s.end() - kSetupGroup;
        untraced.setup_s.push_back(std::accumulate(group, untraced.probe_s.end(), 0.0) /
                                   kSetupGroup);
      }
    }
    const bool time_up = SteadyClock::now() >= deadline;
    if (time_up && (!options.trace || k >= 1)) break;
  }
  if (!report.correct) return report;

  if (!options.trace) {
    report.set("samples_per_s", untraced.samples_per_s(), "1/s");
    report.set("batch_p50_ms", median(untraced.batch_ms), "ms");
    report.set("fill_epoch_s", median(untraced.fill_s), "s");
    report.set("setup_s", median(untraced.setup_s), "s");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    report.notes.push_back("iterations timed: " + std::to_string(untraced.batch_ms.size()) +
                           " over " + std::to_string(untraced.fill_s.size()) +
                           " jobs; set-up probes: " + std::to_string(untraced.probe_s.size()) +
                           ", p10/p50/p90 " + fmt(percentile(untraced.probe_s, 0.1) * 1e3) +
                           "/" + fmt(median(untraced.probe_s) * 1e3) + "/" +
                           fmt(percentile(untraced.probe_s, 0.9) * 1e3) + " ms; group means: " +
                           std::to_string(untraced.setup_s.size()) + ", p10/p50/p90 " +
                           fmt(percentile(untraced.setup_s, 0.1) * 1e3) + "/" +
                           fmt(median(untraced.setup_s) * 1e3) + "/" +
                           fmt(percentile(untraced.setup_s, 0.9) * 1e3) + " ms");
    return report;
  }

  // Tracing on must deliver what tracing off delivers.  (Every job's
  // digest already equals the clairvoyant one.)
  for (const auto& identity : traced.stats_identity) {
    if (identity != untraced.stats_identity.front()) {
      report.failed += deliveries;
      report.fail("traced JobStats " + identity + " differ from untraced " +
                  untraced.stats_identity.front());
    }
  }

  report_layers(report, layers, traced_items, program_s);
  const double jobs = std::max(1, layers.jobs);
  const double delivered = static_cast<double>(deliveries) * jobs;
  const double remote_attempts =
      static_cast<double>(traced_stats.remote_fetches + traced_stats.remote_misses);
  report.set("core.stall_share", program_s[static_cast<std::size_t>(Layer::kCore)] /
                                     std::max(1e-12, layers.window_s), "ratio");
  report.set("core.pfs_per_sample",
             static_cast<double>(traced_stats.pfs_fetches) / delivered, "ratio");
  report.set("core.remote_per_sample",
             static_cast<double>(traced_stats.remote_fetches) / delivered, "ratio");
  report.set("core.local_per_sample",
             static_cast<double>(traced_stats.local_fetches) / delivered, "ratio");
  const ModelRuns model = run_model(dataset, config);
  const double model_pfs = model.pfs_reads;
  report.set("core.pfs_reads_over_model",
             static_cast<double>(traced_stats.pfs_fetches) / jobs / std::max(1.0, model_pfs),
             "ratio");
  report.set("sim.model_ms.p50", median(model.run_ms), "ms");
  report.set("sim.model_ms.max", percentile(model.run_ms, 1.0), "ms");
  report.set("sim.accesses_per_s",
             model.accesses * kModelRuns / std::max(1e-12, sum(model.run_ms) / 1e3), "1/s");
  report.set("core.remote_miss_ratio",
             remote_attempts > 0 ? static_cast<double>(traced_stats.remote_misses) /
                                       remote_attempts
                                 : 0.0,
             "ratio");
  report.set("proc.cpu_us_per_sample",
             untraced_usage.cpu_s * 1e6 / std::max(1.0, untraced_samples), "us");
  report.set("proc.ctx_switches_per_sample",
             untraced_usage.ctx_switches / std::max(1.0, untraced_samples), "count");
  report.set("trace.overhead_share",
             1.0 - traced.samples_per_s() / untraced.samples_per_s(), "ratio");
  // The iteration tail, from the untraced jobs of this run: reported
  // without a bound (README.md, "Bounds and spread").
  report.set("batch_p99_ms", percentile(untraced.batch_ms, 0.99), "ms");

  // Reconciliation of decorator counts against the program's own totals.
  // Every fetch_sample call is counted by the program as a remote fetch or
  // a remote miss, so these must agree exactly.
  const double fetch_calls = static_cast<double>(layers.count("net.fetch"));
  if (fetch_calls != remote_attempts) {
    report.fail("net.fetch calls " + fmt(fetch_calls, 0) +
                " != remote_fetches + remote_misses " + fmt(remote_attempts, 0));
  }
  report.notes.push_back("reconcile net.fetch calls " + fmt(fetch_calls / jobs, 1) +
                         " vs remote_fetches + remote_misses " + fmt(remote_attempts / jobs, 1) +
                         " per job");
  report.notes.push_back("reconcile net.fetch MB " + fmt(layers.mb("net.fetch") / jobs) +
                         " vs remote_mb " + fmt(traced_stats.remote_mb / jobs) + " per job");
  double tier_read_mb = 0.0;
  for (const char* tier : {"ram", "ssd"}) {
    tier_read_mb += layers.mb(std::string("tiers.") + tier + ".read");
  }
  report.notes.push_back(
      "reconcile cache-tier read MB " + fmt(tier_read_mb / jobs) + " vs local_mb " +
      fmt(traced_stats.local_mb / jobs) + " + remote_mb served to peers " +
      fmt(traced_stats.remote_mb / jobs) + " per job");
  report.notes.push_back("reconcile PFS reads per job " +
                         fmt(static_cast<double>(traced_stats.pfs_fetches) / jobs, 1) +
                         " vs model " + fmt(model_pfs, 0));
  report.notes.push_back(
      "self time per sample (us): runtime compute (model) " +
      fmt(report.metrics["self.runtime_compute_model_us"].value) +
      " + core " + fmt(report.metrics["self.core_us"].value) + " + net " +
      fmt(report.metrics["self.net_us"].value) + " + tiers " +
      fmt(report.metrics["self.tiers_us"].value) + " + unattributed " +
      fmt(report.metrics["self.unattributed_us"].value) + " = rank time " +
      fmt(report.metrics["self.rank_time_us"].value));
  report.notes.push_back("tracing overhead on samples/s: " +
                         fmt(report.metrics["trace.overhead_share"].value * 100.0, 1) +
                         "% (traced " + fmt(traced.samples_per_s(), 0) + " vs untraced " +
                         fmt(untraced.samples_per_s(), 0) + ")");
  if (last_tracer) write_trace(*last_tracer, options);
  return report;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"threaded-pfs-bound", "threaded-cache-fit"};
}

Report run_workload(const Options& options) {
  if (options.workload == "threaded-pfs-bound") {
    return run_loader_workload(threaded_pfs_bound(options.seed), options);
  }
  if (options.workload == "threaded-cache-fit") {
    return run_loader_workload(threaded_cache_fit(options.seed), options);
  }
  throw std::invalid_argument("unknown workload: " + options.workload);
}

}  // namespace perfbench
