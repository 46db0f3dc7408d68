#include "layers.hpp"

#include <algorithm>
#include <cstring>

namespace perfbench {

namespace {

bool named(const Span& span, const char* name) { return std::strcmp(span.name, name) == 0; }

/// [t0, t1) of a rank thread's timed window; false when the thread has none.
/// Set-up ends in run_distributed's "ready" and "clocks set" barriers; the
/// last `timed_barriers` barriers belong to the timed iterations.
bool find_window(const ThreadLog& log, std::size_t timed_barriers, std::int64_t& t0,
                 std::int64_t& t1, double& start_ms) {
  start_ms = -1.0;
  if (!log.rank_thread) return false;
  const Span* job = nullptr;
  const Span* last_allgather = nullptr;
  std::vector<const Span*> barriers;
  for (const Span& span : log.spans) {
    if (span.end_ns < 0) continue;
    if (named(span, "runtime.job")) job = &span;
    if (named(span, "net.barrier")) barriers.push_back(&span);
    if (named(span, "net.allgather")) last_allgather = &span;
  }
  if (job == nullptr || last_allgather == nullptr || barriers.size() < timed_barriers + 2) {
    return false;
  }
  const Span* ready = barriers[barriers.size() - timed_barriers - 2];
  const Span* clocks_set = barriers[barriers.size() - timed_barriers - 1];
  start_ms = static_cast<double>(ready->start_ns - job->start_ns) / 1e6;
  t0 = clocks_set->end_ns;
  t1 = last_allgather->start_ns;
  return t1 > t0;
}

}  // namespace

std::uint64_t LayerTotals::count(const std::string& span) const {
  const auto it = span_us.find(span);
  return it == span_us.end() ? 0 : it->second.size();
}

double LayerTotals::busy_ms(const std::string& span) const {
  const auto it = span_us.find(span);
  return it == span_us.end() ? 0.0 : sum(it->second) / 1e3;
}

double LayerTotals::mb(const std::string& span) const {
  const auto it = span_mb.find(span);
  return it == span_mb.end() ? 0.0 : it->second;
}

double LayerTotals::p(const std::string& span, double q) const {
  const auto it = span_us.find(span);
  return it == span_us.end() ? 0.0 : percentile(it->second, q);
}

void absorb(LayerTotals& totals, const Tracer& tracer,
            const std::vector<TracedTransport::Counters>& transports,
            std::size_t timed_barriers) {
  ++totals.jobs;
  for (const auto& c : transports) {
    totals.net.pfs_adjusts += c.pfs_adjusts;
    totals.net.watermarks += c.watermarks;
    totals.net.pfs_wait_s += c.pfs_wait_s;
    totals.net.peak_gamma = std::max(totals.net.peak_gamma, c.peak_gamma);
  }

  for (const auto& log : tracer.logs()) {
    const std::vector<Span>& spans = log->spans;
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.end_ns < 0) continue;
      const double dur_ns = static_cast<double>(span.end_ns - span.start_ns);
      totals.span_us[span.name].push_back(dur_ns / 1e3);
      if (span.mb >= 0.0) {
        totals.span_mb[span.name] += span.mb;
      } else if (named(span, "net.fetch")) {
        ++totals.fetch_misses;
      }
      if (span.parent >= 0) child_ns[static_cast<std::size_t>(span.parent)] += dur_ns;
    }

    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
    double start_ms = -1.0;
    if (!find_window(*log, timed_barriers, t0, t1, start_ms)) continue;
    totals.start_ms.push_back(start_ms);
    totals.window_s += static_cast<double>(t1 - t0) / 1e9;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      if (span.end_ns < 0 || span.start_ns < t0 || span.end_ns > t1) continue;
      if (named(span, "runtime.job")) continue;
      const double self_ns = static_cast<double>(span.end_ns - span.start_ns) - child_ns[i];
      totals.self_s[static_cast<std::size_t>(span.layer)] += self_ns / 1e9;
    }
  }
}

void report_layers(Report& report, const LayerTotals& totals, double items,
                   const std::array<double, kNumLayers>& program_s) {
  const double jobs = std::max(1, totals.jobs);
  const auto per_job = [&](double v) { return v / jobs; };

  report.set("net.fetch.count", per_job(static_cast<double>(totals.count("net.fetch"))), "count");
  report.set("net.fetch_us.p50", totals.p("net.fetch", 0.5), "us");
  report.set("net.fetch_us.p99", totals.p("net.fetch", 0.99), "us");
  report.set("net.fetch.mb", per_job(totals.mb("net.fetch")), "MB");
  report.set("net.fetch.misses", per_job(static_cast<double>(totals.fetch_misses)), "count");
  report.set("net.barrier.count", per_job(static_cast<double>(totals.count("net.barrier"))),
             "count");
  report.set("net.barrier_us.p50", totals.p("net.barrier", 0.5), "us");
  report.set("net.barrier_us.p99", totals.p("net.barrier", 0.99), "us");
  report.set("net.pfs_adjust.count", per_job(static_cast<double>(totals.net.pfs_adjusts)),
             "count");
  report.set("net.watermark.count", per_job(static_cast<double>(totals.net.watermarks)),
             "count");

  report.set("tiers.pfs.wait_ms", per_job(totals.net.pfs_wait_s * 1e3), "ms");
  report.set("tiers.pfs.peak_gamma", totals.net.peak_gamma, "count");
  for (const char* tier : {"staging", "ram", "ssd"}) {
    const std::string read = std::string("tiers.") + tier + ".read";
    const std::string write = std::string("tiers.") + tier + ".write";
    report.set(std::string("tiers.") + tier + ".read_mb", per_job(totals.mb(read)), "MB");
    report.set(std::string("tiers.") + tier + ".write_mb", per_job(totals.mb(write)), "MB");
    report.set(std::string("tiers.") + tier + ".wait_ms",
               per_job(totals.busy_ms(read) + totals.busy_ms(write)), "ms");
  }
  report.set("tiers.nic.mb", per_job(totals.mb("tiers.nic.transfer")), "MB");
  report.set("tiers.nic.wait_ms", per_job(totals.busy_ms("tiers.nic.transfer")), "ms");
  report.set("core.start_ms", median(totals.start_ms), "ms");

  // Per-item self times along the rank threads: span self time plus what
  // the program reports itself, and the remainder nothing accounts for.
  // No span records runtime self time; its entry is the emulated compute
  // the harness sleeps, computed from sample sizes, compute_mbps and the
  // time scale, so it is named as a model.  The harness loop's measured
  // cost beyond it (digest, verification, sleep overshoot) is part of the
  // unattributed remainder.
  const double per_item_us = 1e6 / std::max(1.0, items);
  double attributed_s = 0.0;
  for (int l = 0; l < kNumLayers; ++l) {
    const auto layer = static_cast<Layer>(l);
    const double s = totals.self_s[static_cast<std::size_t>(l)] +
                     program_s[static_cast<std::size_t>(l)];
    attributed_s += s;
    report.set(layer == Layer::kRuntime ? std::string("self.runtime_compute_model_us")
                                        : std::string("self.") + layer_name(layer) + "_us",
               s * per_item_us, "us");
  }
  report.set("self.unattributed_us", (totals.window_s - attributed_s) * per_item_us, "us");
  report.set("self.rank_time_us", totals.window_s * per_item_us, "us");
}

}  // namespace perfbench
