// perfbench: the end-to-end benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Prints human-readable notes, one "environment" JSON line, and as its last
// line the result object {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics of untraced jobs; --trace 1
// alternates untraced and traced jobs and reports the per-layer metrics,
// the reconciliation notes and the tracing overhead.  Exit status 0 means
// the workload ran; correctness is the result's "correct" field.

#include <sched.h>
#include <stdlib.h>

#include <cmath>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "net/reactor.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1"
               " [--trace-out FILE]\nworkloads:";
  for (const auto& name : perfbench::workload_names()) std::cerr << ' ' << name;
  std::cerr << '\n';
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--trace-out") {
        options.trace_path = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

/// The CPU set this process may run on, as "0-3" style ranges.
std::string affinity_ranges(int& count) {
  cpu_set_t set;
  CPU_ZERO(&set);
  count = 0;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return "unknown";
  std::ostringstream out;
  int run_start = -1;
  for (int cpu = 0; cpu <= CPU_SETSIZE; ++cpu) {
    const bool in = cpu < CPU_SETSIZE && CPU_ISSET(cpu, &set);
    if (in) ++count;
    if (in && run_start < 0) run_start = cpu;
    if (!in && run_start >= 0) {
      if (out.tellp() > 0) out << ',';
      out << run_start;
      if (cpu - 1 > run_start) out << '-' << cpu - 1;
      run_start = -1;
    }
  }
  return out.str();
}

std::string environment_json(const std::string& reactor_backend, const double (&load)[3]) {
  int cpus = 0;
  const std::string affinity = affinity_ranges(cpus);
  std::ostringstream out;
  out << "{\"environment\": {\"nproc\": " << cpus
      << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": \"" << PERFBENCH_COMPILER << "\", \"build_type\": \""
      << PERFBENCH_BUILD_TYPE << "\", \"reactor_backend\": \"" << reactor_backend << '"'
      << ", \"io_uring_available\": "
      << (nopfs::net::io_uring_available() ? "true" : "false")
      << ", \"cpu_affinity\": \"inherited " << affinity << "\", \"loadavg\": [" << load[0]
      << ", " << load[1] << ", " << load[2] << "]}}";
  return out.str();
}

std::string result_json(const perfbench::Report& report) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (report.correct ? "true" : "false")
      << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << metric.value
        << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = parse(argc, argv);
  double load_at_start[3] = {-1.0, -1.0, -1.0};
  if (getloadavg(load_at_start, 3) != 3) load_at_start[0] = load_at_start[1] = load_at_start[2] = -1.0;
  perfbench::Report report;
  try {
    report = perfbench::run_workload(options);
  } catch (const std::invalid_argument& ex) {
    usage(ex.what());
  }
  if (report.attempted == 0) report.fail("no operation was attempted");
  for (const auto& [name, metric] : report.metrics) {
    if (!std::isfinite(metric.value)) report.fail("metric " + name + " is not finite");
  }
  if (!report.correct) report.metrics.clear();
  for (const auto& note : report.notes) std::cout << "# " << note << '\n';
  std::cout << environment_json(report.reactor_backend, load_at_start) << '\n'
            << result_json(report) << std::endl;
  return 0;
}
