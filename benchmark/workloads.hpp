// The benchmark's workloads.  Each runs in its own process, makes its
// inputs from the seed, sets up the serving state several times (set-up is
// a metric of its own), warms up, measures for the requested seconds, and
// verifies sampled outputs after the timed window.

#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace bench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  // Traced runs measure the main loop twice — half untraced, half with
  // spans on — and add the per-layer probes.
  bool traced = false;
  // Input-size factor (--smoke runs every workload at 1/20 scale).
  double scale = 1.0;
};

struct Metric {
  double value = 0;
  std::uint64_t n = 0;        // samples behind the value
  std::string source = "main";  // "main" loop, "setup", or a layer "probe"
};

struct RunResult {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;     // threw, rejected, expired or wrong
  std::uint64_t incorrect = 0;  // failed verification
  std::uint64_t checks = 0;     // sampled responses verified
  std::map<std::string, double> sizes;  // the workload's frozen parameters
};

// Throws std::invalid_argument for an unknown workload name.
RunResult run_workload(const Config& cfg);

}  // namespace bench
