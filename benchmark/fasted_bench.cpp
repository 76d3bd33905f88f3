// fasted_bench: runs one benchmark workload and prints its result as one
// JSON object, the last line of standard output.  benchmark/run.py builds
// and drives it (see benchmark/README.md).
//
//   fasted_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                [--scale F] [--trace-out PATH]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "common/parallel.hpp"
#include "core/kernels/kernel_context.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Host, build and kernel facts every result records.
std::string env_json() {
  const fasted::ThreadPool& pool = fasted::ThreadPool::global();
  const auto ctx = fasted::kernels::KernelContext::resolve("auto", pool);
  std::string kernels = "[";
  for (std::size_t d = 0; d < pool.domain_count(); ++d) {
    kernels += (d == 0 ? "" : ", ") + json_str(ctx.kernel(d).name);
  }
  kernels += "]";
  return "{\"cpu_model\": " + json_str(cpu_model()) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"pool_threads\": " + std::to_string(pool.size()) +
         ", \"domain_kernels\": " + kernels +
         ", \"compiler\": " + json_str(std::string("gcc-compatible ") + __VERSION__) +
         ", \"build_type\": " + json_str(FASTED_BENCH_BUILD_TYPE) + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: fasted_bench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--scale F] [--trace-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Config cfg;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      cfg.workload = val;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(val.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(val.c_str(), &end);
    } else if (arg == "--trace") {
      cfg.traced = val == "1";
      if (val != "0" && val != "1") return usage();
    } else if (arg == "--scale") {
      cfg.scale = std::strtod(val.c_str(), &end);
    } else if (arg == "--trace-out") {
      trace_out = val;
    } else {
      return usage();
    }
    if (end != nullptr && *end != '\0') return usage();
  }
  if (cfg.workload.empty() || !(cfg.seconds > 0) || !(cfg.scale > 0)) {
    return usage();
  }

  try {
    const bench::RunResult r = bench::run_workload(cfg);
    std::string self = "{";
    if (cfg.traced) {
      for (const auto& [layer, ms] : bench::SpanRecorder::global().self_ms()) {
        self += (self.size() > 1 ? ", " : "") + json_str(layer) + ": " +
                json_num(ms);
      }
      if (!trace_out.empty() && !bench::SpanRecorder::global().write(trace_out)) {
        std::fprintf(stderr, "fasted_bench: cannot write %s\n",
                     trace_out.c_str());
        return 1;
      }
    }
    self += "}";
    std::string metrics = "{";
    for (const auto& [name, m] : r.metrics) {
      metrics += (metrics.size() > 1 ? ", " : "") + json_str(name) +
                 ": {\"value\": " + json_num(m.value) +
                 ", \"n\": " + std::to_string(m.n) +
                 ", \"source\": " + json_str(m.source) + "}";
    }
    metrics += "}";
    std::string sizes = "{";
    for (const auto& [name, v] : r.sizes) {
      sizes += (sizes.size() > 1 ? ", " : "") + json_str(name) + ": " +
               json_num(v);
    }
    sizes += "}";
    std::printf(
        "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"traced\": %s, "
        "\"scale\": %s, \"env\": %s, \"sizes\": %s, \"attempted\": %llu, "
        "\"failed\": %llu, \"incorrect\": %llu, \"checks\": %llu, "
        "\"metrics\": %s, \"self_ms\": %s}\n",
        json_str(cfg.workload).c_str(),
        static_cast<unsigned long long>(cfg.seed),
        json_num(cfg.seconds).c_str(), cfg.traced ? "true" : "false",
        json_num(cfg.scale).c_str(), env_json().c_str(), sizes.c_str(),
        static_cast<unsigned long long>(r.attempted),
        static_cast<unsigned long long>(r.failed),
        static_cast<unsigned long long>(r.incorrect),
        static_cast<unsigned long long>(r.checks), metrics.c_str(),
        self.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fasted_bench: %s\n", e.what());
    return 1;
  }
}
