// Command-line driver: generate or load a dataset, run any of the four
// algorithms, and report result statistics plus modeled A100 timings.
//
//   fasted_cli --dataset tiny --n 2000 --selectivity 64 --algo fasted
//   fasted_cli --load points.bin --eps 0.25 --algo gds --save-result r.bin
//   fasted_cli --dataset uniform --n 5000 --d 64 --eps 0.4 --algo all
//
// Service mode (corpus-resident query joins): --queries switches from the
// self-join algos to a JoinService over the dataset, serving batches of
// externally generated query points.
//
//   fasted_cli --n 10000 --queries 256 --serve-batches 8 --selectivity 64
//
// Sharded service (--shards N splits the resident corpus N ways; results
// are bit-identical to the 1-shard session).  --ingest-fraction F starts
// the session with the first F*n rows and appends the remainder between
// batches — the append-driven serve mode — with a per-shard skew table at
// the end:
//
//   fasted_cli --n 10000 --queries 256 --serve-batches 8 --shards 4 \
//              --ingest-fraction 0.5

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "baselines/gds_join.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "baselines/mistic_join.hpp"
#include "baselines/ted_join.hpp"
#include "core/fasted.hpp"
#include "core/io.hpp"
#include "core/kernels/kernel_context.hpp"
#include "data/calibrate.hpp"
#include "data/generators.hpp"
#include "data/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/batch_gateway.hpp"
#include "service/join_service.hpp"
#include "service/sharded_corpus.hpp"
#include "tune/autotuner.hpp"

using namespace fasted;

namespace {

struct Args {
  std::string dataset = "uniform";  // uniform|sift|tiny|cifar|gist
  std::string load_path;
  std::string save_result;
  std::string algo = "fasted";      // fasted|gds|mistic|ted|all
  std::size_t n = 2000;
  std::size_t d = 64;
  std::uint64_t seed = 42;
  std::optional<float> eps;
  double selectivity = 64.0;
  std::size_t queries = 0;        // > 0 switches to service mode
  std::size_t serve_batches = 1;  // query batches served per session
  std::size_t shards = 0;         // > 0: ShardedCorpus with N-way split
  double ingest_fraction = 1.0;   // < 1: append the rest between batches
  std::size_t domains = 0;        // > 0: shard placement over N domains
  double delete_fraction = 0.0;   // > 0: tombstone this share of the corpus
  bool compact = false;           // compact mid-serve (drops tombstones)
  bool rebalance = false;         // run a drain/steal-driven rebalance pass
  bool autotune = false;          // perf-model + probe schedule search
  std::size_t probe_rows = 65536; // autotune probe sample size
  std::string kernel = "auto";    // rz_dot kernel selection (name or
                                  // comma list; "auto" = per-domain best)
  std::size_t gateway = 0;        // > 0: N concurrent clients through a
                                  // coalescing BatchGateway
  std::string save_schedule;      // write the tuned schedule JSON here
  std::string load_schedule;      // adopt a saved schedule, no re-probing
  std::string trace_path;         // write a Chrome trace-event JSON here
  std::string stats_json;         // write service + registry metrics here
};

void usage() {
  std::printf(
      "usage: fasted_cli [options]\n"
      "  --dataset NAME   uniform|sift|tiny|cifar|gist (default uniform)\n"
      "  --load FILE      load a matrix saved with io::save_matrix\n"
      "  --n N            points to generate (default 2000)\n"
      "  --d D            dims for the uniform generator (default 64)\n"
      "  --seed S         generator seed (default 42)\n"
      "  --eps X          search radius; omit to calibrate\n"
      "  --selectivity S  calibration target when --eps absent (default 64)\n"
      "  --algo A         fasted|gds|mistic|ted|all (default fasted)\n"
      "  --save-result F  save the FaSTED result set\n"
      "  --queries N      service mode: serve batches of N query points\n"
      "                   against the resident dataset (skips --algo)\n"
      "  --serve-batches B  number of query batches to serve (default 1)\n"
      "  --shards N       serve from a ShardedCorpus split N ways\n"
      "                   (bit-identical results; also shards --algo fasted)\n"
      "  --ingest-fraction F  start the service with the first F*n rows and\n"
      "                   append the rest between batches (needs --shards)\n"
      "  --domains N      place shards round-robin over N execution domains\n"
      "                   (default: detected topology / FASTED_TOPOLOGY;\n"
      "                   results are bit-identical for any value)\n"
      "  --delete-fraction F  service mode: tombstone every round(1/F)-th\n"
      "                   resident row after the initial ingest (needs\n"
      "                   --shards; matches of dead rows are filtered out)\n"
      "  --compact        run ShardedCorpus::compact() halfway through the\n"
      "                   serve loop, physically dropping tombstoned rows\n"
      "  --rebalance      after serving, migrate shards off the domain the\n"
      "                   drain/steal counters show as overloaded\n"
      "  --autotune       search tile shape / dispatch order / shard\n"
      "                   capacity / steal policy: perf-model pruning, then\n"
      "                   measured probes on a corpus sample; prints the\n"
      "                   predicted-vs-measured table and runs the chosen\n"
      "                   schedule (results are bit-identical to default)\n"
      "  --probe-rows N   autotune probe sample size (default 65536)\n"
      "  --kernel NAME    rz_dot kernel selection: \"auto\" (default,\n"
      "                   per-domain best), a registry name (scalar, avx2,\n"
      "                   avx512) pinning every domain, or a\n"
      "                   comma list assigning per execution domain; every\n"
      "                   selection is bit-identical (FASTED_RZ_KERNEL\n"
      "                   still force-pins over this flag)\n"
      "  --gateway N      service mode: each batch round is served by N\n"
      "                   concurrent clients submitting through a coalescing\n"
      "                   BatchGateway (one shared drain per admission\n"
      "                   window; results bit-identical to sequential)\n"
      "  --save-schedule F  write the autotuned schedule as JSON (needs\n"
      "                   --autotune)\n"
      "  --load-schedule F  adopt a schedule saved with --save-schedule,\n"
      "                   skipping the search/probes entirely\n"
      "  --trace FILE     record per-worker spans and write a Chrome\n"
      "                   trace-event JSON (chrome://tracing / Perfetto);\n"
      "                   FASTED_TRACE=FILE does the same without the flag\n"
      "  --stats-json FILE  write serve-phase latency percentiles, domain\n"
      "                   loads, and registry histograms as JSON\n");
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--help" || flag == "-h") return false;
    if (flag == "--dataset" && (v = next())) {
      args.dataset = v;
    } else if (flag == "--load" && (v = next())) {
      args.load_path = v;
    } else if (flag == "--save-result" && (v = next())) {
      args.save_result = v;
    } else if (flag == "--algo" && (v = next())) {
      args.algo = v;
    } else if (flag == "--n" && (v = next())) {
      args.n = std::stoull(v);
    } else if (flag == "--d" && (v = next())) {
      args.d = std::stoull(v);
    } else if (flag == "--seed" && (v = next())) {
      args.seed = std::stoull(v);
    } else if (flag == "--eps" && (v = next())) {
      args.eps = std::stof(v);
    } else if (flag == "--selectivity" && (v = next())) {
      args.selectivity = std::stod(v);
    } else if (flag == "--queries" && (v = next())) {
      args.queries = std::stoull(v);
    } else if (flag == "--serve-batches" && (v = next())) {
      args.serve_batches = std::stoull(v);
    } else if (flag == "--shards" && (v = next())) {
      args.shards = std::stoull(v);
    } else if (flag == "--ingest-fraction" && (v = next())) {
      args.ingest_fraction = std::stod(v);
    } else if (flag == "--domains" && (v = next())) {
      args.domains = std::stoull(v);
    } else if (flag == "--delete-fraction" && (v = next())) {
      args.delete_fraction = std::stod(v);
    } else if (flag == "--compact") {
      args.compact = true;
    } else if (flag == "--rebalance") {
      args.rebalance = true;
    } else if (flag == "--autotune") {
      args.autotune = true;
    } else if (flag == "--probe-rows" && (v = next())) {
      args.probe_rows = std::stoull(v);
    } else if (flag == "--kernel" && (v = next())) {
      args.kernel = v;
    } else if (flag == "--gateway" && (v = next())) {
      args.gateway = std::stoull(v);
    } else if (flag == "--save-schedule" && (v = next())) {
      args.save_schedule = v;
    } else if (flag == "--load-schedule" && (v = next())) {
      args.load_schedule = v;
    } else if (flag == "--trace" && (v = next())) {
      args.trace_path = v;
    } else if (flag == "--stats-json" && (v = next())) {
      args.stats_json = v;
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

// Base engine config for this invocation: paper defaults plus the
// --kernel selection (validated in main before anything runs).
FastedConfig base_config(const Args& args) {
  FastedConfig cfg = FastedConfig::paper_defaults();
  cfg.rz_kernel = args.kernel;
  return cfg;
}

MatrixF32 make_data(const Args& args) {
  if (!args.load_path.empty()) return io::load_matrix(args.load_path);
  if (args.dataset == "uniform") {
    return data::uniform(args.n, args.d, args.seed);
  }
  if (args.dataset == "sift") return data::sift_like(args.n, args.seed);
  if (args.dataset == "tiny") return data::tiny_like(args.n, args.seed);
  if (args.dataset == "cifar") return data::cifar_like(args.n, args.seed);
  if (args.dataset == "gist") return data::gist_like(args.n, args.seed);
  std::fprintf(stderr, "unknown dataset %s, using uniform\n",
               args.dataset.c_str());
  return data::uniform(args.n, args.d, args.seed);
}

// Query batches for service mode: drawn from the same distribution family
// as the corpus (falls back to uniform in the corpus dimensionality when
// the corpus came from a file).
MatrixF32 make_query_batch(const Args& args, const MatrixF32& corpus,
                           std::size_t batch) {
  const std::uint64_t seed = args.seed + 1000 + batch;
  if (args.load_path.empty()) {
    Args qargs = args;
    qargs.n = args.queries;
    qargs.seed = seed;
    qargs.d = corpus.dims();
    return make_data(qargs);
  }
  return data::uniform(args.queries, corpus.dims(), seed);
}

void print_shard_table(service::ShardedCorpus& corpus,
                       const std::vector<std::uint64_t>& shard_pairs) {
  const auto infos = corpus.shard_infos();
  std::uint64_t total_pairs = 0;
  for (const std::uint64_t p : shard_pairs) total_pairs += p;
  std::printf("per-shard stats (skew view):\n");
  std::printf("  %-6s %-10s %-8s %-6s %-7s %-6s %-7s %-14s %s\n",
              "shard", "base", "rows", "dead", "state", "dom", "calib",
              "pairs(last)", "share");
  for (std::size_t s = 0; s < infos.size(); ++s) {
    const auto& info = infos[s];
    const std::uint64_t pairs =
        s < shard_pairs.size() ? shard_pairs[s] : 0;
    // A zero-pair batch (eps below the closest pair) must print 0%, not
    // divide by the empty total.
    const double share =
        total_pairs != 0
            ? 100.0 * static_cast<double>(pairs) /
                  static_cast<double>(total_pairs)
            : 0.0;
    std::printf("  %-6zu %-10zu %-8zu %-6zu %-7s %-6zu %-7zu %-14llu "
                "%5.1f%%\n",
                s, info.base, info.rows, info.dead,
                info.sealed ? "sealed" : "open", info.domain,
                info.calibration_blocks,
                static_cast<unsigned long long>(pairs), share);
  }
  const auto stats = corpus.stats();
  std::printf("  appends=%llu rows_appended=%llu seals=%llu open_rebuilds=%llu "
              "calib_blocks_built=%llu\n",
              static_cast<unsigned long long>(stats.appends),
              static_cast<unsigned long long>(stats.rows_appended),
              static_cast<unsigned long long>(stats.shards_sealed),
              static_cast<unsigned long long>(stats.open_rebuilds),
              static_cast<unsigned long long>(stats.calibration_blocks_built));
  std::printf("  erases=%llu rows_erased=%llu compactions=%llu "
              "rows_dropped=%llu shards_rebuilt=%llu migrations=%llu\n",
              static_cast<unsigned long long>(stats.erases),
              static_cast<unsigned long long>(stats.rows_erased),
              static_cast<unsigned long long>(stats.compactions),
              static_cast<unsigned long long>(stats.compaction_rows_dropped),
              static_cast<unsigned long long>(
                  stats.compaction_shards_rebuilt),
              static_cast<unsigned long long>(stats.shards_migrated));
}

// The rebalance signal, as the operator sees it: tiles each domain's own
// workers drained vs. tiles other domains had to steal from it, and the
// wall time spent in each (summed over workers).
void print_domain_loads(const service::ServiceStats& stats) {
  std::printf("per-domain load (kernel, drain/steal tiles, time):");
  for (std::size_t d = 0; d < stats.domain_loads.size(); ++d) {
    const DomainLoad& l = stats.domain_loads[d];
    const char* kernel = d < stats.domain_kernels.size()
                             ? stats.domain_kernels[d].c_str()
                             : "?";
    std::printf(" d%zu[%s]=%llu/%llu %.1f/%.1fms", d, kernel,
                static_cast<unsigned long long>(l.tiles_drained),
                static_cast<unsigned long long>(l.tiles_stolen),
                static_cast<double>(l.drain_ns) * 1e-6,
                static_cast<double>(l.steal_ns) * 1e-6);
  }
  std::printf("\n");
}

void print_phase_table(const char* title,
                       const std::vector<service::PhaseLatency>& phases) {
  if (phases.empty()) return;
  std::printf("%s (microseconds):\n", title);
  std::printf("  %-15s %-8s %-10s %-10s %-10s %-10s\n", "phase", "count",
              "p50", "p95", "p99", "max");
  for (const auto& p : phases) {
    std::printf("  %-15s %-8llu %-10.1f %-10.1f %-10.1f %-10.1f\n", p.phase,
                static_cast<unsigned long long>(p.count),
                static_cast<double>(p.p50_ns) * 1e-3,
                static_cast<double>(p.p95_ns) * 1e-3,
                static_cast<double>(p.p99_ns) * 1e-3,
                static_cast<double>(p.max_ns) * 1e-3);
  }
}

void print_phase_latencies(const service::ServiceStats& stats) {
  print_phase_table("serve-phase latency", stats.phase_latencies);
}

// --stats-json payload: the service's phase/counter view (when serving),
// the gateway's admission/coalescing view (when --gateway), plus the
// process-global registry (engine, baseline, lifecycle metrics).
bool write_stats_json(const std::string& path,
                      const service::JoinService* svc,
                      const serve::BatchGateway* gateway = nullptr) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::string payload = "{";
  if (svc != nullptr) payload += "\"service\":" + svc->stats_json() + ",";
  if (gateway != nullptr) payload += "\"gateway\":" + gateway->stats_json() + ",";
  payload += "\"registry\":" + obs::Registry::global().json() + "}\n";
  std::fputs(payload.c_str(), f);
  std::fclose(f);
  std::printf("stats written to %s\n", path.c_str());
  return true;
}

int run_service_mode(const Args& args, const MatrixF32& points, float eps,
                     const tune::Schedule* schedule) {
  using Clock = std::chrono::steady_clock;
  if (!args.save_result.empty()) {
    std::fprintf(stderr,
                 "warning: --save-result is not supported in service mode; "
                 "ignoring\n");
  }
  const bool sharded = args.shards > 0;
  if (!sharded &&
      (args.delete_fraction > 0 || args.compact || args.rebalance)) {
    std::fprintf(stderr,
                 "warning: --delete-fraction/--compact/--rebalance need "
                 "--shards (lifecycle lives on the sharded backend); "
                 "ignoring\n");
  }
  if (!sharded && args.ingest_fraction < 1.0) {
    std::fprintf(stderr,
                 "warning: --ingest-fraction needs --shards; serving the "
                 "whole corpus up front\n");
  }
  if (!sharded && args.domains > 0) {
    std::fprintf(stderr,
                 "warning: --domains needs --shards (placement is "
                 "per-shard); serving from one shard\n");
  }

  // Incremental ingest plan: start with the first `initial` rows, append
  // the remainder in one slice per served batch.
  const std::size_t n = points.rows();
  std::size_t initial = n;
  if (sharded && args.ingest_fraction < 1.0 && args.ingest_fraction > 0.0) {
    initial = std::max<std::size_t>(
        1, static_cast<std::size_t>(args.ingest_fraction *
                                    static_cast<double>(n)));
  }
  std::printf("service mode: corpus resident%s, %zu queries/batch x %zu "
              "batches, eps=%.5g\n",
              sharded ? " (sharded)" : "", args.queries, args.serve_batches,
              eps);

  const auto ingest_start = Clock::now();
  service::ShardedCorpusOptions copts;
  if (sharded) {
    // Capacity from the FULL corpus size so the append-driven session seals
    // shards at the same boundaries a bulk N-way split would.
    copts.shard_capacity = (n + args.shards - 1) / args.shards;
    copts.placement_domains = args.domains;
  }
  auto corpus = std::make_shared<service::ShardedCorpus>(
      row_slice(points, 0, initial), copts);
  auto svc = std::make_shared<service::JoinService>(
      corpus, FastedEngine(base_config(args)));
  const double ingest_s =
      std::chrono::duration<double>(Clock::now() - ingest_start).count();
  std::printf("ingest: FP16 + norms prepared for %zu/%zu rows in %.3f s\n",
              initial, n, ingest_s);

  if (schedule != nullptr) {
    // Adopt the tuned (or loaded) schedule through the service's own swap
    // path; with --shards the corpus is re-chunked to the tuned capacity
    // (results are bit-identical either way — only throughput changes).
    svc->set_schedule(*schedule, /*rechunk_shards=*/sharded);
    std::printf("serving with tuned schedule: %s\n",
                svc->schedule().describe().c_str());
  }

  // Sustained-mutation traffic: tombstone a deterministic stride of the
  // initially resident rows, so the serve loop runs with delete masks
  // active from the first batch.
  if (sharded && args.delete_fraction > 0) {
    const auto stride = static_cast<std::size_t>(
        std::max<long long>(1, std::llround(1.0 / args.delete_fraction)));
    std::vector<std::uint32_t> dead;
    for (std::size_t i = 0; i < initial; i += stride) {
      dead.push_back(static_cast<std::uint32_t>(i));
    }
    // Never kill the whole corpus (--delete-fraction 1.0 + a later
    // --compact would otherwise have nothing left to re-chunk).
    if (dead.size() >= initial) dead.pop_back();
    const std::size_t erased = corpus->erase(dead);
    std::printf("tombstoned %zu/%zu resident rows (every %zu-th)\n", erased,
                initial, stride);
  }

  // Gateway mode: each batch round is N concurrent clients submitting
  // their own query batch; the gateway coalesces the round into shared
  // admission windows (size trigger = N, so a fully gathered round drains
  // the corpus ONCE).  Kept alive past the loop so --stats-json can embed
  // its stats.
  std::unique_ptr<serve::BatchGateway> gateway;
  if (args.gateway > 0) {
    serve::GatewayOptions gopts;
    gopts.window_max_requests = args.gateway;
    gopts.window_wait = std::chrono::microseconds(5000);
    gateway = std::make_unique<serve::BatchGateway>(svc, gopts);
    std::printf("gateway: %zu concurrent clients/round, window %zu reqs / "
                "%lld us\n",
                args.gateway, gopts.window_max_requests,
                static_cast<long long>(gopts.window_wait.count()));
  }

  double host_s = 0;
  double modeled_s = 0;
  double gateway_wall_s = 0;
  std::size_t resident = initial;
  std::vector<std::uint64_t> last_shard_pairs;
  for (std::size_t b = 0; b < args.serve_batches; ++b) {
    if (sharded && args.compact && b == args.serve_batches / 2) {
      // Mid-serve compaction: re-chunk and physically drop the tombstones
      // (threshold 0 drops any dead row); readers pinned to earlier
      // snapshots are unaffected.
      service::CompactOptions copts;
      copts.dead_fraction = 0.0;
      const auto report = corpus->compact(copts);
      std::printf("compacted: %zu -> %zu shards, %zu rows dropped, %zu "
                  "rebuilt\n",
                  report.shards_before, report.shards_after,
                  report.rows_dropped, report.shards_rebuilt);
    }
    // Append-driven growth: one slice of the held-back rows per batch, so
    // the session serves while the corpus fills toward its final size.
    if (resident < n) {
      const std::size_t remaining_batches = args.serve_batches - b;
      const std::size_t take = std::max<std::size_t>(
          1, (n - resident + remaining_batches - 1) / remaining_batches);
      const std::size_t end = std::min(n, resident + take);
      corpus->append(row_slice(points, resident, end));
      std::printf("appended rows [%zu, %zu): %zu shards resident\n", resident,
                  end, corpus->shard_count());
      resident = end;
    }
    if (gateway != nullptr) {
      const auto round_start = Clock::now();
      std::vector<serve::BatchGateway::TicketPtr> tickets(args.gateway);
      std::vector<std::thread> clients;
      clients.reserve(args.gateway);
      for (std::size_t c = 0; c < args.gateway; ++c) {
        clients.emplace_back([&, c] {
          service::EpsQuery request;
          request.points =
              make_query_batch(args, points, b * args.gateway + c);
          request.eps = eps;
          serve::BatchGateway::TicketPtr t;
          // Ring-full is backpressure, not failure: retry until admitted.
          while ((t = gateway->try_submit(request)) == nullptr) {
            std::this_thread::yield();
          }
          t->wait();
          tickets[c] = std::move(t);
        });
      }
      for (std::thread& t : clients) t.join();
      gateway_wall_s +=
          std::chrono::duration<double>(Clock::now() - round_start).count();

      // Every request in a window shares one drain and reports the same
      // host_seconds — take the per-round max instead of summing, so the
      // printed host time stays the corpus-side cost, not N copies of it.
      std::uint64_t round_pairs = 0;
      double round_host = 0;
      double round_modeled = 0;
      for (const auto& t : tickets) {
        const auto& resp = t->wait();
        if (resp.state != serve::RequestState::kDone) {
          std::fprintf(stderr, "gateway request failed: %s\n",
                       resp.error.c_str());
          return 1;
        }
        round_pairs += resp.eps.pair_count;
        round_host = std::max(round_host, resp.eps.host_seconds);
        round_modeled = std::max(round_modeled, resp.eps.timing.total_s());
        last_shard_pairs = resp.eps.shard_pairs;
      }
      host_s += round_host;
      modeled_s += round_modeled;
      std::printf("round %-3zu clients=%zu pairs=%-12llu shared-drain "
                  "host=%.3f s\n",
                  b, args.gateway,
                  static_cast<unsigned long long>(round_pairs), round_host);
      continue;
    }
    service::EpsQuery request;
    request.points = make_query_batch(args, points, b);
    request.eps = eps;
    const auto out = svc->eps_join(request);
    host_s += out.host_seconds;
    modeled_s += out.timing.total_s();
    last_shard_pairs = out.shard_pairs;
    std::printf("batch %-3zu pairs=%-12llu modeled A100=%.6f s   host=%.3f s"
                "   (%zu x %zu block tiles)\n",
                b, static_cast<unsigned long long>(out.pair_count),
                out.timing.total_s(), out.host_seconds, out.perf.query_tiles,
                out.perf.corpus_tiles);
  }

  const auto stats = svc->stats();
  const double served = static_cast<double>(stats.queries);
  std::printf("served %llu queries in %llu batches: %llu pairs "
              "(%llu tombstone-filtered)\n",
              static_cast<unsigned long long>(stats.queries),
              static_cast<unsigned long long>(stats.eps_batches),
              static_cast<unsigned long long>(stats.pairs),
              static_cast<unsigned long long>(stats.pairs_tombstoned));
  if (host_s > 0 && modeled_s > 0) {
    std::printf("throughput: %.0f queries/s host, %.0f queries/s modeled "
                "A100 (corpus legs amortized)\n",
                served / host_s, served / modeled_s);
  }
  if (sharded && args.rebalance) {
    const auto report = corpus->rebalance();
    if (report.moved != 0) {
      std::printf("rebalanced: moved %zu shard%s from domain %zu to %zu\n",
                  report.moved, report.moved == 1 ? "" : "s",
                  report.from_domain, report.to_domain);
    } else {
      std::printf("rebalance: no move (domain loads within threshold)\n");
    }
  }
  print_domain_loads(stats);
  print_phase_latencies(stats);
  if (gateway != nullptr) {
    gateway->stop();
    const auto gstats = gateway->stats();
    std::printf("gateway: %llu served / %llu submitted (%llu rejected, "
                "%llu expired, %llu failed) in %llu windows, coalescing "
                "factor %.2f\n",
                static_cast<unsigned long long>(gstats.served),
                static_cast<unsigned long long>(gstats.submitted),
                static_cast<unsigned long long>(gstats.rejected),
                static_cast<unsigned long long>(gstats.expired),
                static_cast<unsigned long long>(gstats.failed),
                static_cast<unsigned long long>(gstats.windows),
                gstats.coalescing_factor);
    if (gateway_wall_s > 0) {
      std::printf("gateway wall throughput: %.0f queries/s over %zu "
                  "rounds\n",
                  static_cast<double>(stats.queries) / gateway_wall_s,
                  args.serve_batches);
    }
    print_phase_table("gateway-phase latency", gstats.phase_latencies);
  }
  if (sharded) print_shard_table(*corpus, last_shard_pairs);
  if (!args.stats_json.empty() &&
      !write_stats_json(args.stats_json, svc.get(), gateway.get())) {
    return 1;
  }
  return 0;
}

void report(const char* name, std::uint64_t pairs, double selectivity,
            double modeled_s, double host_s) {
  std::printf("%-10s pairs=%-12llu selectivity=%-8.1f modeled A100=%.4f s   "
              "host=%.3f s\n",
              name, static_cast<unsigned long long>(pairs), selectivity,
              modeled_s, host_s);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    usage();
    return 1;
  }
  if (!kernels::kernel_selection_known(args.kernel)) {
    std::fprintf(stderr, "unknown --kernel \"%s\"; supported on this CPU:",
                 args.kernel.c_str());
    for (const kernels::RzDotKernel* k :
         kernels::KernelRegistry::global().supported()) {
      std::fprintf(stderr, " %s", k->name);
    }
    std::fprintf(stderr, " (plus \"auto\" and comma lists of these)\n");
    return 1;
  }
  if (!args.trace_path.empty()) {
    // Spans flush to the file at exit (same machinery as FASTED_TRACE).
    obs::trace_enable(args.trace_path);
    std::printf("tracing to %s\n", args.trace_path.c_str());
  }

  const MatrixF32 points = make_data(args);
  std::printf("dataset: %zu points x %zu dims\n", points.rows(),
              points.dims());
  {
    ThreadPool& pool = ThreadPool::global();
    std::printf("topology: %zu execution domain%s (%s), slots",
                pool.domain_count(), pool.domain_count() == 1 ? "" : "s",
                pool.topology().synthetic_spec() ? "FASTED_TOPOLOGY"
                                                 : "detected");
    for (std::size_t d = 0; d < pool.domain_count(); ++d) {
      std::printf(" %zu", pool.domain_size(d));
    }
    std::printf("\n");
  }

  float eps;
  if (args.eps) {
    eps = *args.eps;
  } else {
    // Traced under the same span name as the service-side calibration: in
    // serve mode the CLI resolves eps up front, so this IS the calibrate
    // phase of the run.
    obs::TraceSpan span("calibrate", "cli");
    const auto cal = data::calibrate_epsilon(points, args.selectivity);
    eps = cal.eps;
    std::printf("calibrated eps=%.5g for selectivity %.0f\n", eps,
                args.selectivity);
  }

  // Schedule search before any serving or joining: model-pruned, then
  // probe-refined on a sample of the actual corpus (tune/autotuner.hpp).
  // A schedule can come from this search (--autotune) or a file saved by a
  // previous run (--load-schedule, no re-probing); either way it flows to
  // service and self-join modes identically.
  std::optional<tune::Schedule> schedule;
  if (args.autotune) {
    ThreadPool& pool = ThreadPool::global();
    const std::size_t domains =
        args.domains > 0 ? args.domains : pool.domain_count();
    tune::TuneOptions topts;
    topts.probe_rows = args.probe_rows;
    tune::AutoTuner tuner(FastedConfig::paper_defaults(), topts);
    const auto tune_start = std::chrono::steady_clock::now();
    const auto tuned = tuner.tune(points, points.rows(), domains, eps);
    const double tune_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - tune_start)
                              .count();
    std::printf("autotune: %zu schedules, %zu model-scored combos, %zu "
                "probes in %.2f s\n",
                tuned.space_size, tuned.model_scored, tuned.probes, tune_s);
    std::printf("%s", tuned.table().c_str());
    const double speedup =
        tuned.default_pairs_per_s > 0
            ? tuned.best_pairs_per_s / tuned.default_pairs_per_s
            : 1.0;
    std::printf("chosen schedule: %s (measured %.2fx vs default)\n",
                tuned.best.describe().c_str(), speedup);
    schedule = tuned.best;
    if (!args.save_schedule.empty()) {
      std::FILE* f = std::fopen(args.save_schedule.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", args.save_schedule.c_str());
        return 1;
      }
      const std::string text = tuned.best.json() + "\n";
      std::fputs(text.c_str(), f);
      std::fclose(f);
      std::printf("schedule saved to %s\n", args.save_schedule.c_str());
    }
  } else if (!args.save_schedule.empty()) {
    std::fprintf(stderr,
                 "warning: --save-schedule needs --autotune; nothing saved\n");
  }
  if (!args.load_schedule.empty()) {
    if (args.autotune) {
      std::fprintf(stderr,
                   "warning: --load-schedule ignored, --autotune searched a "
                   "fresh schedule\n");
    } else {
      std::FILE* f = std::fopen(args.load_schedule.c_str(), "r");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot read %s\n", args.load_schedule.c_str());
        return 1;
      }
      std::string text;
      char buf[4096];
      std::size_t got;
      while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
        text.append(buf, got);
      }
      std::fclose(f);
      try {
        tune::Schedule loaded = tune::Schedule::from_json(text);
        if (!loaded.valid(FastedConfig::paper_defaults())) {
          std::fprintf(stderr, "loaded schedule is invalid: %s\n",
                       loaded.describe().c_str());
          return 1;
        }
        schedule = loaded;
      } catch (const CheckError& e) {
        std::fprintf(stderr, "cannot parse %s: %s\n",
                     args.load_schedule.c_str(), e.what());
        return 1;
      }
      std::printf("loaded schedule: %s\n", schedule->describe().c_str());
    }
  }

  // A schedule that never chose a kernel ("auto" — saved before the kernel
  // dimension existed, or tuned over the default space) defers to the
  // explicit --kernel flag; a schedule that DID pin one keeps its choice.
  if (schedule && args.kernel != "auto" && schedule->kernel == "auto") {
    schedule->kernel = args.kernel;
  }

  if (args.gateway > 0 && args.queries == 0) {
    std::fprintf(stderr,
                 "warning: --gateway needs service mode (--queries N); "
                 "ignoring\n");
  }
  if (args.queries > 0) {
    return run_service_mode(args, points, eps,
                            schedule ? &*schedule : nullptr);
  }

  const bool all = args.algo == "all";
  if (all || args.algo == "fasted") {
    FastedEngine engine(schedule ? schedule->apply(base_config(args))
                                 : base_config(args));
    if (schedule) {
      std::printf("self-join on tuned schedule: %s\n",
                  engine.config().describe().c_str());
    }
    // --shards N runs the sharded plan composition (per-shard triangular +
    // shard-pair rectangular tiles); results are bit-identical to the
    // monolithic self-join.
    JoinOutput out;
    if (args.shards > 1) {
      const PreparedShards set =
          prepare_shards(points, args.shards, args.domains);
      out = engine.self_join(set.span(), eps);
      std::printf("sharded self-join: %zu shards\n", set.views.size());
    } else {
      if (args.domains > 0) {
        std::fprintf(stderr,
                     "warning: --domains needs --shards (or service mode); "
                     "running the monolithic self-join\n");
      }
      out = engine.self_join(points, eps);
    }
    report("FaSTED", out.pair_count, out.result.selectivity(),
           out.timing.total_s(), out.host_seconds);
    std::printf("           kernel %.1f TFLOPS at %.2f GHz\n",
                out.perf.derived_tflops, out.perf.clock_ghz);
    if (!args.save_result.empty()) {
      io::save_result(out.result, args.save_result);
      std::printf("result saved to %s\n", args.save_result.c_str());
    }
  }
  if (all || args.algo == "gds") {
    const auto out = baselines::gds_self_join(points, eps);
    report("GDS-Join", out.pair_count, out.result.selectivity(),
           out.timing.total_s(), out.host_seconds);
  }
  if (all || args.algo == "mistic") {
    const auto out = baselines::mistic_self_join(points, eps);
    report("MiSTIC", out.pair_count, out.result.selectivity(),
           out.timing.total_s(), out.host_seconds);
  }
  if (all || args.algo == "ted") {
    const auto out = baselines::ted_self_join(points, eps);
    if (out.out_of_shared_memory) {
      std::printf("%-10s OOM: d=%zu exceeds the WMMA shared-memory staging\n",
                  "TED-Join", points.dims());
    } else {
      report("TED-Join", out.pair_count, out.result.selectivity(),
             out.timing.total_s(), out.host_seconds);
    }
  }
  if (!args.stats_json.empty() &&
      !write_stats_json(args.stats_json, nullptr)) {
    return 1;
  }
  return 0;
}
