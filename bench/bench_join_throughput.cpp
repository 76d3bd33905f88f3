// Join-throughput tracker: scalar vs SIMD rz_dot through the unified
// executor, on the two serving-relevant workloads — the full self-join and
// the corpus-resident query join — plus the sharded configurations (same
// joins through per-shard plan composition + merging sinks, per shard
// count).  Emits machine-readable BENCH_join.json (pairs/s and
// distance-evaluations/s per variant) so the perf trajectory is tracked
// across PRs; CI gates regressions against BENCH_baseline.json with
// tools/check_bench_regression.py.
//
// Domain-placement configs ride along: the same sharded joins with the
// pool partitioned into D synthetic execution domains (what
// FASTED_TOPOLOGY=DxC does), shards placed round-robin and drains routed
// with cross-domain stealing — the deltas vs domains=1 are the cost of
// topology routing itself (domains=1 IS the flat pre-topology path).
//
//   bench_join_throughput [corpus_n] [dims] [query_batch] [reps]
//                         (defaults 4096 64 1024 3)
//
// Every entry is the best of max(reps, 5) timed repetitions, repeated
// further until the entry has run for at least 50 ms.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "common/topology.hpp"
#include "core/fasted.hpp"
#include "core/kernels/kernel_context.hpp"
#include "core/kernels/rz_dot.hpp"
#include "data/calibrate.hpp"
#include "data/generators.hpp"
#include "obs/histogram.hpp"
#include "serve/batch_gateway.hpp"
#include "service/join_service.hpp"
#include "service/sharded_corpus.hpp"

using namespace fasted;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Measurement {
  std::string kernel;
  double seconds = 0;
  double evals_per_s = 0;   // candidate distance evaluations / second
  double pairs_per_s = 0;   // result pairs / second
  std::uint64_t pairs = 0;
  // Per-rep latency distribution (throughput above keys on the BEST rep;
  // the histogram keeps the tail so BENCH_history.jsonl can trend p95 and
  // run-to-run jitter shows as p95 pulling away from p50).
  obs::LatencyHistogram latency;
};

// Every entry runs at least this many timed repetitions, and keeps
// repeating until this much time has passed: a best-of over a couple of
// millisecond-scale reps is decided by scheduler noise on a shared host.
constexpr std::size_t kMinReps = 5;
constexpr double kMinEntrySeconds = 0.05;

template <typename Fn>
Measurement measure(const char* kernel_name, double evals, std::size_t reps,
                    const Fn& run) {
  Measurement m;
  m.kernel = kernel_name;
  // One untimed run first: the first join of a configuration pays for
  // panel scratch and page faults, which at ~1 ms per SIMD join can be a
  // third of the time and would decide the gate instead of the kernel.
  run();
  double best = 1e300;
  const double start = now_s();
  for (std::size_t r = 0;
       r < std::max(reps, kMinReps) || now_s() - start < kMinEntrySeconds;
       ++r) {
    const double t0 = now_s();
    m.pairs = run();
    const double rep_s = now_s() - t0;
    m.latency.record(static_cast<std::uint64_t>(rep_s * 1e9));
    best = std::min(best, rep_s);
  }
  m.seconds = best;
  m.evals_per_s = evals / best;
  m.pairs_per_s = static_cast<double>(m.pairs) / best;
  return m;
}

void print_row(const char* workload, const Measurement& m) {
  std::printf("%-12s %-8s %10.4f s %14.3e evals/s %14.3e pairs/s\n", workload,
              m.kernel.c_str(), m.seconds, m.evals_per_s, m.pairs_per_s);
}

void json_entry(FILE* f, const char* label, const Measurement& m) {
  // The latency keys are ignored by check_bench_regression.py (it only
  // reads pairs_per_s/speedup); bench_history.py picks them up for the
  // tail-latency columns.
  std::fprintf(f,
               "    \"%s\": {\"kernel\": \"%s\", \"seconds\": %.6f, "
               "\"evals_per_s\": %.1f, \"pairs_per_s\": %.1f, "
               "\"pairs\": %llu, \"p50_ns\": %llu, \"p95_ns\": %llu, "
               "\"p99_ns\": %llu},\n",
               label, m.kernel.c_str(), m.seconds, m.evals_per_s,
               m.pairs_per_s, static_cast<unsigned long long>(m.pairs),
               static_cast<unsigned long long>(m.latency.quantile_ns(0.50)),
               static_cast<unsigned long long>(m.latency.quantile_ns(0.95)),
               static_cast<unsigned long long>(m.latency.quantile_ns(0.99)));
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 4096;
  const std::size_t d = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 64;
  const std::size_t batch =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1024;
  const std::size_t reps = argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 3;

  bench::header("Join throughput: scalar vs SIMD rz_dot",
                "unified execution layer (no paper figure): kernel-family "
                "speedup on self-join and resident query-join");

  const kernels::KernelRegistry& registry = kernels::KernelRegistry::global();
  const kernels::RzDotKernel& simd = registry.best();
  std::printf("corpus %zu x %zu dims, query batch %zu, reps %zu\n", n, d,
              batch, reps);
  std::printf("best kernel: %s (supported:", simd.name);
  for (const kernels::RzDotKernel* k : registry.supported()) {
    std::printf(" %s", k->name);
  }
  std::printf(")\n\n");

  const auto corpus_data = data::uniform(n, d, 42);
  const auto query_data = data::uniform(batch, d, 4242);
  const float eps = data::calibrate_epsilon(corpus_data, 64.0).eps;
  const PreparedDataset corpus(corpus_data);
  const PreparedDataset queries(query_data);
  FastedEngine engine;
  JoinOptions count_only;
  count_only.build_result = false;

  const double self_evals =
      0.5 * static_cast<double>(n) * static_cast<double>(n - 1);
  const double query_evals =
      static_cast<double>(batch) * static_cast<double>(n);

  const auto run_self = [&] {
    return engine.self_join(corpus, eps, count_only).pair_count;
  };
  const auto run_query = [&] {
    return engine.query_join(queries, corpus, eps, count_only).pair_count;
  };

  // Kernel pinning goes through config (no process-global override): each
  // variant gets its own engine, and the default `engine` resolves "auto"
  // to the registry's best kernel once, at construction.
  FastedConfig scalar_cfg = FastedConfig::paper_defaults();
  scalar_cfg.rz_kernel = "scalar";
  const FastedEngine scalar_engine(scalar_cfg);
  const Measurement self_scalar = measure("scalar", self_evals, reps, [&] {
    return scalar_engine.self_join(corpus, eps, count_only).pair_count;
  });
  const Measurement query_scalar = measure("scalar", query_evals, reps, [&] {
    return scalar_engine.query_join(queries, corpus, eps, count_only)
        .pair_count;
  });
  const Measurement self_simd = measure(simd.name, self_evals, reps, run_self);
  const Measurement query_simd =
      measure(simd.name, query_evals, reps, run_query);

  print_row("self_join", self_scalar);
  print_row("self_join", self_simd);
  print_row("query_join", query_scalar);
  print_row("query_join", query_simd);
  const double self_speedup = self_scalar.seconds / self_simd.seconds;
  const double query_speedup = query_scalar.seconds / query_simd.seconds;
  std::printf("\nspeedup (%s over scalar): self-join %.2fx, query-join %.2fx\n",
              simd.name, self_speedup, query_speedup);

  // Per-kernel sweep: every registry variant this host supports, pinned via
  // config, on the same self-join.  Variants the host cannot run (e.g.
  // avx512 on an AVX2-only runner) are skipped loudly rather than silently
  // thinning the sweep.
  std::printf("\n");
  std::vector<std::pair<std::string, Measurement>> kernel_self;
  for (const char* name : {"scalar", "avx2", "avx512"}) {
    if (registry.find(name) == nullptr) {
      std::fprintf(stderr,
                   "kernel %s is not supported on this host; skipping its "
                   "bench config\n",
                   name);
      continue;
    }
    FastedConfig kcfg = FastedConfig::paper_defaults();
    kcfg.rz_kernel = name;
    const FastedEngine kengine(kcfg);
    char klabel[32];
    std::snprintf(klabel, sizeof klabel, "self/%s", name);
    const Measurement mk = measure(name, self_evals, reps, [&] {
      return kengine.self_join(corpus, eps, count_only).pair_count;
    });
    print_row(klabel, mk);
    kernel_self.emplace_back(name, mk);
  }

  // Sharded configurations: the same joins through per-shard plan
  // composition (triangular + shard-pair rectangular for self, rectangular
  // per shard for query), per shard count, on the dispatched kernel.  The
  // deltas vs 1 shard are the cost of shard composition itself — results
  // are bit-identical, so pairs/s is directly comparable.
  std::printf("\n");
  const std::size_t shard_counts[] = {1, 2, 4};
  std::vector<std::pair<std::size_t, Measurement>> sharded_self;
  std::vector<std::pair<std::size_t, Measurement>> sharded_query;
  for (const std::size_t shards : shard_counts) {
    const PreparedShards set = prepare_shards(corpus_data, shards);
    const std::span<const CorpusShardView> views = set.span();
    char label[32];
    std::snprintf(label, sizeof label, "self/s=%zu", shards);
    const Measurement ms = measure(simd.name, self_evals, reps, [&] {
      return engine.self_join(views, eps, count_only).pair_count;
    });
    print_row(label, ms);
    sharded_self.emplace_back(shards, ms);
    std::snprintf(label, sizeof label, "query/s=%zu", shards);
    const Measurement mq = measure(simd.name, query_evals, reps, [&] {
      return engine.query_join(queries, views, eps, count_only).pair_count;
    });
    print_row(label, mq);
    sharded_query.emplace_back(shards, mq);
  }

  // Topology configs: rebuild the pool with D synthetic domains, place 4
  // shards round-robin, and run the same joins through the locality-routed
  // drain (stealing on).  Results are bit-identical across D (property-
  // tested), so pairs/s deltas are pure routing overhead.
  std::printf("\n");
  const std::size_t domain_counts[] = {1, 2, 4};
  const std::size_t placement_shards = 4;
  std::vector<std::pair<std::size_t, Measurement>> domain_self;
  std::vector<std::pair<std::size_t, Measurement>> domain_query;
  for (const std::size_t ndom : domain_counts) {
    const Topology topo = Topology::synthetic(ndom);
    ThreadPool::reset_global(0, &topo);
    // Shards are re-prepared per pool so first-touch placement matches the
    // layout being measured.
    const PreparedShards set = prepare_shards(corpus_data, placement_shards);
    const std::span<const CorpusShardView> views = set.span();
    char label[32];
    std::snprintf(label, sizeof label, "self/d=%zu", ndom);
    const Measurement ms = measure(simd.name, self_evals, reps, [&] {
      return engine.self_join(views, eps, count_only).pair_count;
    });
    print_row(label, ms);
    domain_self.emplace_back(ndom, ms);
    std::snprintf(label, sizeof label, "query/d=%zu", ndom);
    const Measurement mq = measure(simd.name, query_evals, reps, [&] {
      return engine.query_join(queries, views, eps, count_only).pair_count;
    });
    print_row(label, mq);
    domain_query.emplace_back(ndom, mq);
  }
  ThreadPool::reset_global();  // back to the detected topology

  // Tombstone config: the same 4-shard resident query join with 20% of the
  // corpus delete-masked (every 5th row).  The kernel still evaluates every
  // pair — filtering is sink-side — so evals/s measures the filter's
  // overhead on the drain and pairs/s counts SURVIVING pairs.
  std::printf("\n");
  Measurement tomb_query;
  {
    const PreparedShards set = prepare_shards(corpus_data, 4);
    std::vector<std::vector<std::uint64_t>> masks(set.views.size());
    std::vector<kernels::TombstoneSpan> spans;
    for (std::size_t s = 0; s < set.views.size(); ++s) {
      const std::size_t rows = set.views[s].prepared->rows();
      masks[s].assign((rows + 63) / 64, 0);
      for (std::size_t r = (5 - set.views[s].base % 5) % 5; r < rows; r += 5) {
        masks[s][r >> 6] |= 1ull << (r & 63);
      }
      spans.push_back(kernels::TombstoneSpan{set.views[s].base, rows,
                                             masks[s].data()});
    }
    const kernels::TombstoneFilter filter(std::move(spans));
    JoinOptions tomb_only = count_only;
    tomb_only.tombstones = &filter;
    tomb_query = measure(simd.name, query_evals, reps, [&] {
      return engine.query_join(queries, set.span(), eps, tomb_only)
          .pair_count;
    });
    print_row("query/tomb20", tomb_query);
  }

  // Coalesced-serve config: 8 concurrent point-query clients through the
  // BatchGateway (all 8 requests coalesce into ONE shared drain per round)
  // vs the same 8 requests served back-to-back through JoinService.
  // Results are bit-identical (property-tested in tests/serve/); the delta
  // is what coalescing actually amortizes on the serving path: the dense
  // tile kernels sweep the corpus in multi-row query granules, so a
  // request below the granule pays the full granule's sweep — eight 1-row
  // point queries drained separately cost eight granule sweeps, coalesced
  // into one 8-row strip they cost two — plus the per-request admission /
  // preparation / sink setup paid once per window instead of once per
  // request.  (Point queries are the case cross-request coalescing exists
  // for: a client with a large batch already amortizes the corpus sweep
  // by itself.)
  std::printf("\n");
  Measurement serve_seq;
  Measurement serve_gw;
  double serve_speedup = 1.0;
  const std::size_t serve_clients = 8;
  const std::size_t serve_rows = 1;
  // Twice the self-join corpus: each point query sweeps it whole, so the
  // granule effect (not client-thread jitter) dominates the measurement.
  const std::size_t serve_n = 2 * n;
  {
    std::vector<MatrixF32> client_queries;
    client_queries.reserve(serve_clients);
    for (std::size_t c = 0; c < serve_clients; ++c) {
      client_queries.push_back(data::uniform(serve_rows, d, 9000 + c));
    }
    auto svc = std::make_shared<service::JoinService>(
        std::make_shared<service::ShardedCorpus>(
            data::uniform(serve_n, d, 43)));
    const double serve_evals = static_cast<double>(serve_clients) *
                               static_cast<double>(serve_rows) *
                               static_cast<double>(serve_n);
    serve_seq = measure(simd.name, serve_evals, reps, [&] {
      std::uint64_t pairs = 0;
      for (std::size_t c = 0; c < serve_clients; ++c) {
        service::EpsQuery request;
        request.points = MatrixF32(client_queries[c]);
        request.eps = eps;
        pairs += svc->eps_join(request).pair_count;
      }
      return pairs;
    });
    print_row("serve/seq8", serve_seq);

    serve::GatewayOptions gopts;
    gopts.window_max_requests = serve_clients;
    gopts.window_wait = std::chrono::microseconds(20000);
    serve::BatchGateway gateway(svc, gopts);
    serve_gw = measure(simd.name, serve_evals, reps, [&] {
      std::atomic<std::uint64_t> pairs{0};
      std::vector<std::thread> clients;
      clients.reserve(serve_clients);
      for (std::size_t c = 0; c < serve_clients; ++c) {
        clients.emplace_back([&, c] {
          service::EpsQuery request;
          request.points = MatrixF32(client_queries[c]);
          request.eps = eps;
          serve::BatchGateway::TicketPtr t;
          while ((t = gateway.try_submit(request)) == nullptr) {
            std::this_thread::yield();
          }
          pairs += t->wait().eps.pair_count;
        });
      }
      for (std::thread& t : clients) t.join();
      return pairs.load();
    });
    print_row("serve/gw8", serve_gw);
    serve_speedup = serve_seq.seconds / serve_gw.seconds;
    const auto gstats = gateway.stats();
    std::printf("\ncoalesced serve: %.2fx over sequential (%zu clients x %zu "
                "queries, coalescing factor %.2f)\n",
                serve_speedup, serve_clients, serve_rows,
                gstats.coalescing_factor);
  }

  FILE* f = std::fopen("BENCH_join.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_join.json\n");
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"config\": {\"corpus_n\": %zu, \"dims\": %zu, "
               "\"query_batch\": %zu, \"eps\": %.6g, \"simd_kernel\": "
               "\"%s\"},\n",
               n, d, batch, static_cast<double>(eps), simd.name);
  std::fprintf(f, "  \"self_join\": {\n");
  json_entry(f, "scalar", self_scalar);
  json_entry(f, "simd", self_simd);
  std::fprintf(f, "    \"speedup\": %.3f\n  },\n", self_speedup);
  std::fprintf(f, "  \"query_join\": {\n");
  json_entry(f, "scalar", query_scalar);
  json_entry(f, "simd", query_simd);
  std::fprintf(f, "    \"speedup\": %.3f\n  },\n", query_speedup);
  std::fprintf(f, "  \"kernel_self_join\": {\n");
  for (const auto& [kname, km] : kernel_self) {
    json_entry(f, kname.c_str(), km);
  }
  std::fprintf(f, "    \"kernels\": %zu\n  },\n", kernel_self.size());
  std::fprintf(f, "  \"sharded_self_join\": {\n");
  for (std::size_t i = 0; i < sharded_self.size(); ++i) {
    char label[32];
    std::snprintf(label, sizeof label, "shards_%zu", sharded_self[i].first);
    json_entry(f, label, sharded_self[i].second);
  }
  std::fprintf(f, "    \"shard_counts\": %zu\n  },\n", sharded_self.size());
  std::fprintf(f, "  \"sharded_query_join\": {\n");
  for (std::size_t i = 0; i < sharded_query.size(); ++i) {
    char label[32];
    std::snprintf(label, sizeof label, "shards_%zu", sharded_query[i].first);
    json_entry(f, label, sharded_query[i].second);
  }
  std::fprintf(f, "    \"shard_counts\": %zu\n  },\n", sharded_query.size());
  std::fprintf(f, "  \"domain_self_join\": {\n");
  for (std::size_t i = 0; i < domain_self.size(); ++i) {
    char label[32];
    std::snprintf(label, sizeof label, "domains_%zu", domain_self[i].first);
    json_entry(f, label, domain_self[i].second);
  }
  std::fprintf(f, "    \"shards\": %zu\n  },\n", placement_shards);
  std::fprintf(f, "  \"domain_query_join\": {\n");
  for (std::size_t i = 0; i < domain_query.size(); ++i) {
    char label[32];
    std::snprintf(label, sizeof label, "domains_%zu", domain_query[i].first);
    json_entry(f, label, domain_query[i].second);
  }
  std::fprintf(f, "    \"shards\": %zu\n  },\n", placement_shards);
  std::fprintf(f, "  \"tombstone_query_join\": {\n");
  json_entry(f, "tombstones_20", tomb_query);
  std::fprintf(f, "    \"dead_fraction\": 0.2\n  },\n");
  std::fprintf(f, "  \"coalesced_serve\": {\n");
  json_entry(f, "sequential_8", serve_seq);
  json_entry(f, "gateway_8", serve_gw);
  std::fprintf(f,
               "    \"clients\": %zu, \"rows_per_client\": %zu, "
               "\"corpus_n\": %zu, \"speedup\": %.3f\n  }\n",
               serve_clients, serve_rows, serve_n, serve_speedup);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote BENCH_join.json\n");

  bench::note("count-only joins isolate kernel throughput from CSR "
              "materialization; pairs/s counts emitted result pairs");
  return 0;
}
