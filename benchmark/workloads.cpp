#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/matrix.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/fasted.hpp"
#include "core/kernels/kernel_context.hpp"
#include "core/kernels/rz_dot.hpp"
#include "data/calibrate.hpp"
#include "data/generators.hpp"
#include "oracle.hpp"
#include "serve/batch_gateway.hpp"
#include "service/join_service.hpp"
#include "service/sharded_corpus.hpp"
#include "spans.hpp"

namespace bench {

namespace {

using fasted::FastedEngine;
using fasted::MatrixF32;
using fasted::PreparedDataset;
using fasted::Rng;
using fasted::ThreadPool;
using fasted::row_slice;
using fasted::service::JoinService;
using fasted::service::ShardedCorpus;
using fasted::service::ShardedCorpusOptions;
using fasted::service::ShardedStats;

// Set-ups per run: at least kSetups and kSetupSeconds of them; setup_s is
// their median.
constexpr int kSetups = 3;
constexpr double kSetupSeconds = 1.0;
// Queries per eps / kNN batch, the selectivity every batch asks for, and k.
constexpr std::size_t kBatch = 32;
constexpr double kSelectivity = 64.0;
constexpr std::size_t kKnnK = 10;
// Eps checks scored against FP64 per run (the FP64 scan costs as much as
// the pipeline check, so overlap is scored on a prefix of the checks).
constexpr std::size_t kOverlapChecks = 96;
// CSR rows checked per self-join.
constexpr std::size_t kRowsPerJoin = 8;
// Open-loop point queries: arrival rate, deadline, and 1 in kGatewaySample
// responses is verified.
constexpr double kGatewayRate = 200.0;
constexpr std::chrono::milliseconds kDeadline{100};
constexpr std::size_t kGatewaySample = 16;
// Corpus rows the layer probes join (caps probe cost at d=960).
constexpr std::size_t kProbeRows = 4096;
// Warm-up before every measured loop: at least two operations and this
// long, so caches, allocators and the pool settle.
constexpr double kWarmupSeconds = 1.0;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// Median of a[i] - b[i]: paired differences of alternating measurements
// cancel the host drift that a difference of two medians would keep.
double median_diff(const std::vector<double>& a, const std::vector<double>& b) {
  std::vector<double> d(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) d[i] = a[i] - b[i];
  return median(std::move(d));
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

template <typename F>
double timed_s(F&& f) {
  const std::int64_t t0 = now_ns();
  f();
  return static_cast<double>(now_ns() - t0) / 1e9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t pool_busy_ns() {
  std::uint64_t ns = 0;
  for (const fasted::DomainLoad& l : ThreadPool::global().domain_loads()) {
    ns += l.drain_ns + l.steal_ns;
  }
  return ns;
}

// `nq` random rows of `pool`; their indices go to `picked`.
MatrixF32 pick_rows(const MatrixF32& pool, std::size_t nq, Rng& rng,
                    std::vector<std::size_t>& picked) {
  MatrixF32 out(nq, pool.dims());
  picked.resize(nq);
  for (std::size_t i = 0; i < nq; ++i) {
    picked[i] = rng.next_below(pool.rows());
    std::copy_n(pool.row(picked[i]), pool.stride(), out.row(i));
  }
  return out;
}

std::vector<std::uint32_t> alive_ids(const Snapshot& snap) {
  std::vector<std::uint32_t> ids;
  for (const auto& slot : snap) {
    for (std::size_t r = 0; r < slot.shard->rows(); ++r) {
      if (!row_dead(slot, r)) {
        ids.push_back(static_cast<std::uint32_t>(slot.shard->base + r));
      }
    }
  }
  return ids;
}

// Results of one measured main loop.
struct MainStats {
  double timed_s = 0;  // time inside measured operations (open loop: window)
  std::uint64_t ops = 0;
  std::uint64_t good = 0;  // completed (open loop: served in time)
  double evals = 0;        // distance evaluations the operations asked for
  std::vector<double> lat_ms;
  double cost = 0;  // headline cost per operation, for obs.trace_overhead

  // One completed closed-loop operation.
  void add(double seconds, double evals_asked) {
    timed_s += seconds;
    ++ops;
    ++good;
    evals += evals_asked;
    lat_ms.push_back(seconds * 1e3);
  }
};

double closed_loop_cost(const MainStats& m) {
  return m.timed_s / static_cast<double>(m.ops);
}

void warm_up(const std::function<void()>& op) {
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < 2 || static_cast<double>(now_ns() - t0) < kWarmupSeconds * 1e9;
       ++i) {
    op();
  }
}

struct Rig {
  std::shared_ptr<ShardedCorpus> corpus;
  std::shared_ptr<JoinService> service;
};

// Everything one workload run accumulates.
class Run {
 public:
  explicit Run(const Config& config) : cfg(config) {
    SpanRecorder::global().set_enabled(cfg.traced);
  }

  std::size_t scaled(std::size_t n, std::size_t floor = 16) const {
    return std::max(floor, static_cast<std::size_t>(std::llround(
                               static_cast<double>(n) * cfg.scale)));
  }

  void size(const std::string& name, double v) { out_.sizes[name] = v; }

  void put(const std::string& name, double v, std::uint64_t n,
           const char* source = "main") {
    out_.metrics[name] = Metric{v, n, source};
  }
  // Probes fill only what the workload's own loop did not measure.
  void probe(const std::string& name, double v, std::uint64_t n) {
    if (!has(name)) put(name, v, n, "probe");
  }
  bool has(const std::string& name) const {
    return out_.metrics.count(name) != 0;
  }
  double value(const std::string& name) const {
    return out_.metrics.at(name).value;
  }

  // Repeats `build` as set-ups until there are kSetups of them and they
  // took kSetupSeconds.  `reset` drops the previous serving state first
  // (outside the timing).
  template <typename F>
  void setups(std::size_t rows, const std::function<void()>& reset, F&& build) {
    double total = 0;
    for (int i = 0; i < kSetups || total < kSetupSeconds; ++i) {
      reset();
      setup(rows, build);
      total += setup_s_.back();
    }
  }

  // One timed set-up of `rows` rows.  `build(prepare)` constructs the
  // serving state and stores the time its preparation step took.
  template <typename F>
  void setup(std::size_t rows, F&& build) {
    double prepare = 0;
    setup_s_.push_back(timed_s([&] {
      Span span("setup", "bench");
      build(prepare);
    }));
    prepare_rows_per_s_.push_back(static_cast<double>(rows) / prepare);
  }

  Rig make_rig(const MatrixF32& rows, ShardedCorpusOptions options,
               double& prepare) {
    Rig rig;
    prepare = timed_s([&] {
      Span span("ShardedCorpus", "prepare");
      rig.corpus = std::make_shared<ShardedCorpus>(rows, options);
    });
    rig.service = std::make_shared<JoinService>(rig.corpus);
    return rig;
  }

  // eps_for_selectivity, timing the calls that miss the cache.
  float eps_for(ShardedCorpus& corpus, double target) {
    Span span("eps_for_selectivity", "calibrate");
    const std::uint64_t before = corpus.stats().calibration_misses;
    float eps = 0;
    const double s = timed_s([&] { eps = corpus.eps_for_selectivity(target); });
    if (corpus.stats().calibration_misses != before) {
      calibrate_miss_ms_.push_back(s * 1e3);
    }
    return eps;
  }
  void calibrate_miss(double ms) { calibrate_miss_ms_.push_back(ms); }

  // Runs the main loop for the configured seconds.  Traced runs split them:
  // the first half untraced, the second with spans on; the traced half is
  // returned and the cost ratio of the halves is the tracing overhead.
  MainStats measure(const std::function<MainStats(double)>& main) {
    if (!cfg.traced) return main(cfg.seconds);
    SpanRecorder::global().set_enabled(false);
    const MainStats plain = main(cfg.seconds / 2);
    SpanRecorder::global().set_enabled(true);
    const std::uint64_t busy0 = pool_busy_ns();
    const MainStats traced = main(cfg.seconds / 2);
    const double busy = static_cast<double>(pool_busy_ns() - busy0);
    put("obs.trace_overhead", traced.cost / plain.cost - 1.0, traced.ops);
    put("pool.busy_frac",
        busy / (traced.timed_s * 1e9 *
                static_cast<double>(ThreadPool::global().size())),
        traced.ops);
    return traced;
  }

  // Checks the responses sampled since the last call (outside every timing).
  void verify() {
    Span span("verify", "verify");
    oracle.verify();
  }

  // Verifies the sampled responses and fills the end-to-end metrics; the
  // latency tail is the `tail_q` quantile.
  RunResult finish(const MainStats& m, double tail_q) {
    verify();
    put("setup_s", median(setup_s_), setup_s_.size(), "setup");
    put("ops_per_s", static_cast<double>(m.good) / m.timed_s, m.ops);
    put("evals_per_s", m.evals / m.timed_s, m.ops);
    put("lat_p50_ms", quantile(m.lat_ms, 0.5), m.lat_ms.size());
    put("lat_tail_ms", quantile(m.lat_ms, tail_q), m.lat_ms.size());
    put("overlap_fp64", oracle.overlap_mean(), oracle.overlap_n());
    put("peak_rss_mb", peak_rss_mb(), 1);
    put("prepare.rows_per_s", median(prepare_rows_per_s_),
        prepare_rows_per_s_.size(), "setup");
    put("calibrate.miss_ms", median(calibrate_miss_ms_),
        calibrate_miss_ms_.size(), "setup");
    size("tail_quantile", tail_q);
    out_.attempted = oracle.attempted();
    out_.failed = oracle.failed();
    out_.incorrect = oracle.incorrect();
    out_.checks = oracle.checks();
    return out_;
  }

  const Config& cfg;
  Oracle oracle;

 private:
  RunResult out_;
  std::vector<double> setup_s_;
  std::vector<double> prepare_rows_per_s_;
  std::vector<double> calibrate_miss_ms_;
};

// --- open-loop point queries through the gateway ----------------------------

struct OpenLoop {
  // Per request, in submission order.  Latency runs from the request's due
  // time; a request that was rejected or expired counts at no less than
  // the deadline.
  std::vector<double> lat_ms;
  std::vector<char> ok;
  std::vector<double> lag_ms;  // how late the generator submitted
  std::uint64_t served = 0;
  double window_s = 0;  // from the start to the last completion
  struct Sample {
    std::size_t request = 0;
    std::size_t row = 0;  // held-out row queried
    std::vector<fasted::QueryMatch> matches;
  };
  std::vector<Sample> samples;  // responses kept for the oracle
};

// Poisson arrivals at `rate` for `seconds`: one thread submits 1-row eps
// requests on schedule, the calling thread collects tickets in FIFO order.
// Every `sample_every`-th response is kept (0 = none).  The arrival count
// is fixed at rate x seconds (arrival times are then uniform order
// statistics), so goodput does not vary with the seed's Poisson count.
OpenLoop open_loop(fasted::serve::BatchGateway& gateway, const MatrixF32& held,
                   float eps, double rate, double seconds, Rng& rng,
                   std::size_t sample_every) {
  using Clock = std::chrono::steady_clock;
  const auto count = static_cast<std::size_t>(std::llround(rate * seconds));
  std::vector<double> due_s(count);
  std::vector<std::size_t> rows(count);
  for (std::size_t i = 0; i < count; ++i) {
    due_s[i] = rng.next_double() * seconds;
    rows[i] = rng.next_below(held.rows());
  }
  std::sort(due_s.begin(), due_s.end());
  std::vector<MatrixF32> requests;
  requests.reserve(rows.size());
  for (const std::size_t r : rows) requests.push_back(row_slice(held, r, r + 1));

  struct Entry {
    std::size_t i = 0;
    fasted::serve::BatchGateway::TicketPtr ticket;
  };
  std::mutex mutex;  // guards queue and submitted_all
  std::condition_variable cv;
  std::deque<Entry> queue;
  bool submitted_all = false;

  OpenLoop out;
  out.lag_ms.resize(rows.size());
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  const auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due_s[i]));
  };
  std::thread submitter([&] {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      std::this_thread::sleep_until(due(i));
      out.lag_ms[i] =
          std::chrono::duration<double, std::milli>(Clock::now() - due(i))
              .count();
      fasted::service::EpsQuery q;
      q.points = std::move(requests[i]);
      q.eps = eps;
      fasted::serve::BatchGateway::TicketPtr ticket;
      {
        Span span("try_submit", "gateway", i + 1);
        try {
          ticket = gateway.try_submit(std::move(q), kDeadline);
        } catch (const std::exception&) {
          ticket = nullptr;  // counted as a failed request
        }
      }
      std::lock_guard<std::mutex> lock(mutex);
      queue.push_back(Entry{i, std::move(ticket)});
      cv.notify_one();
    }
    std::lock_guard<std::mutex> lock(mutex);
    submitted_all = true;
    cv.notify_one();
  });

  const double deadline_ms =
      std::chrono::duration<double, std::milli>(kDeadline).count();
  for (;;) {
    Entry e;
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return !queue.empty() || submitted_all; });
      if (queue.empty()) break;
      e = std::move(queue.front());
      queue.pop_front();
    }
    bool ok = false;
    if (e.ticket != nullptr) {
      Span span("wait", "gateway", e.i + 1);
      const auto& resp = e.ticket->wait();
      ok = resp.state == fasted::serve::RequestState::kDone;
      if (ok && sample_every != 0 && e.i % sample_every == 0) {
        const auto m = resp.eps.result.matches_of(0);
        out.samples.push_back(
            OpenLoop::Sample{e.i, rows[e.i], {m.begin(), m.end()}});
      }
    }
    const double lat =
        std::chrono::duration<double, std::milli>(Clock::now() - due(e.i))
            .count();
    out.lat_ms.push_back(ok ? lat : std::max(lat, deadline_ms));
    out.ok.push_back(ok ? 1 : 0);
    if (ok) ++out.served;
  }
  submitter.join();
  out.window_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

// The gateway's latency summary of one phase (all zero if never recorded).
fasted::service::PhaseLatency phase(const fasted::serve::GatewayStats& s,
                                    const char* name) {
  for (const auto& p : s.phase_latencies) {
    if (std::string(name) == p.phase) return p;
  }
  return {};
}

double phase_p50_ms(const fasted::serve::GatewayStats& s, const char* name) {
  return static_cast<double>(phase(s, name).p50_ns) / 1e6;
}

void put_gateway(Run& run, const fasted::serve::GatewayStats& s,
                 const OpenLoop& ol, bool from_probe) {
  const auto put = [&](const std::string& name, double v, std::uint64_t n) {
    from_probe ? run.probe(name, v, n) : run.put(name, v, n);
  };
  const auto drain = phase(s, "coalesced_drain");
  const double drain_ms_total =
      drain.mean_ns * static_cast<double>(drain.count) / 1e6;
  put("gateway.coalescing_factor", s.coalescing_factor, s.windows);
  put("gateway.admission_wait_p50_ms", phase_p50_ms(s, "admission_wait"),
      s.submitted);
  put("gateway.window_fill_p50_ms", phase_p50_ms(s, "window_fill"), s.windows);
  put("gateway.drain_p50_ms", phase_p50_ms(s, "coalesced_drain"), s.windows);
  put("gateway.drain_ms_per_request",
      s.served == 0 ? 0.0 : drain_ms_total / static_cast<double>(s.served),
      s.served);
  put("gateway.demux_p50_ms", phase_p50_ms(s, "demux"), s.windows);
  put("gateway.rejected", static_cast<double>(s.rejected), s.submitted);
  put("gateway.expired", static_cast<double>(s.expired), s.submitted);
  put("loadgen.lag_p99_ms", quantile(ol.lag_ms, 0.99), ol.lag_ms.size());
}

// --- layer probes (traced runs) ---------------------------------------------
// Each fills the metrics of one layer the workload's own loop did not
// measure, on the workload's data.

// Single-thread RZ terms/s of `kern` on one hot packed panel of `prep`.
double kernel_terms_per_s(const fasted::kernels::RzDotKernel& kern,
                          const PreparedDataset& prep) {
  namespace k = fasted::kernels;
  const MatrixF32& v = prep.values();
  const std::size_t dims = v.stride();
  std::vector<float> panel(dims * k::kPanelWidth);
  k::pack_panel(v.row(0), v.stride(), k::kPanelWidth, dims, panel.data());
  float acc[k::kQueryBlock * k::kPanelWidth];
  volatile float sink = 0;
  std::vector<double> trials;
  for (int t = 0; t < 7; ++t) {
    std::uint64_t calls = 0;
    const std::int64_t t0 = now_ns();
    std::int64_t elapsed = 0;
    while (elapsed < 30'000'000) {
      for (std::size_t r = 0; r < 64; ++r) {
        kern.dot_panel(v.row(k::kPanelWidth), v.stride(), k::kQueryBlock,
                       panel.data(), dims, acc);
        sink = sink + acc[r % (k::kQueryBlock * k::kPanelWidth)];
      }
      calls += 64;
      elapsed = now_ns() - t0;
    }
    trials.push_back(static_cast<double>(calls * k::kQueryBlock *
                                         k::kPanelWidth * dims) /
                     (static_cast<double>(elapsed) / 1e9));
  }
  return median(trials);
}

void probe_kernels(Run& run, const PreparedDataset& prep) {
  Span span("dot_panel", "kernels");
  const ThreadPool& pool = ThreadPool::global();
  const auto ctx = fasted::kernels::KernelContext::resolve("auto", pool);
  const double terms = kernel_terms_per_s(ctx.kernel(0), prep);
  run.probe("kernels.terms_per_s", terms, 7);
  run.probe("kernels.scalar_terms_per_s",
            kernel_terms_per_s(fasted::kernels::rz_dot_scalar(), prep), 7);
  run.probe("kernels.ceiling_evals_per_s",
            terms * static_cast<double>(pool.size()) /
                static_cast<double>(prep.values().stride()),
            7);
}

// Count-only vs CSR self-joins of `prep`: executor rate and materialization.
void probe_executor(Run& run, const PreparedDataset& prep, float eps) {
  Span span("self_join", "executor");
  const FastedEngine engine;
  fasted::JoinOptions count_only;
  count_only.build_result = false;
  engine.self_join(prep, eps, count_only);  // warm-up
  std::vector<double> t_count, t_csr;
  std::uint64_t pairs = 0;
  // Materialization is a few percent of a join, so it takes many pairs,
  // each run in alternating order, for the difference to rise above noise.
  constexpr int kReps = 11;
  for (int r = 0; r < kReps; ++r) {
    const auto count = [&] {
      t_count.push_back(
          timed_s([&] { engine.self_join(prep, eps, count_only); }));
    };
    const auto csr = [&] {
      t_csr.push_back(
          timed_s([&] { pairs = engine.self_join(prep, eps).pair_count; }));
    };
    if (r % 2 == 0) {
      count();
      csr();
    } else {
      csr();
      count();
    }
  }
  const double n = static_cast<double>(prep.rows());
  const double rate = n * (n - 1) / 2 / median(t_count);
  run.probe("executor.evals_per_s", rate, kReps);
  run.probe("executor.efficiency",
            rate / run.value("kernels.ceiling_evals_per_s"), kReps);
  run.probe("result.materialize_ms", median_diff(t_csr, t_count) * 1e3, kReps);
  run.probe("result.pairs", static_cast<double>(pairs), kReps);
}

// JoinService vs engine-direct on the same pinned views, streamed, point.
void probe_service(Run& run, Rig& rig, const MatrixF32& held, float eps,
                   Rng& rng) {
  JoinService& svc = *rig.service;
  std::vector<std::size_t> picked;
  std::vector<double> t_svc, t_eng, t_stream, t_point;
  constexpr int kReps = 15;
  constexpr int kPoints = 16;
  for (int r = 0; r < kReps; ++r) {
    fasted::service::EpsQuery req;
    req.points = pick_rows(held, kBatch, rng, picked);
    req.eps = eps;
    t_svc.push_back(timed_s([&] {
      Span span("eps_join", "service");
      svc.eps_join(req);
    }));
    const auto snap = rig.corpus->snapshot();
    const auto views = ShardedCorpus::shard_views(*snap);
    const auto filter = ShardedCorpus::tombstone_filter(*snap);
    fasted::JoinOptions options;
    options.tombstones = filter.any() ? &filter : nullptr;
    t_eng.push_back(timed_s([&] {
      Span span("query_join", "executor");
      const PreparedDataset q(req.points);
      svc.engine().query_join(q, std::span<const fasted::CorpusShardView>(views),
                              eps, options);
    }));
    t_stream.push_back(timed_s([&] {
      Span span("eps_join_stream", "service");
      svc.eps_join(req, [](std::size_t, std::span<const fasted::QueryMatch>) {});
    }));
  }
  for (int r = 0; r < kPoints; ++r) {
    fasted::service::EpsQuery req;
    req.points = pick_rows(held, 1, rng, picked);
    req.eps = eps;
    t_point.push_back(timed_s([&] {
      Span span("eps_join", "service");
      svc.eps_join(req);
    }));
  }
  run.probe("service.overhead_ms", median_diff(t_svc, t_eng) * 1e3, kReps);
  run.probe("service.stream_ms", median(t_stream) * 1e3, kReps);
  run.probe("service.point_ms", median(t_point) * 1e3, kPoints);
}

void probe_knn(Run& run, Rig& rig, const MatrixF32& held, Rng& rng) {
  if (run.has("knn.rounds_mean")) return;
  JoinService& svc = *rig.service;
  std::vector<std::size_t> picked;
  const std::uint64_t brute0 = svc.stats().knn_brute_force_queries;
  std::vector<double> rounds;
  constexpr int kReps = 3;
  for (int r = 0; r < kReps; ++r) {
    fasted::service::KnnQuery req;
    req.points = pick_rows(held, kBatch, rng, picked);
    req.k = kKnnK;
    Span span("knn", "knn");
    rounds.push_back(svc.knn(req).rounds);
  }
  const double brute =
      static_cast<double>(svc.stats().knn_brute_force_queries - brute0);
  run.probe("knn.rounds_mean", mean(rounds), kReps);
  run.probe("knn.brute_frac", brute / (kReps * kBatch), kReps * kBatch);
}

void probe_gateway(Run& run, Rig& rig, const MatrixF32& held, float eps,
                   Rng& rng) {
  if (run.has("gateway.coalescing_factor")) return;
  fasted::serve::BatchGateway gateway(rig.service);
  const OpenLoop ol = open_loop(gateway, held, eps, kGatewayRate, 1.0, rng, 0);
  gateway.stop();
  put_gateway(run, gateway.stats(), ol, true);
}

// Mutates the corpus: run last.
void probe_lifecycle(Run& run, Rig& rig, const MatrixF32& held, Rng& rng) {
  if (run.has("lifecycle.append_ms")) return;
  ShardedCorpus& corpus = *rig.corpus;
  const std::uint64_t rebuilds0 = corpus.stats().open_rebuilds;
  const MatrixF32 rows =
      row_slice(held, 0, std::min<std::size_t>(512, held.rows()));
  const double append = timed_s([&] {
    Span span("append", "lifecycle");
    corpus.append(rows);
  });
  std::vector<std::uint32_t> ids;
  for (int i = 0; i < 128; ++i) {
    ids.push_back(static_cast<std::uint32_t>(rng.next_below(corpus.size())));
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  const double erase = timed_s([&] {
    Span span("erase", "lifecycle");
    corpus.erase(ids);
  });
  const double compact = timed_s([&] {
    Span span("compact", "lifecycle");
    corpus.compact();
  });
  run.probe("lifecycle.append_ms", append * 1e3, 1);
  run.probe("lifecycle.erase_ms", erase * 1e3, 1);
  run.probe("lifecycle.compact_ms", compact * 1e3, 1);
  run.probe("lifecycle.open_rebuilds",
            static_cast<double>(corpus.stats().open_rebuilds - rebuilds0), 1);
}

// Every probe, in an order that leaves the corpus mutation for last.
// `join_data` is what the kernel and executor probes join.
void probes(Run& run, const PreparedDataset& join_data, float join_eps,
            Rig& rig, const MatrixF32& held, float rig_eps) {
  Rng rng(run.cfg.seed ^ 0x9e0be5ull);
  probe_kernels(run, join_data);
  probe_executor(run, join_data, join_eps);
  probe_service(run, rig, held, rig_eps, rng);
  probe_knn(run, rig, held, rng);
  probe_gateway(run, rig, held, rig_eps, rng);
  probe_lifecycle(run, rig, held, rng);
}

// --- workloads --------------------------------------------------------------

// The paper's core operation: a brute-force FP16-32 self-join with CSR
// output.  Bypasses the service, calibration cache, gateway and lifecycle.
RunResult selfjoin_sift(const Config& cfg) {
  Run run(cfg);
  const std::size_t n = run.scaled(8192, 128);
  const std::size_t held_n = run.scaled(512, 32);
  const MatrixF32 all = fasted::data::sift_like(n + held_n, cfg.seed);
  const MatrixF32 data = row_slice(all, 0, n);
  const MatrixF32 held = row_slice(all, n, n + held_n);
  run.size("rows", static_cast<double>(n));
  run.size("dims", static_cast<double>(data.dims()));

  std::unique_ptr<PreparedDataset> prep;
  float eps = 0;
  run.setups(n, [&] { prep.reset(); }, [&](double& prepare) {
    prepare = timed_s([&] {
      Span span("PreparedDataset", "prepare");
      prep = std::make_unique<PreparedDataset>(data);
    });
    Span span("calibrate_epsilon", "calibrate");
    run.calibrate_miss(1e3 * timed_s([&] {
      eps = fasted::data::calibrate_epsilon(data, kSelectivity, cfg.seed).eps;
    }));
  });
  run.size("eps", eps);

  const FastedEngine engine;
  const double evals = static_cast<double>(n) * static_cast<double>(n - 1) / 2;
  Rng rng(cfg.seed ^ 0x5e1full);
  const auto join = [&](MainStats* m) {
    const std::size_t op = m == nullptr ? 0 : run.oracle.begin_op();
    fasted::JoinOutput out;
    const double s = timed_s([&] {
      Span span("self_join", "executor", op + 1);
      out = engine.self_join(*prep, eps);
    });
    if (m == nullptr) return;
    m->add(s, evals);
    for (std::size_t r = 0; r < kRowsPerJoin; ++r) {
      const std::size_t i = rng.next_below(n);
      run.oracle.check_self_row(op, data, *prep, i, eps,
                                out.result.neighbors_of(i),
                                run.oracle.checks() < kOverlapChecks);
    }
  };
  warm_up([&] { join(nullptr); });
  const MainStats m = run.measure([&](double seconds) {
    MainStats s;
    while (s.timed_s < seconds) join(&s);
    s.cost = closed_loop_cost(s);
    return s;
  });
  run.put("calibrate.misses", 0, m.ops);
  run.put("calibrate.blocks_built", 0, m.ops);

  if (cfg.traced) {
    double prepare = 0;
    Rig rig = run.make_rig(row_slice(data, 0, std::min(n, kProbeRows)), {},
                           prepare);
    probes(run, *prep, eps, rig, held, eps);
  }
  return run.finish(m, 0.75);
}

// A resident similarity-search service at d=960: CSR, streamed and kNN
// batches from one closed-loop client over a 4-shard corpus.
RunResult query_mix_gist(const Config& cfg) {
  // One batch in kMixCheckEvery is verified (a d=960 brute force costs half
  // a batch); co-prime with the 4-batch rotation, so every kind is checked.
  constexpr std::size_t kMixCheckEvery = 5;
  Run run(cfg);
  const std::size_t n = run.scaled(6000, 256);
  const std::size_t held_n = run.scaled(1024, 64);
  const MatrixF32 all = fasted::data::gist_like(n + held_n, cfg.seed);
  const MatrixF32 corpus_rows = row_slice(all, 0, n);
  const MatrixF32 held = row_slice(all, n, n + held_n);
  run.size("rows", static_cast<double>(n));
  run.size("dims", static_cast<double>(corpus_rows.dims()));

  ShardedCorpusOptions options;
  options.shards = 4;
  const double knn_target =
      fasted::service::KnnOptions{}.initial_growth * static_cast<double>(kKnnK);
  Rig rig;
  float eps = 0;
  run.setups(n, [&] { rig = {}; }, [&](double& prepare) {
    rig = run.make_rig(corpus_rows, options, prepare);
    eps = run.eps_for(*rig.corpus, kSelectivity);
    run.eps_for(*rig.corpus, knn_target);
  });
  run.size("eps", eps);
  ShardedCorpus& corpus = *rig.corpus;
  JoinService& svc = *rig.service;

  const double batch_evals = static_cast<double>(kBatch * n);
  Rng rng(cfg.seed ^ 0x91157ull);
  std::vector<std::size_t> picked;
  std::vector<double> stream_ms, knn_rounds;
  const auto eps_batch = [&](MainStats* m, bool stream) {
    fasted::service::EpsQuery req;
    req.points = pick_rows(held, kBatch, rng, picked);
    req.selectivity = kSelectivity;
    const std::size_t qi = rng.next_below(kBatch);
    const auto snap = corpus.snapshot();
    const std::size_t op = m == nullptr ? 0 : run.oracle.begin_op();
    fasted::QueryJoinOutput out;
    std::vector<fasted::QueryMatch> sampled;
    const double s = timed_s([&] {
      if (stream) {
        Span span("eps_join_stream", "service", op + 1);
        out = svc.eps_join(
            req, [&](std::size_t q, std::span<const fasted::QueryMatch> hits) {
              if (q == qi) sampled.assign(hits.begin(), hits.end());
            });
      } else {
        Span span("eps_join", "service", op + 1);
        out = svc.eps_join(req);
      }
    });
    if (m == nullptr) return;
    m->add(s, batch_evals);
    if (stream) {
      stream_ms.push_back(s * 1e3);
    } else {
      const auto hits = out.result.matches_of(qi);
      sampled.assign(hits.begin(), hits.end());
    }
    if (out.pair_count == 0) run.oracle.fail(op, true);
    if (op % kMixCheckEvery != 0) return;
    run.oracle.check_eps(op, snap, held.row(picked[qi]), held.dims(), eps,
                         sampled, run.oracle.checks() < kOverlapChecks);
  };
  const auto knn_batch = [&](MainStats* m) {
    fasted::service::KnnQuery req;
    req.points = pick_rows(held, kBatch, rng, picked);
    req.k = kKnnK;
    const std::size_t qi = rng.next_below(kBatch);
    const auto snap = corpus.snapshot();
    const std::size_t op = m == nullptr ? 0 : run.oracle.begin_op();
    fasted::service::KnnBatchResult res;
    const double s = timed_s([&] {
      Span span("knn", "knn", op + 1);
      res = svc.knn(req);
    });
    if (m == nullptr) return;
    m->add(s, batch_evals);
    knn_rounds.push_back(res.rounds);
    if (op % kMixCheckEvery != 0) return;
    run.oracle.check_knn(
        op, snap, held.row(picked[qi]), held.dims(), kKnnK,
        std::span<const std::uint32_t>(res.ids).subspan(qi * kKnnK, kKnnK),
        std::span<const float>(res.distances).subspan(qi * kKnnK, kKnnK));
  };
  const auto rotation = [&](MainStats* m) {
    eps_batch(m, false);
    eps_batch(m, false);
    eps_batch(m, true);
    knn_batch(m);
  };
  warm_up([&] { rotation(nullptr); });

  ShardedStats before, after;
  std::uint64_t brute = 0;
  const MainStats m = run.measure([&](double seconds) {
    stream_ms.clear();
    knn_rounds.clear();
    before = corpus.stats();
    const std::uint64_t brute0 = svc.stats().knn_brute_force_queries;
    MainStats s;
    while (s.timed_s < seconds) rotation(&s);
    s.cost = closed_loop_cost(s);
    after = corpus.stats();
    brute = svc.stats().knn_brute_force_queries - brute0;
    return s;
  });
  run.put("service.stream_ms", median(stream_ms), stream_ms.size());
  run.put("knn.rounds_mean", mean(knn_rounds), knn_rounds.size());
  run.put("knn.brute_frac",
          static_cast<double>(brute) /
              static_cast<double>(knn_rounds.size() * kBatch),
          knn_rounds.size() * kBatch);
  run.put("calibrate.misses",
          static_cast<double>(after.calibration_misses -
                              before.calibration_misses),
          m.ops);
  run.put("calibrate.blocks_built",
          static_cast<double>(after.calibration_blocks_built -
                              before.calibration_blocks_built),
          m.ops);

  if (cfg.traced) {
    const PreparedDataset sub(row_slice(corpus_rows, 0, std::min(n, kProbeRows)));
    probes(run, sub, eps, rig, held, eps);
  }
  return run.finish(m, 0.95);
}

// Open-loop point queries from independent users through the coalescing
// gateway, over a 1-shard corpus.  At 10000 rows the one-thread window
// drain keeps its worker about a quarter busy at 200/s; at 20000 rows it
// was half busy, and queueing doubled the run-to-run spread of latency.
RunResult point_gateway_sift(const Config& cfg) {
  Run run(cfg);
  const std::size_t n = run.scaled(10000, 256);
  const std::size_t held_n = run.scaled(1024, 64);
  const MatrixF32 all = fasted::data::sift_like(n + held_n, cfg.seed);
  const MatrixF32 corpus_rows = row_slice(all, 0, n);
  const MatrixF32 held = row_slice(all, n, n + held_n);
  run.size("rows", static_cast<double>(n));
  run.size("dims", static_cast<double>(corpus_rows.dims()));
  run.size("rate_per_s", kGatewayRate);

  Rig rig;
  float eps = 0;
  run.setups(n, [&] { rig = {}; }, [&](double& prepare) {
    rig = run.make_rig(corpus_rows, {}, prepare);
    eps = run.eps_for(*rig.corpus, kSelectivity);
  });
  run.size("eps", eps);
  const auto snap = rig.corpus->snapshot();

  Rng rng(cfg.seed ^ 0x6a7e11ull);
  {
    fasted::serve::BatchGateway warm(rig.service);
    open_loop(warm, held, eps, kGatewayRate, kWarmupSeconds, rng, 0);
  }
  fasted::serve::GatewayStats gstats;
  OpenLoop last;
  const MainStats m = run.measure([&](double seconds) {
    fasted::serve::BatchGateway gateway(rig.service);
    OpenLoop ol = open_loop(gateway, held, eps, kGatewayRate, seconds, rng,
                            kGatewaySample);
    gateway.stop();
    gstats = gateway.stats();
    MainStats s;
    s.timed_s = ol.window_s;
    s.ops = ol.lat_ms.size();
    s.good = ol.served;
    s.evals = static_cast<double>(ol.served * n);
    s.lat_ms = ol.lat_ms;
    s.cost = quantile(ol.lat_ms, 0.5);
    const std::size_t base = run.oracle.attempted();
    for (std::size_t i = 0; i < ol.ok.size(); ++i) {
      const std::size_t op = run.oracle.begin_op();
      if (!ol.ok[i]) run.oracle.fail(op, false);
    }
    for (const OpenLoop::Sample& sample : ol.samples) {
      run.oracle.check_eps(base + sample.request, snap, held.row(sample.row),
                           held.dims(), eps, sample.matches,
                           run.oracle.checks() < kOverlapChecks);
    }
    last = std::move(ol);
    return s;
  });
  put_gateway(run, gstats, last, false);
  run.put("calibrate.misses", 0, m.ops);
  run.put("calibrate.blocks_built", 0, m.ops);

  if (cfg.traced) {
    const PreparedDataset sub(row_slice(corpus_rows, 0, std::min(n, kProbeRows)));
    probes(run, sub, eps, rig, held, eps);
  }
  return run.finish(m, 0.95);
}

// Writes beside reads: a fixed sequence of appends, erases, compactions
// and calibrated eps batches, replayed on a fresh corpus per episode so a
// faster build does not grow the corpus more.  The operation is one cycle
// (an append, an erase, the batches and any compaction): the first batch
// after a mutation recalibrates, so per-batch latencies would be bimodal.
RunResult ingest_serve_sift(const Config& cfg) {
  constexpr std::size_t kCycles = 12;
  constexpr std::size_t kBatchesPerCycle = 4;
  constexpr std::size_t kCompactEvery = 8;
  Run run(cfg);
  const std::size_t n0 = run.scaled(4000, 256);
  const std::size_t capacity = run.scaled(2048, 64);
  const std::size_t append_n = run.scaled(256, 16);
  const std::size_t erase_n = run.scaled(64, 4);
  const std::size_t held_n = run.scaled(1024, 64);
  const std::size_t stream_n = kCycles * append_n;
  const MatrixF32 all =
      fasted::data::sift_like(n0 + stream_n + held_n, cfg.seed);
  const MatrixF32 base_rows = row_slice(all, 0, n0);
  const MatrixF32 stream = row_slice(all, n0, n0 + stream_n);
  const MatrixF32 held = row_slice(all, n0 + stream_n, n0 + stream_n + held_n);
  run.size("rows", static_cast<double>(n0));
  run.size("dims", static_cast<double>(base_rows.dims()));
  run.size("shard_capacity", static_cast<double>(capacity));
  run.size("append_rows", static_cast<double>(append_n));
  run.size("erase_rows", static_cast<double>(erase_n));
  run.size("cycles", kCycles);

  ShardedCorpusOptions options;
  options.shard_capacity = capacity;
  Rig rig;
  const auto reset = [&] { rig = {}; };
  const auto build = [&](double& prepare) {
    rig = run.make_rig(base_rows, options, prepare);
    run.eps_for(*rig.corpus, kSelectivity);
  };

  std::vector<double> append_ms, erase_ms, compact_ms;
  std::uint64_t open_rebuilds = 0, misses = 0, blocks = 0;
  // Runs `cycles` cycles on `rig`; m == nullptr is warm-up.
  const auto episode = [&](MainStats* m, std::size_t cycles) {
    ShardedCorpus& corpus = *rig.corpus;
    JoinService& svc = *rig.service;
    const ShardedStats before = corpus.stats();
    Rng rng(cfg.seed ^ 0x1a6e57ull);  // every episode replays the same ops
    std::vector<std::size_t> picked;
    std::vector<std::uint32_t> alive = alive_ids(*corpus.snapshot());
    const auto begin = [&] { return m == nullptr ? 0 : run.oracle.begin_op(); };
    double cycle_s = 0, cycle_evals = 0;
    const auto lifecycle = [&](std::vector<double>& lat, const char* name,
                               std::size_t op, const std::function<void()>& f) {
      const double s = timed_s([&] {
        Span span(name, "lifecycle", op + 1);
        f();
      });
      cycle_s += s;
      if (m != nullptr) lat.push_back(s * 1e3);
    };
    for (std::size_t c = 0; c < cycles; ++c) {
      cycle_s = cycle_evals = 0;
      const MatrixF32 rows =
          row_slice(stream, c * append_n, (c + 1) * append_n);
      const auto first = static_cast<std::uint32_t>(corpus.size());
      lifecycle(append_ms, "append", begin(), [&] { corpus.append(rows); });
      for (std::size_t i = 0; i < append_n; ++i) {
        alive.push_back(first + static_cast<std::uint32_t>(i));
      }

      std::vector<std::uint32_t> ids;
      for (std::size_t i = 0; i < erase_n; ++i) {
        const std::size_t j = rng.next_below(alive.size());
        ids.push_back(alive[j]);
        alive[j] = alive.back();
        alive.pop_back();
      }
      std::sort(ids.begin(), ids.end());
      lifecycle(erase_ms, "erase", begin(), [&] { corpus.erase(ids); });

      for (std::size_t b = 0; b < kBatchesPerCycle; ++b) {
        fasted::service::EpsQuery req;
        req.points = pick_rows(held, kBatch, rng, picked);
        req.selectivity = kSelectivity;
        const std::size_t qi = rng.next_below(kBatch);
        const std::size_t op = begin();
        float eps = 0;
        std::shared_ptr<const Snapshot> snap;
        fasted::QueryJoinOutput out;
        const double s = timed_s([&] {
          Span span("batch", "bench", op + 1);
          eps = run.eps_for(corpus, kSelectivity);
          snap = corpus.snapshot();
          Span join("eps_join", "service", op + 1);
          out = svc.eps_join(req);
        });
        cycle_s += s;
        cycle_evals += static_cast<double>(kBatch * corpus.size());
        if (m == nullptr) continue;
        if (out.pair_count == 0) run.oracle.fail(op, true);
        run.oracle.check_eps(op, snap, held.row(picked[qi]), held.dims(), eps,
                             out.result.matches_of(qi),
                             run.oracle.checks() < kOverlapChecks);
      }

      if (c % kCompactEvery == kCompactEvery - 1) {
        lifecycle(compact_ms, "compact", begin(), [&] { corpus.compact(); });
        alive = alive_ids(*corpus.snapshot());  // compaction may renumber
      }
      if (m != nullptr) m->add(cycle_s, cycle_evals);
    }
    if (m == nullptr) return;
    const ShardedStats after = corpus.stats();
    open_rebuilds += after.open_rebuilds - before.open_rebuilds;
    misses += after.calibration_misses - before.calibration_misses;
    blocks += after.calibration_blocks_built - before.calibration_blocks_built;
  };

  run.setups(n0, reset, build);
  episode(nullptr, 3);  // warm-up
  const MainStats m = run.measure([&](double seconds) {
    append_ms.clear();
    erase_ms.clear();
    compact_ms.clear();
    open_rebuilds = misses = blocks = 0;
    MainStats s;
    while (s.timed_s < seconds) {
      reset();
      run.setup(n0, build);  // every episode starts from a fresh corpus
      episode(&s, kCycles);
      run.verify();  // releases the episode's snapshots before the next
    }
    s.cost = closed_loop_cost(s);
    return s;
  });
  run.put("lifecycle.append_ms", median(append_ms), append_ms.size());
  run.put("lifecycle.erase_ms", median(erase_ms), erase_ms.size());
  run.put("lifecycle.compact_ms", median(compact_ms), compact_ms.size());
  run.put("lifecycle.open_rebuilds", static_cast<double>(open_rebuilds), m.ops);
  run.put("calibrate.misses", static_cast<double>(misses), m.ops);
  run.put("calibrate.blocks_built", static_cast<double>(blocks), m.ops);

  if (cfg.traced) {
    const PreparedDataset sub(row_slice(base_rows, 0, std::min(n0, kProbeRows)));
    const float eps = rig.corpus->eps_for_selectivity(kSelectivity);
    probes(run, sub, eps, rig, held, eps);
  }
  return run.finish(m, 0.75);
}

}  // namespace

RunResult run_workload(const Config& cfg) {
  ThreadPool::global();  // pool start-up stays out of every timing
  if (cfg.workload == "selfjoin_sift") return selfjoin_sift(cfg);
  if (cfg.workload == "query_mix_gist") return query_mix_gist(cfg);
  if (cfg.workload == "point_gateway_sift") return point_gateway_sift(cfg);
  if (cfg.workload == "ingest_serve_sift") return ingest_serve_sift(cfg);
  throw std::invalid_argument("unknown workload: " + cfg.workload);
}

}  // namespace bench
