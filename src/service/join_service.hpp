// Query-join front end over a resident ShardedCorpus.
//
// Accepts request batches and runs them through the asymmetric query-tile x
// corpus-tile kernels, decomposed into block-tile work items drained from
// the WorkQueue on the shared ThreadPool.  The corpus is N shards (N = 1
// for an undivided corpus): one JoinPlan per shard composed into a single
// drain, results merged by global row id — bit-identical to an
// engine-direct query_join on the undivided corpus for any shard count —
// and the corpus may grow, shrink and re-chunk between requests
// (sharded_corpus.hpp).
//
// Two request shapes:
//
//   EpsQuery   all corpus rows within a radius, per query.  The radius can
//              be given directly or calibrated from a selectivity target
//              via the corpus's calibration cache.  Results arrive as a
//              CSR QueryJoinResult or stream through a per-query callback.
//   KnnQuery   the k nearest corpus rows, per query, under the FP16-32
//              pipeline distance.  Implemented as an adaptive-radius eps
//              join (radius grown until enough queries are covered) with a
//              brute-force sweep for the stragglers — results are exactly
//              what a brute-force FP32-pipeline reference produces.
//
// All numerics are the bit-exact tensor-core pipeline: an EpsQuery whose
// batch equals the corpus reproduces self_join pair-for-pair.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "core/fasted.hpp"
#include "obs/histogram.hpp"
#include "service/sharded_corpus.hpp"
#include "tune/schedule.hpp"

namespace fasted::service {

struct EpsQuery {
  MatrixF32 points;
  // Search radius; negative means "calibrate from `selectivity`" using the
  // corpus's cached calibration.
  float eps = -1.0f;
  double selectivity = 64.0;
  // Honored by the batched eps_join.  The streaming overload always runs
  // the fast kernel (bit-identical to the emulated data path), so `path`
  // does not change its matches.
  ExecutionPath path = ExecutionPath::kFast;
};

struct KnnQuery {
  MatrixF32 points;
  std::size_t k = 1;
};

struct KnnOptions {
  double initial_growth = 3.0;   // first selectivity target = growth * k
  double radius_growth = 1.6;    // eps multiplier between rounds
  int max_rounds = 8;
  // Stop growing the radius once at most this fraction of the batch is
  // still short of k matches; the stragglers are brute-forced.
  double straggler_fraction = 0.05;
};

struct KnnBatchResult {
  // Row-major nq x k corpus ids, sorted by pipeline distance ascending,
  // ties by id; `distances` are the matching pipeline distances.
  std::vector<std::uint32_t> ids;
  std::vector<float> distances;
  std::size_t k = 0;
  int rounds = 0;  // adaptive-radius rounds used (max over query shards)

  std::uint32_t id(std::size_t query, std::size_t rank) const {
    return ids[query * k + rank];
  }
  float distance(std::size_t query, std::size_t rank) const {
    return distances[query * k + rank];
  }
};

// Latency summary of one serve phase, extracted from the service's
// per-worker histograms (see obs/histogram.hpp for the bucket scheme).
struct PhaseLatency {
  const char* phase = "";
  std::uint64_t count = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p95_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t max_ns = 0;
  double mean_ns = 0.0;
};

struct ServiceStats {
  std::uint64_t eps_batches = 0;
  std::uint64_t knn_batches = 0;
  std::uint64_t queries = 0;
  std::uint64_t pairs = 0;                  // surviving matches emitted
  std::uint64_t pairs_tombstoned = 0;       // matches dropped by delete masks
  std::uint64_t knn_brute_force_queries = 0;  // straggler sweeps
  // Automatic schedule re-tunes triggered by corpus-size regime changes
  // (see JoinService::enable_regime_retune).
  std::uint64_t schedule_retunes = 0;
  // Coalesced serving (eps_join_coalesced / the batch gateway): windows
  // drained and the requests they carried.  coalesced_requests /
  // coalesced_windows is the service-side coalescing factor; each coalesced
  // request also counts once in eps_batches, so sequential and gateway
  // serving report comparable batch totals.
  std::uint64_t coalesced_windows = 0;
  std::uint64_t coalesced_requests = 0;
  // Per-domain drain/steal tile counters and time-in-phase, scoped to THIS
  // service's lifetime (delta since construction against the shared pool's
  // cumulative counters, so two services on one pool don't attribute each
  // other's tiles).  The executor attributes every tile to the domain
  // OWNING the corpus shard it came from: tiles_stolen[d] rising faster
  // than tiles_drained[d] means domain d cannot keep up with its own
  // shards — exactly the signal ShardedCorpus::rebalance() acts on.
  std::vector<DomainLoad> domain_loads;
  // Resolved rz_dot kernel name per execution domain (same indexing as
  // domain_loads): the engine's current kernel selection resolved against
  // the pool's per-domain CPU features at stats() time.  Reflects what a
  // join issued NOW would run — FASTED_RZ_KERNEL pins show up here too.
  std::vector<std::string> domain_kernels;
  // One entry per serve phase with recorded samples (admission_wait,
  // calibrate, eps_drain, coalesced_drain, stream_deliver, knn_round,
  // knn_brute).
  std::vector<PhaseLatency> phase_latencies;

  // The whole struct as one JSON object (counters, phases, domain loads).
  std::string json() const;
};

// Called once per query (in ascending query order within a work item; work
// items complete in any order).  The span is only valid for the duration of
// the call.  It runs on the streaming sink's consumer thread while the join
// is still in flight, so it must not issue further joins or other
// pool-using calls (that deadlocks against the pool); buffer and defer
// instead.
using EpsMatchCallback = kernels::QueryMatchCallback;

// Requests may be issued from any number of threads: they are admitted one
// at a time (each request already saturates the shared ThreadPool, whose
// fork-join jobs must not overlap), so concurrent callers queue rather
// than race.  Radius calibration runs BEFORE a request is admitted, so
// first-use calibration does not serialize concurrent cached-radius
// queries behind it.
class JoinService {
 public:
  explicit JoinService(std::shared_ptr<ShardedCorpus> corpus,
                       FastedEngine engine = FastedEngine());

  // Batched eps join: the full CSR result set.  The output's shard_pairs
  // carries each shard's hit count.
  QueryJoinOutput eps_join(const EpsQuery& request);

  // Streaming eps join: per-query matches are handed to `callback` as the
  // query strips complete, without materializing the batch-wide CSR; the
  // returned output carries counts, perf, and timing but an empty result.
  // All callbacks have completed by the time this returns.  If the
  // callback throws, it is not called again for this request and the first
  // exception is rethrown here once the join has drained.
  QueryJoinOutput eps_join(const EpsQuery& request,
                           const EpsMatchCallback& callback);

  // Coalesced eps join: the whole window of requests is served by ONE drain
  // — their query rows are concatenated into a single strip, joined against
  // one pinned snapshot at the window's widest radius, and demultiplexed
  // back per request by a kernels::DemuxSink that re-imposes each request's
  // own radius.  Element i of the returned vector is bit-identical to
  // eps_join(requests[i]) (the tile kernels compute distances independent
  // of eps and preparation is per-row — see demux_sink.hpp), but the corpus
  // traversal is paid once per window instead of once per request.  Radii
  // are resolved (calibration) before admission, like eps_join; `path` is
  // ignored (the fast kernel is bit-identical to emulated).
  // host_seconds on every output is the shared window drain's wall time.
  std::vector<QueryJoinOutput> eps_join_coalesced(
      std::span<const EpsQuery> requests);

  // Batched k-nearest-neighbor lookup.  Requires 1 <= k <= the ALIVE
  // corpus size (tombstoned rows are never returned as neighbors).
  KnnBatchResult knn(const KnnQuery& request, const KnnOptions& options = {});

  // All-points kNN over the resident corpus itself (query set == corpus):
  // reuses the shards' prepared rows as successive query batches — no
  // copy, no re-quantization.
  // Tombstoned rows still get a result row (they remain valid query
  // points) but are never returned as anyone's neighbor — including their
  // own: a dead row's self-match is filtered like any other dead match.
  KnnBatchResult knn_corpus(std::size_t k, const KnnOptions& options = {});

  // --- Schedule control (src/tune/) ---
  // Swaps the serving engine onto `schedule` (tune/schedule.hpp).  A
  // schedule is pure execution policy, so results before and after are
  // bit-identical; only throughput and latency change.  Waits for the
  // serve slot: in-flight requests finish on the old schedule, later ones
  // run the new one.  With `rechunk_shards`, the corpus is also compacted
  // to the schedule's shard capacity (tombstones are left in place — ids
  // never shift under a re-tune).
  void set_schedule(const tune::Schedule& schedule,
                    bool rechunk_shards = false);
  // The schedule currently serving (the engine-config defaults until
  // set_schedule or a regime retune replaces them).
  tune::Schedule schedule() const;

  // When enabled, each request checks whether the corpus row count has
  // drifted by more than `factor`x (either direction) since the schedule
  // was last chosen; if so the service re-ranks the schedule space with
  // the perf model ALONE (AutoTuner::predict — no probe joins, cheap
  // enough to run inline) and swaps to the winner.  Measured tuning stays
  // an explicit operator action (the CLI's --autotune).
  void enable_regime_retune(bool on = true, double factor = 4.0);

  ShardedCorpus& sharded() { return *shards_; }
  const FastedEngine& engine() const { return engine_; }
  ServiceStats stats() const;
  // stats().json() — the CLI's --stats-json payload.
  std::string stats_json() const { return stats().json(); }

 private:
  // A request's pinned view of the corpus: the snapshot keeps the shards
  // alive for the request's duration, and `filter` carries its tombstone
  // masks (borrowed from the snapshot) so every join of the request filters
  // the exact row set the snapshot was taken with.
  struct CorpusRef {
    std::shared_ptr<const ShardedCorpus::Snapshot> snap;
    std::vector<CorpusShardView> views;
    kernels::TombstoneFilter filter;
    std::size_t rows = 0;   // logical rows incl. tombstoned (id space)
    std::size_t alive = 0;  // rows a query can actually match
  };
  CorpusRef corpus_ref() const;
  float resolve_eps(const EpsQuery& request);
  // First adaptive-radius eps for a kNN request (resolved before admission
  // so cold calibration does not hold the serve slot).
  float initial_knn_eps(std::size_t k, const KnnOptions& options);
  // Writes queries' kNN rows into result[row_base ...]; returns the number
  // of brute-forced stragglers and maxes `rounds` into the result.
  std::size_t knn_fill(const PreparedDataset& queries, const CorpusRef& ref,
                       std::size_t k, const KnnOptions& options,
                       float initial_eps, std::size_t row_base,
                       KnnBatchResult& result);

  // Blocks until this request owns the serve slot, recording the wait in
  // the admission_wait histogram (and as an "admit" trace span).
  std::unique_lock<std::mutex> admit();

  // Regime check + model-only retune (see enable_regime_retune).  Caller
  // holds the serve slot; `rows` is the request's pinned corpus size.
  void maybe_retune(std::size_t rows);

  std::shared_ptr<ShardedCorpus> shards_;
  FastedEngine engine_;
  // The engine config as constructed, BEFORE any schedule was applied —
  // every set_schedule/retune applies to this pristine base so successive
  // schedules never compound (a residency shrink from one schedule must
  // not leak into the next).
  FastedConfig base_config_;

  // Serve-phase latency histograms, owned PER SERVICE (two services on the
  // shared pool must not blend each other's tail latencies — same scoping
  // rule as domain_loads).  Recording is lock-free; stats() snapshots.
  struct PhaseSet {
    obs::ConcurrentHistogram admission_wait;  // serve-slot queueing
    obs::ConcurrentHistogram calibrate;       // selectivity -> eps resolution
    obs::ConcurrentHistogram eps_drain;       // join execution in eps_join
    obs::ConcurrentHistogram coalesced_drain;  // shared eps_join_coalesced drain
    obs::ConcurrentHistogram stream_deliver;  // streaming sink finish/flush
    obs::ConcurrentHistogram knn_round;       // one adaptive-radius round
    obs::ConcurrentHistogram knn_brute;       // straggler brute-force sweep
  };
  std::unique_ptr<PhaseSet> phases_ = std::make_unique<PhaseSet>();
  // Pool counters at construction: stats() reports the delta since, so a
  // service never claims tiles another service (or an earlier life of this
  // one) drained.
  DomainLoadSnapshot pool_baseline_;

  std::mutex serve_mutex_;  // admits one request at a time (see above)
  mutable std::mutex stats_mutex_;
  ServiceStats stats_;
  // Schedule state, guarded by stats_mutex_ (schedule() must not block
  // behind a serving request; the engine swap itself holds serve_mutex_).
  tune::Schedule schedule_;
  std::size_t last_tuned_rows_ = 0;  // corpus size when schedule_ was chosen
  bool retune_enabled_ = false;
  double retune_factor_ = 4.0;
};

}  // namespace fasted::service
