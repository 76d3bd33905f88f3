// FaSTED public API: mixed-precision (FP16 multiply / FP32 accumulate)
// Euclidean-distance self-join.
//
// Usage:
//
//   fasted::FastedEngine engine;                       // paper configuration
//   auto out = engine.self_join(points, /*eps=*/0.5f);
//   out.result.neighbors_of(i);                        // ids within eps of i
//   out.timing.total_s();                              // modeled A100 time
//
// Functional results are computed on the host with numerics bit-identical to
// the simulated tensor core (FP16 exact products, FP32 round-toward-zero
// accumulation, expanded-form distance of Eq. 1); GPU response times come
// from the performance model (core/perf_model.hpp).  The emulated execution
// path additionally runs the full staged data path (swizzle, ldmatrix
// phases, MMA fragments) and is tested for bit-equality with the fast path.

#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "core/config.hpp"
#include "core/kernels/result_sink.hpp"
#include "core/kernels/rz_dot.hpp"
#include "core/perf_model.hpp"
#include "core/result.hpp"

namespace fasted {

struct TimingBreakdown {
  double host_to_device_s = 0;   // point data over PCIe
  double precompute_s = 0;       // squared-norm kernel (Step 1)
  double kernel_s = 0;           // distance kernel (modeled)
  double device_to_host_s = 0;   // result pairs over PCIe
  double host_store_s = 0;       // materializing results in host memory
  double total_s() const {
    return host_to_device_s + precompute_s + kernel_s + device_to_host_s +
           host_store_s;
  }
};

enum class ExecutionPath {
  kFast,      // vectorizable host loop with tensor-core numerics
  kEmulated   // full fragment/ldmatrix/swizzle data-path emulation
};

struct JoinOptions {
  ExecutionPath path = ExecutionPath::kFast;
  bool build_result = true;  // false: count pairs only
  // Optional corpus tombstone filter (kernels/result_sink.hpp): matches
  // whose corpus row is dead are dropped SINK-side, so surviving rows keep
  // bit-exact distances — results equal physically removing the rows and
  // re-running.  Self-joins drop pairs with either endpoint dead.  Borrowed
  // for the duration of the call; null = no deletes.
  const kernels::TombstoneFilter* tombstones = nullptr;
};

struct JoinOutput {
  SelfJoinResult result;
  std::uint64_t pair_count = 0;
  PerfEstimate perf;        // modeled distance kernel
  TimingBreakdown timing;   // modeled end-to-end response time
  double host_seconds = 0;  // wall time of the functional computation
};

// Output of the asymmetric query-tile x corpus-tile kernel.  The modeled
// timing assumes a *corpus-resident* execution: only the query batch moves
// host-to-device and only the query norms are precomputed per request; the
// corpus legs are paid once by the owning session.
struct QueryJoinOutput {
  QueryJoinResult result;
  std::uint64_t pair_count = 0;
  // Hits per corpus shard (one entry per shard of the sharded overloads;
  // a single entry for the plain corpus overloads) — the service's per-shard
  // skew stats read this.
  std::vector<std::uint64_t> shard_pairs;
  PerfEstimate perf;        // includes query_tiles / corpus_tiles
  TimingBreakdown timing;
  double host_seconds = 0;
};

// The epilogue combine (paper Step 3) lives with the kernel family.
using kernels::epilogue_dist2;

// A dataset prepared for the FaSTED pipeline: FP16 quantization and the
// squared-norm precompute (Step 1) done once, reusable across any number of
// radius queries (eps sweeps, adaptive kNN rounds, batched joins).
class PreparedDataset {
 public:
  explicit PreparedDataset(const MatrixF32& data);

  // Row-subset gather: copies already-prepared rows (FP16 data, decoded
  // values, norms) without re-quantizing — the adaptive kNN rounds shrink
  // their active batch this way.
  static PreparedDataset gather(const PreparedDataset& src,
                                const std::vector<std::uint32_t>& rows);

  std::size_t rows() const { return dequant_.rows(); }
  std::size_t dims() const { return dequant_.dims(); }

  // FP16-exact coordinate values (decoded to FP32 for the fast path).
  const MatrixF32& values() const { return dequant_; }
  const MatrixF16& quantized() const { return fp16_; }
  const std::vector<float>& norms() const { return norms_; }

  // The FP16-32 pipeline squared distance between two prepared points.
  float pair_dist2(std::size_t i, std::size_t j) const;

 private:
  PreparedDataset() = default;  // for gather()

  MatrixF16 fp16_;
  MatrixF32 dequant_;
  std::vector<float> norms_;
};

// One shard of a sharded corpus as the engine sees it: the shard's prepared
// rows and the global id of its first row.  A span of these describes the
// whole logical corpus; shards must be contiguous in global row order
// (shard k's base is the sum of the preceding shards' row counts).  Because
// quantization, norms, and pair distances are all per-row, any shard
// decomposition of a corpus produces results bit-identical to the undivided
// corpus — the sharded entry points below rely on exactly that.
struct CorpusShardView {
  const PreparedDataset* prepared = nullptr;
  std::size_t base = 0;
  // Execution domain owning the shard's memory (common/topology.hpp); the
  // join executor routes this shard's drains to that domain's workers.
  // 0 everywhere on flat machines — placement degrades to a no-op.
  std::size_t domain = 0;
};

// A contiguous N-way split of a dataset with per-shard PreparedDatasets —
// the engine-facing shape of a sharded corpus without the service layer
// (benches, tests, embedders that manage their own shard storage).
// Move-only: `views` points into `prepared` (vector moves keep element
// addresses, copies would not).
struct PreparedShards {
  PreparedShards() = default;
  PreparedShards(PreparedShards&&) = default;
  PreparedShards& operator=(PreparedShards&&) = default;
  PreparedShards(const PreparedShards&) = delete;
  PreparedShards& operator=(const PreparedShards&) = delete;

  std::vector<PreparedDataset> prepared;
  std::vector<CorpusShardView> views;  // global row order

  std::span<const CorpusShardView> span() const {
    return {views.data(), views.size()};
  }
};

// Splits `data` into ceil(rows / shards)-row contiguous shards and prepares
// each; bit-identical inputs to preparing the whole dataset at once.
// Shards are placed round-robin over `placement_domains` execution domains
// (0 = the global pool's detected domain count) and each is prepared
// (first-touched) on its owning domain.
PreparedShards prepare_shards(const MatrixF32& data, std::size_t shards,
                              std::size_t placement_domains = 0);

class FastedEngine {
 public:
  explicit FastedEngine(FastedConfig config = FastedConfig::paper_defaults());

  // All-pairs distance similarity self-join: pairs with dist <= eps.
  JoinOutput self_join(const MatrixF32& data, float eps,
                       const JoinOptions& options = {}) const;

  // Same, on a prepared dataset (skips quantization + norm precompute;
  // modeled timing excludes the one-off preparation legs accordingly).
  JoinOutput self_join(const PreparedDataset& prepared, float eps,
                       const JoinOptions& options = {}) const;

  // Sharded self-join: the logical corpus is the concatenation of the
  // shards, and the plan set composes per-shard triangular plans (diagonal
  // blocks) with one rectangular plan per shard pair (off-diagonal blocks),
  // all drained in a single fork-join.  Every emitted hit lands in the
  // global strict upper triangle, so the CSR sink mirrors across shard
  // boundaries exactly as within one shard — results are bit-identical to
  // self_join on the undivided corpus, for any shard count.
  JoinOutput self_join(std::span<const CorpusShardView> shards, float eps,
                       const JoinOptions& options = {}) const;

  // Self-join processed in horizontal strips of `batch_rows` queries so the
  // device-resident result buffer stays bounded (the analog of GDS-Join's
  // result batching; FaSTED itself OOMs at Sift10M S=256 without it).
  // Functionally identical to self_join; the modeled timing adds per-batch
  // kernel launches and transfers.
  JoinOutput batched_self_join(const MatrixF32& data, float eps,
                               std::size_t batch_rows,
                               const JoinOptions& options = {}) const;

  // General range join: for every query row, the corpus rows within eps.
  // The result set has one row per query (no self pairs unless a query
  // coincides with a corpus point).  Both matrices must share `dims()`.
  JoinOutput join(const MatrixF32& queries, const MatrixF32& corpus,
                  float eps, const JoinOptions& options = {}) const;

  // The query-service kernel: joins a prepared query batch against a
  // prepared (resident) corpus, decomposed into block_tile_m x block_tile_n
  // work items drained from a rectangular WorkQueue on the thread pool.
  // Numerics are bit-identical to self_join (FP16 exact products, FP32 RZ
  // accumulation, expanded-form distance): a query batch equal to the
  // corpus reproduces the self-join pairs exactly.  Returns per-query
  // matches with their pipeline squared distances.
  QueryJoinOutput query_join(const PreparedDataset& queries,
                             const PreparedDataset& corpus, float eps,
                             const JoinOptions& options = {}) const;

  // Convenience overload preparing the query batch in place (the corpus
  // stays resident; query FP16 conversion + norms are counted in timing).
  QueryJoinOutput query_join(const MatrixF32& queries,
                             const PreparedDataset& corpus, float eps,
                             const JoinOptions& options = {}) const;

  // Sharded resident query join: one rectangular plan per corpus shard,
  // drained in a single fork-join, hits merged by global corpus id.
  // Bit-identical to query_join against the undivided corpus; shard_pairs
  // in the output carries each shard's hit count.
  QueryJoinOutput query_join(const PreparedDataset& queries,
                             std::span<const CorpusShardView> shards,
                             float eps, const JoinOptions& options = {}) const;

  // Sink-directed query join: same kernels and numerics as query_join, but
  // matches flow into `sink` instead of a batch-wide CSR.  One query_strip
  // plan per shard: each tile spans its full shard, so a query completes in
  // one tile per shard, and the per-tile sinks (kernels::StreamingSink,
  // kernels::DemuxSink) reassemble each query across shards.  Returns the
  // number of matches emitted.
  std::uint64_t query_join_into(const PreparedDataset& queries,
                                std::span<const CorpusShardView> shards,
                                float eps, kernels::ResultSink& sink) const;

  // Modeled response time of a corpus-resident query join: query-batch
  // upload + query-norm precompute + rectangular kernel + match download.
  TimingBreakdown model_query_response_time(std::size_t queries,
                                            std::size_t corpus, std::size_t d,
                                            std::uint64_t result_pairs) const;

  // Performance model only (no functional work): the derived-TFLOPS
  // experiments (Figs. 8-9, Tables 5-6) call this.
  PerfEstimate estimate(std::size_t n, std::size_t d) const;
  PerfEstimate estimate_join(std::size_t queries, std::size_t corpus,
                             std::size_t d) const;

  // Modeled end-to-end response time for a brute-force join returning
  // `result_pairs` pairs (used when the functional run is elsewhere).
  TimingBreakdown model_response_time(std::size_t n, std::size_t d,
                                      std::uint64_t result_pairs) const;

  // Device-memory feasibility on the modeled GPU: FP16 point data, squared
  // norms, and the on-device result buffer (ids + distance per pair) must
  // fit in the usable fraction of global memory.  Reproduces the paper's
  // Sift10M S=256 out-of-memory cell (Table 7).
  struct DeviceMemoryReport {
    double bytes_required = 0;
    double bytes_usable = 0;
    bool fits = true;
  };
  DeviceMemoryReport device_memory_report(std::size_t n, std::size_t d,
                                          std::uint64_t result_pairs) const;

  const FastedConfig& config() const { return config_; }

 private:
  FastedConfig config_;
};

// FP16-32 expanded-form squared distance between two quantized points given
// their precomputed squared norms — the exact value FaSTED's pipeline
// produces for the pair.  `dims` must cover the padded row (padding is
// zero and does not perturb the RZ accumulation).
float fasted_pair_dist2(const float* pi, const float* pj, std::size_t dims,
                        float si, float sj);

// Appends every corpus row in [begin, end) within the squared radius `eps2`
// of one prepared query row, with pipeline squared distances, ascending
// corpus id — a one-query convenience over the shared rz_dot panel kernels
// (kNN straggler sweeps, classifiers); pass eps2 = infinity to rank the
// whole corpus.
void query_row_join(const float* query, float query_norm,
                    const MatrixF32& corpus_values,
                    const std::vector<float>& corpus_norms, std::size_t begin,
                    std::size_t end, float eps2,
                    std::vector<QueryMatch>& out);

// Same, with the kernel chosen explicitly (callers that resolved a
// per-domain KernelContext pass the owning domain's kernel).  The
// kernel-less overload above uses the process-wide best (or the
// FASTED_RZ_KERNEL pin) from the immutable registry.
void query_row_join(const float* query, float query_norm,
                    const MatrixF32& corpus_values,
                    const std::vector<float>& corpus_norms, std::size_t begin,
                    std::size_t end, float eps2,
                    const kernels::RzDotKernel& kern,
                    std::vector<QueryMatch>& out);

}  // namespace fasted
