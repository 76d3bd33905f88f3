#include "core/fasted.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <utility>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "core/kernels/join_executor.hpp"
#include "core/kernels/kernel_context.hpp"
#include "core/kernels/join_plan.hpp"
#include "core/sums.hpp"
#include "obs/metrics.hpp"

namespace fasted {

namespace {

// Engine entry points record into the global registry under engine.<op>,
// the same export path the service phases and baselines feed — one
// --stats-json / bench JSON carries them all.
obs::ConcurrentHistogram& engine_histogram(const char* op) {
  return obs::Registry::global().histogram(std::string("engine.") + op);
}

}  // namespace

float fasted_pair_dist2(const float* pi, const float* pj, std::size_t dims,
                        float si, float sj) {
  return epilogue_dist2(kernels::rz_dot_pair(pi, pj, dims), si, sj);
}

void query_row_join(const float* query, float query_norm,
                    const MatrixF32& corpus_values,
                    const std::vector<float>& corpus_norms, std::size_t begin,
                    std::size_t end, float eps2,
                    const kernels::RzDotKernel& kern,
                    std::vector<QueryMatch>& out) {
  const std::size_t dims = corpus_values.stride();
  thread_local std::vector<float> panel;
  panel.resize(dims * kernels::kPanelWidth);
  float acc[kernels::kPanelWidth];
  for (std::size_t j0 = begin; j0 < end; j0 += kernels::kPanelWidth) {
    const std::size_t width = std::min(kernels::kPanelWidth, end - j0);
    kernels::pack_panel(corpus_values.row(j0), corpus_values.stride(), width,
                        dims, panel.data());
    const kernels::PanelEpilogue ep{&query_norm, &corpus_norms[j0], width,
                                    eps2};
    std::uint32_t m = 0;
    kern.dot_panel_hits(query, 0, 1, panel.data(), dims, ep, acc, &m);
    for (; m != 0; m &= m - 1) {
      const std::size_t r = static_cast<std::size_t>(std::countr_zero(m));
      const std::size_t j = j0 + r;
      out.push_back(QueryMatch{static_cast<std::uint32_t>(j),
                               epilogue_dist2(acc[r], query_norm,
                                              corpus_norms[j])});
    }
  }
}

FastedEngine::FastedEngine(FastedConfig config) : config_(std::move(config)) {
  config_.validate();
}

PreparedShards prepare_shards(const MatrixF32& data, std::size_t shards,
                              std::size_t placement_domains) {
  FASTED_CHECK_MSG(data.rows() > 0, "empty dataset");
  FASTED_CHECK_MSG(shards >= 1, "need at least one shard");
  ThreadPool& pool = ThreadPool::global();
  const std::size_t ndom =
      placement_domains != 0 ? placement_domains : pool.domain_count();
  PreparedShards out;
  const std::size_t n = data.rows();
  const std::size_t chunk = (n + shards - 1) / shards;
  out.prepared.reserve((n + chunk - 1) / chunk);
  for (std::size_t base = 0; base < n; base += chunk) {
    // Round-robin placement: build (and therefore first-touch) each shard's
    // slice and prepared panels on the domain that will drain its joins.
    // On flat pools this is today's direct construction.
    const std::size_t domain = (base / chunk) % ndom;
    if (ndom > 1) {
      std::optional<PreparedDataset> built;
      pool.run_on_domain(domain, 0, 1, [&](std::size_t, std::size_t) {
        built.emplace(row_slice(data, base, std::min(base + chunk, n)));
      });
      out.prepared.push_back(std::move(*built));
    } else {
      out.prepared.emplace_back(
          row_slice(data, base, std::min(base + chunk, n)));
    }
  }
  for (std::size_t s = 0, base = 0; s < out.prepared.size(); ++s) {
    out.views.push_back(CorpusShardView{&out.prepared[s], base, s % ndom});
    base += out.prepared[s].rows();
  }
  return out;
}

PreparedDataset::PreparedDataset(const MatrixF32& data)
    : fp16_(to_fp16(data)),
      dequant_(to_fp32(fp16_)),
      norms_(squared_norms_fp16_rz(fp16_)) {}

float PreparedDataset::pair_dist2(std::size_t i, std::size_t j) const {
  return fasted_pair_dist2(dequant_.row(i), dequant_.row(j),
                           dequant_.stride(), norms_[i], norms_[j]);
}

PreparedDataset PreparedDataset::gather(const PreparedDataset& src,
                                        const std::vector<std::uint32_t>& rows) {
  PreparedDataset out;
  out.fp16_ = MatrixF16(rows.size(), src.dims());
  out.dequant_ = MatrixF32(rows.size(), src.dims());
  out.norms_.resize(rows.size());
  for (std::size_t a = 0; a < rows.size(); ++a) {
    const std::size_t i = rows[a];
    std::copy_n(src.fp16_.row(i), src.fp16_.stride(), out.fp16_.row(a));
    std::copy_n(src.dequant_.row(i), src.dequant_.stride(),
                out.dequant_.row(a));
    out.norms_[a] = src.norms_[i];
  }
  return out;
}

namespace {

// The executor views of one prepared dataset joined against another (or
// itself).  Quantized matrices ride along for the emulated data path.
kernels::JoinInputs join_inputs(const PreparedDataset& queries,
                                const PreparedDataset& corpus) {
  kernels::JoinInputs in;
  in.q_values = &queries.values();
  in.q_norms = &queries.norms();
  in.c_values = &corpus.values();
  in.c_norms = &corpus.norms();
  in.q_quant = &queries.quantized();
  in.c_quant = &corpus.quantized();
  return in;
}

// Validates a shard span — non-empty shards, contiguous global bases — and
// returns the total logical row count.
std::size_t sharded_rows(std::span<const CorpusShardView> shards) {
  FASTED_CHECK_MSG(!shards.empty(), "empty corpus shard span");
  std::size_t n = 0;
  for (const CorpusShardView& s : shards) {
    FASTED_CHECK_MSG(s.prepared != nullptr && s.prepared->rows() > 0,
                     "empty corpus shard");
    FASTED_CHECK_MSG(s.base == n,
                     "corpus shards must be contiguous in global row order");
    n += s.prepared->rows();
  }
  return n;
}

// A composed sharded plan set: the plans own the tile queues, the entries
// point at them (entries are built only after `plans` stops growing).
struct ShardedPlanSet {
  std::vector<kernels::JoinPlan> plans;
  std::vector<kernels::ShardJoin> entries;

  std::span<kernels::ShardJoin> span() {
    return {entries.data(), entries.size()};
  }
};

// One rectangular (or full-shard-width query_strip) plan per corpus shard.
ShardedPlanSet compose_query_plans(const FastedConfig& cfg,
                                   const PreparedDataset& queries,
                                   std::span<const CorpusShardView> shards,
                                   bool strip) {
  ShardedPlanSet set;
  set.plans.reserve(shards.size());
  set.entries.reserve(shards.size());
  for (const CorpusShardView& s : shards) {
    const std::size_t nc = s.prepared->rows();
    set.plans.push_back(
        strip ? kernels::JoinPlan::query_strip(cfg, queries.rows(), nc)
              : kernels::JoinPlan::rectangular(cfg, queries.rows(), nc));
  }
  for (std::size_t i = 0; i < shards.size(); ++i) {
    kernels::ShardJoin entry;
    entry.plan = &set.plans[i];
    entry.in = join_inputs(queries, *shards[i].prepared);
    entry.corpus_offset = shards[i].base;
    entry.shard = i;
    entry.domain = shards[i].domain;
    set.entries.push_back(entry);
  }
  return set;
}

// Sharded self-join decomposition: a triangular plan per shard (diagonal
// blocks, emitting j > i within the shard) plus a rectangular plan per
// shard pair a < b (off-diagonal blocks; every global pair there has
// query id < corpus id because bases ascend).  Together the entries cover
// the global strict upper triangle exactly once.
ShardedPlanSet compose_self_plans(const FastedConfig& cfg,
                                  std::span<const CorpusShardView> shards) {
  ShardedPlanSet set;
  const std::size_t k = shards.size();
  set.plans.reserve(k + k * (k - 1) / 2);
  set.entries.reserve(set.plans.capacity());
  for (const CorpusShardView& s : shards) {
    set.plans.push_back(
        kernels::JoinPlan::triangular_self(cfg, s.prepared->rows()));
  }
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = a + 1; b < k; ++b) {
      set.plans.push_back(kernels::JoinPlan::rectangular(
          cfg, shards[a].prepared->rows(), shards[b].prepared->rows()));
    }
  }
  std::size_t p = 0;
  for (std::size_t a = 0; a < k; ++a, ++p) {
    kernels::ShardJoin entry;
    entry.plan = &set.plans[p];
    entry.in = join_inputs(*shards[a].prepared, *shards[a].prepared);
    entry.query_offset = shards[a].base;
    entry.corpus_offset = shards[a].base;
    entry.shard = a;
    entry.domain = shards[a].domain;
    set.entries.push_back(entry);
  }
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = a + 1; b < k; ++b, ++p) {
      kernels::ShardJoin entry;
      entry.plan = &set.plans[p];
      entry.in = join_inputs(*shards[a].prepared, *shards[b].prepared);
      entry.query_offset = shards[a].base;
      entry.corpus_offset = shards[b].base;
      entry.shard = b;  // hits attributed to the corpus-side shard
      entry.domain = shards[b].domain;  // routed with the corpus-side shard
      set.entries.push_back(entry);
    }
  }
  return set;
}

}  // namespace

QueryJoinOutput FastedEngine::query_join(const PreparedDataset& queries,
                                         const PreparedDataset& corpus,
                                         float eps,
                                         const JoinOptions& options) const {
  const CorpusShardView whole{&corpus, 0};
  return query_join(queries, std::span<const CorpusShardView>(&whole, 1), eps,
                    options);
}

QueryJoinOutput FastedEngine::query_join(const PreparedDataset& queries,
                                         std::span<const CorpusShardView> shards,
                                         float eps,
                                         const JoinOptions& options) const {
  FASTED_CHECK_MSG(queries.rows() > 0, "empty query batch");
  const std::size_t nc = sharded_rows(shards);
  FASTED_CHECK_MSG(queries.dims() == shards.front().prepared->dims(),
                   "query/corpus dimensionality mismatch");
  FASTED_CHECK_MSG(eps >= 0, "negative search radius");
  static obs::ConcurrentHistogram& hist = engine_histogram("query_join");
  obs::PhaseTimer timer(hist);

  const bool emulated = options.path == ExecutionPath::kEmulated;
  ShardedPlanSet set =
      compose_query_plans(config_, queries, shards, /*strip=*/false);
  const kernels::KernelContext ctx =
      kernels::KernelContext::resolve(config_.rz_kernel, ThreadPool::global());

  // With a tombstone filter, pair_count is the SURVIVING match count (raw
  // kernel emissions minus the sink's drops); shard_pairs stays raw — it
  // measures per-shard drain work, which is what the skew table and the
  // rebalance policy want to see.
  QueryJoinOutput out;
  out.shard_pairs.assign(shards.size(), 0);
  if (options.build_result) {
    kernels::QueryJoinCsrSink sink(queries.rows());
    sink.filter_tombstones(options.tombstones);
    const std::uint64_t raw =
        kernels::execute_join(config_, set.span(), eps * eps, emulated, sink,
                              out.shard_pairs.data(), ctx);
    out.pair_count = raw - sink.dropped();
    out.result = sink.finalize();
  } else {
    kernels::CountSink sink;
    sink.filter_tombstones(options.tombstones);
    const std::uint64_t raw =
        kernels::execute_join(config_, set.span(), eps * eps, emulated, sink,
                              out.shard_pairs.data(), ctx);
    out.pair_count = raw - sink.dropped();
  }
  out.host_seconds = timer.seconds();
  out.perf = estimate_join(queries.rows(), nc, queries.dims());
  out.timing = model_query_response_time(queries.rows(), nc, queries.dims(),
                                         out.pair_count);
  return out;
}

std::uint64_t FastedEngine::query_join_into(
    const PreparedDataset& queries, std::span<const CorpusShardView> shards,
    float eps, kernels::ResultSink& sink) const {
  FASTED_CHECK_MSG(queries.rows() > 0, "empty query batch");
  sharded_rows(shards);
  FASTED_CHECK_MSG(queries.dims() == shards.front().prepared->dims(),
                   "query/corpus dimensionality mismatch");
  FASTED_CHECK_MSG(eps >= 0, "negative search radius");
  // Full-shard-width tiles so per-tile sinks see each query complete once
  // per shard (a merging sink reassembles the shards per query strip).
  ShardedPlanSet set =
      compose_query_plans(config_, queries, shards, /*strip=*/true);
  const kernels::KernelContext ctx =
      kernels::KernelContext::resolve(config_.rz_kernel, ThreadPool::global());
  return kernels::execute_join(config_, set.span(), eps * eps,
                               /*emulated=*/false, sink, nullptr, ctx);
}

JoinOutput FastedEngine::self_join(const MatrixF32& data, float eps,
                                   const JoinOptions& options) const {
  FASTED_CHECK_MSG(data.rows() > 0, "empty dataset");
  // Quantize to FP16 (the host->device representation) and precompute the
  // squared norms with tensor-core rounding.
  return self_join(PreparedDataset(data), eps, options);
}

JoinOutput FastedEngine::self_join(const PreparedDataset& prepared, float eps,
                                   const JoinOptions& options) const {
  FASTED_CHECK_MSG(prepared.rows() > 0, "empty dataset");
  const CorpusShardView whole{&prepared, 0};
  return self_join(std::span<const CorpusShardView>(&whole, 1), eps, options);
}

JoinOutput FastedEngine::self_join(std::span<const CorpusShardView> shards,
                                   float eps,
                                   const JoinOptions& options) const {
  const std::size_t n = sharded_rows(shards);
  const std::size_t d = shards.front().prepared->dims();
  FASTED_CHECK_MSG(eps >= 0, "negative search radius");
  static obs::ConcurrentHistogram& hist = engine_histogram("self_join");
  obs::PhaseTimer timer(hist);

  // The composed plans emit the global strict upper triangle once (fast
  // rz_dot kernels or the emulated block-tile data path — bit-identical by
  // construction), the sink mirrors (across shard boundaries like any other
  // pair), and the count recovers the mirrored half plus the n
  // always-within-eps self pairs.
  const bool emulated = options.path == ExecutionPath::kEmulated;
  const float eps2 = eps * eps;
  ShardedPlanSet set = compose_self_plans(config_, shards);
  const kernels::KernelContext ctx =
      kernels::KernelContext::resolve(config_.rz_kernel, ThreadPool::global());

  // Tombstoned rows contribute no pairs and no self pair: the sink drops
  // any upper-triangle hit touching a dead row, and the count arithmetic
  // recovers the mirrored half over the ALIVE diagonal only.
  const std::size_t alive =
      options.tombstones != nullptr
          ? n - static_cast<std::size_t>(options.tombstones->dead_count())
          : n;
  JoinOutput out;
  if (options.build_result) {
    kernels::SelfJoinCsrSink sink(n);
    sink.filter_tombstones(options.tombstones);
    const std::uint64_t hits = kernels::execute_join(
        config_, set.span(), eps2, emulated, sink, nullptr, ctx);
    out.pair_count = 2 * (hits - sink.dropped()) + alive;
    out.result = sink.finalize();
    FASTED_CHECK(out.result.pair_count() == out.pair_count);
  } else {
    kernels::CountSink sink(/*self_ends=*/true);
    sink.filter_tombstones(options.tombstones);
    const std::uint64_t hits = kernels::execute_join(
        config_, set.span(), eps2, emulated, sink, nullptr, ctx);
    out.pair_count = 2 * (hits - sink.dropped()) + alive;
  }
  out.host_seconds = timer.seconds();
  out.perf = estimate(n, d);
  out.timing = model_response_time(n, d, out.pair_count);
  return out;
}

PerfEstimate FastedEngine::estimate(std::size_t n, std::size_t d) const {
  return estimate_fasted_kernel(config_, n, d);
}

PerfEstimate FastedEngine::estimate_join(std::size_t queries,
                                         std::size_t corpus,
                                         std::size_t d) const {
  return estimate_fasted_join_kernel(config_, queries, corpus, d);
}

FastedEngine::DeviceMemoryReport FastedEngine::device_memory_report(
    std::size_t n, std::size_t d, std::uint64_t result_pairs) const {
  DeviceMemoryReport rep;
  const double data_bytes =
      static_cast<double>(n) * static_cast<double>(padded_dims<Fp16>(d)) * 2;
  const double norm_bytes = static_cast<double>(n) * 4;
  // Result buffer: pair ids (2 x u32) plus the FP32 distance.
  const double result_bytes =
      static_cast<double>(result_pairs) *
      (sizeof(ResultPair) + sizeof(float));
  rep.bytes_required = data_bytes + norm_bytes + result_bytes;
  rep.bytes_usable =
      config_.device.global_memory_bytes * config_.device.usable_memory_fraction;
  rep.fits = rep.bytes_required <= rep.bytes_usable;
  return rep;
}

TimingBreakdown FastedEngine::model_response_time(
    std::size_t n, std::size_t d, std::uint64_t result_pairs) const {
  const sim::DeviceSpec& dev = config_.device;
  TimingBreakdown t;
  const double data_bytes = static_cast<double>(n) * padded_dims<Fp16>(d) * 2;
  t.host_to_device_s =
      data_bytes / (dev.pcie_bandwidth_gbs * 1e9) + dev.kernel_launch_overhead_s;
  // Squared-norm kernel: 2*n*d FLOP on CUDA cores at a memory-bound ~30%.
  t.precompute_s = 2.0 * static_cast<double>(n) * static_cast<double>(d) /
                       (dev.device_fp32_cuda_tflops() * 1e12 * 0.30) +
                   dev.kernel_launch_overhead_s;
  t.kernel_s = estimate(n, d).kernel_seconds;
  const double result_bytes =
      static_cast<double>(result_pairs) * sizeof(ResultPair);
  t.device_to_host_s = result_bytes / (dev.pcie_bandwidth_gbs * 1e9);
  t.host_store_s = result_bytes / (8.0 * 1e9);  // host-side memcpy rate
  return t;
}

TimingBreakdown FastedEngine::model_query_response_time(
    std::size_t queries, std::size_t corpus, std::size_t d,
    std::uint64_t result_pairs) const {
  const sim::DeviceSpec& dev = config_.device;
  TimingBreakdown t;
  // Corpus-resident serving: only the query batch crosses PCIe and only the
  // query norms are recomputed; the corpus FP16 data, norms, and index were
  // paid once when the session ingested it.
  const double query_bytes =
      static_cast<double>(queries) * padded_dims<Fp16>(d) * 2;
  t.host_to_device_s = query_bytes / (dev.pcie_bandwidth_gbs * 1e9) +
                       dev.kernel_launch_overhead_s;
  t.precompute_s =
      2.0 * static_cast<double>(queries) * static_cast<double>(d) /
          (dev.device_fp32_cuda_tflops() * 1e12 * 0.30) +
      dev.kernel_launch_overhead_s;
  t.kernel_s = estimate_join(queries, corpus, d).kernel_seconds;
  const double result_bytes =
      static_cast<double>(result_pairs) * sizeof(QueryMatch);
  t.device_to_host_s = result_bytes / (dev.pcie_bandwidth_gbs * 1e9);
  t.host_store_s = result_bytes / (8.0 * 1e9);  // host-side memcpy rate
  return t;
}

}  // namespace fasted
