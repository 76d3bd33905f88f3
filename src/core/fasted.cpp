#include "core/fasted.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/fp16.hpp"
#include "common/parallel.hpp"
#include "common/rounding.hpp"
#include "core/kernels/join_executor.hpp"
#include "core/kernels/kernel_context.hpp"
#include "core/kernels/join_plan.hpp"
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
                    const PreparedDataset& corpus, std::size_t begin,
                    std::size_t end, float eps2,
                    const kernels::RzDotKernel& kern,
                    std::vector<QueryMatch>& out) {
  using kernels::kPanelWidth;
  const std::size_t dims = corpus.values().stride();
  const std::vector<float>& norms = corpus.norms();
  thread_local std::vector<float> panel;
  panel.resize(dims * kPanelWidth);
  float acc[kPanelWidth];
  // Resident panels from the one holding `begin`; lanes outside
  // [begin, end) are masked off.
  for (std::size_t p0 = begin / kPanelWidth * kPanelWidth; p0 < end;
       p0 += kPanelWidth) {
    kern.widen_panel(corpus.panel(p0 / kPanelWidth), dims, panel.data());
    const kernels::PanelEpilogue ep{&query_norm, &norms[p0],
                                    std::min(kPanelWidth, end - p0), eps2};
    std::uint32_t m = 0;
    kern.dot_panel_hits(query, 0, 1, panel.data(), dims, ep, acc, &m);
    for (m &= kernels::lanes_within(p0, begin, end); m != 0; m &= m - 1) {
      const std::size_t r = static_cast<std::size_t>(std::countr_zero(m));
      const std::size_t j = p0 + r;
      out.push_back(QueryMatch{static_cast<std::uint32_t>(j),
                               epilogue_dist2(acc[r], query_norm, norms[j])});
    }
  }
}

FastedEngine::FastedEngine(FastedConfig config) : config_(std::move(config)) {
  config_.validate();
  kernel_ = &kernels::KernelRegistry::global().resolve(config_.rz_kernel);
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

namespace {

bool fp16_finite(std::uint16_t h) { return (h & 0x7c00u) != 0x7c00u; }

// Offset of row i's lane in a panel set of `stride` dims: coordinate k of
// the row sits kPanelWidth halves apart from k - 1.
std::size_t lane_offset(std::size_t i, std::size_t stride) {
  using kernels::kPanelWidth;
  return i / kPanelWidth * stride * kPanelWidth + i % kPanelWidth;
}

[[noreturn]] void reject_coordinate(std::size_t row, std::size_t col,
                                    float value) {
  std::ostringstream os;
  os << "row " << row << ", column " << col << ": coordinate " << value
     << " has no finite FP16 image (|x| must stay below 65520)";
  throw CheckError(os.str());
}

}  // namespace

void check_fp16_finite(const MatrixF32& rows) {
  for (std::size_t i = 0; i < rows.rows(); ++i) {
    const float* x = rows.row(i);
    for (std::size_t k = 0; k < rows.dims(); ++k) {
      if (!fp16_finite(Fp16::encode_rn(x[k]))) reject_coordinate(i, k, x[k]);
    }
  }
}

PreparedDataset::PreparedDataset(std::size_t rows, std::size_t dims)
    : values_(rows, dims),
      panels_(panel_count() * values_.stride() * kernels::kPanelWidth),
      norms_(rows) {}

PreparedDataset::PreparedDataset(const MatrixF32& data)
    : PreparedDataset(data.rows(), data.dims()) {
  using kernels::kPanelWidth;
  const std::size_t stride = values_.stride();
  // One pass per panel: quantize (RN), decode, and run the Step 1 RZ norm
  // chain, bit-identical to squared_norms_fp16_rz over the FP16 rows.
  parallel_for(0, panel_count(), [&](std::size_t p0, std::size_t p1) {
    for (std::size_t i = p0 * kPanelWidth;
         i < std::min(rows(), p1 * kPanelWidth); ++i) {
      const float* src = data.row(i);
      float* dst = values_.row(i);
      std::uint16_t* lane = panels_.data() + lane_offset(i, stride);
      float norm = 0.0f;
      for (std::size_t k = 0; k < data.dims(); ++k) {
        const std::uint16_t h = Fp16::encode_rn(src[k]);
        if (!fp16_finite(h)) reject_coordinate(i, k, src[k]);
        const float v = Fp16::decode(h);
        lane[k * kPanelWidth] = h;
        dst[k] = v;
        norm = add_rz(norm, v * v);
      }
      norms_[i] = norm;
    }
  });
}

float PreparedDataset::pair_dist2(std::size_t i, std::size_t j) const {
  return fasted_pair_dist2(values_.row(i), values_.row(j), values_.stride(),
                           norms_[i], norms_[j]);
}

PreparedDataset PreparedDataset::gather(const PreparedDataset& src,
                                        const std::vector<std::uint32_t>& rows) {
  using kernels::kPanelWidth;
  PreparedDataset out(rows.size(), src.dims());
  const std::size_t stride = src.values_.stride();
  for (std::size_t a = 0; a < rows.size(); ++a) {
    const std::size_t i = rows[a];
    std::copy_n(src.values_.row(i), stride, out.values_.row(a));
    out.norms_[a] = src.norms_[i];
    const std::uint16_t* from = src.panels_.data() + lane_offset(i, stride);
    std::uint16_t* to = out.panels_.data() + lane_offset(a, stride);
    for (std::size_t k = 0; k < stride; ++k) {
      to[k * kPanelWidth] = from[k * kPanelWidth];
    }
  }
  return out;
}

namespace {

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
    entry.in = {&queries, shards[i].prepared};
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
    entry.in = {shards[a].prepared, shards[a].prepared};
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
      entry.in = {shards[a].prepared, shards[b].prepared};
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
                              out.shard_pairs.data(), *kernel_);
    out.pair_count = raw - sink.dropped();
    out.result = sink.finalize();
  } else {
    kernels::CountSink sink;
    sink.filter_tombstones(options.tombstones);
    const std::uint64_t raw =
        kernels::execute_join(config_, set.span(), eps * eps, emulated, sink,
                              out.shard_pairs.data(), *kernel_);
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
  return kernels::execute_join(config_, set.span(), eps * eps,
                               /*emulated=*/false, sink, nullptr, *kernel_);
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
        config_, set.span(), eps2, emulated, sink, nullptr, *kernel_);
    out.pair_count = 2 * (hits - sink.dropped()) + alive;
    out.result = sink.finalize();
    FASTED_CHECK(out.result.pair_count() == out.pair_count);
  } else {
    kernels::CountSink sink(/*self_ends=*/true);
    sink.filter_tombstones(options.tombstones);
    const std::uint64_t hits = kernels::execute_join(
        config_, set.span(), eps2, emulated, sink, nullptr, *kernel_);
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
