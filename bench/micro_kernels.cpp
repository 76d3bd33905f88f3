// Micro-benchmarks (google-benchmark) of the host-side primitives: FP16
// conversion, RZ accumulation, the emulated MMA, staging + ldmatrix, the
// functional self-join fast path, and the two steps of a calibration block
// build (its FP64 lanes and its run sort, each variant against the other).
// These measure the *simulator's* CPU cost, not modeled GPU time — useful
// when sizing functional experiments.
//
//   micro_kernels --benchmark_filter='Dist2BlockF64|SortRuns'

#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/fp16.hpp"
#include "common/rounding.hpp"
#include "core/block_tile.hpp"
#include "core/fasted.hpp"
#include "data/calibrate.hpp"
#include "data/generators.hpp"
#include "sim/tensor_core.hpp"

using namespace fasted;

static void BM_Fp16Encode(benchmark::State& state) {
  float x = 1.2345f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Fp16::encode_rn(x));
    x += 0.001f;
  }
}
BENCHMARK(BM_Fp16Encode);

static void BM_Fp16Decode(benchmark::State& state) {
  std::uint16_t bits = 0x3c01;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Fp16::decode(bits));
    bits = static_cast<std::uint16_t>(bits + 1);
  }
}
BENCHMARK(BM_Fp16Decode);

static void BM_AddRz(benchmark::State& state) {
  float acc = 0.0f;
  float v = 1.00001f;
  for (auto _ : state) {
    acc = add_rz(acc, v);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_AddRz);

static void BM_MmaM16N8K16(benchmark::State& state) {
  Fp16 a[256], b[128];
  float c[128] = {};
  for (int i = 0; i < 256; ++i) a[i] = Fp16(0.01f * static_cast<float>(i));
  for (int i = 0; i < 128; ++i) b[i] = Fp16(0.02f * static_cast<float>(i));
  for (auto _ : state) {
    sim::mma_m16n8k16(a, b, c, c);
    benchmark::DoNotOptimize(c[0]);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_MmaM16N8K16);

static void BM_BlockTileEmulated(benchmark::State& state) {
  const auto data = to_fp16(data::uniform(256, 128, 1));
  BlockTileEngine engine(FastedConfig::paper_defaults());
  for (auto _ : state) {
    engine.compute(data, 0, 128);
    benchmark::DoNotOptimize(engine.acc(0, 0));
  }
  state.SetItemsProcessed(state.iterations() * 128 * 128 * 128 * 2);
}
BENCHMARK(BM_BlockTileEmulated);

static void BM_SelfJoinFastPath(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto data = data::uniform(n, 64, 3);
  FastedEngine engine;
  JoinOptions opts;
  opts.build_result = false;
  for (auto _ : state) {
    const auto out = engine.self_join(data, 0.5f, opts);
    benchmark::DoNotOptimize(out.pair_count);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n) * n * 64);
}
BENCHMARK(BM_SelfJoinFastPath)->Arg(256)->Arg(512)->Arg(1024);

static void BM_PerfModel(benchmark::State& state) {
  const FastedConfig cfg = FastedConfig::paper_defaults();
  std::size_t d = 64;
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimate_fasted_kernel(cfg, 100000, d));
    d = d == 4096 ? 64 : d * 2;
  }
}
BENCHMARK(BM_PerfModel);

// One calibration block on one thread: 64 sample rows against `rows`
// sift_like rows (d = 128), as ShardedCorpus::block_of builds it.
constexpr std::size_t kBlockSamples = 64;

struct CalibrationBlock {
  MatrixF32 rows;
  std::vector<std::uint32_t> samples;
  std::vector<double> runs;  // unsorted, kBlockSamples runs of rows - 1
};

static CalibrationBlock calibration_block(std::size_t rows) {
  CalibrationBlock b{data::sift_like(rows, 5), {}, {}};
  for (std::size_t a = 0; a < kBlockSamples; ++a) {
    b.samples.push_back(static_cast<std::uint32_t>(a * rows / kBlockSamples));
  }
  b.runs.resize(kBlockSamples * (rows - 1));
  data::dist2_block_f64(b.rows, b.samples, b.rows, /*exclude_self=*/true,
                        b.runs);
  return b;
}

// Arg 0: 0 = portable lanes, 1 = AVX-512F lanes (skipped where absent).
static void BM_Dist2BlockF64(benchmark::State& state) {
  const data::Dist2BlockF64 lanes = state.range(0) == 0
                                        ? &data::dist2_block_f64_portable
                                        : data::dist2_block_f64_avx512();
  if (lanes == nullptr) {
    state.SkipWithError("no AVX-512F on this CPU");
    return;
  }
  CalibrationBlock b =
      calibration_block(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    lanes(b.rows, b.samples, b.rows, /*exclude_self=*/true, b.runs);
    benchmark::DoNotOptimize(b.runs.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(b.runs.size()));
}
BENCHMARK(BM_Dist2BlockF64)
    ->ArgNames({"avx512", "rows"})
    ->ArgsProduct({{0, 1}, {1024, 2048, 10000}})
    ->Unit(benchmark::kMillisecond);

// Arg 0: 0 = std::sort, 1 = data::sort_run; both sort every run of the
// same block, restored from the unsorted copy (untimed) per iteration.
static void BM_SortRuns(benchmark::State& state) {
  const CalibrationBlock b =
      calibration_block(static_cast<std::size_t>(state.range(1)));
  const std::size_t per_run = b.rows.rows() - 1;
  std::vector<double> runs(b.runs.size());
  std::vector<double> scratch(per_run);
  for (auto _ : state) {
    state.PauseTiming();
    runs = b.runs;
    state.ResumeTiming();
    for (auto run = runs.begin(); run != runs.end(); run += per_run) {
      if (state.range(0) == 0) {
        std::sort(run, run + per_run);
      } else {
        data::sort_run({&*run, per_run}, scratch);
      }
    }
    benchmark::DoNotOptimize(runs.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(runs.size()));
}
BENCHMARK(BM_SortRuns)
    ->ArgNames({"radix", "rows"})
    ->ArgsProduct({{0, 1}, {1024, 2048, 10000}})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
