#include "core/fasted.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "core/sums.hpp"
#include "data/generators.hpp"

namespace fasted {
namespace {

TEST(Fasted, TwoPointsWithinEps) {
  MatrixF32 m(2, 4);
  m.at(0, 0) = 0.0f;
  m.at(1, 0) = 3.0f;  // distance 3
  FastedEngine engine;
  const auto near = engine.self_join(m, 3.5f);
  EXPECT_EQ(near.pair_count, 4u);  // both self pairs + both cross pairs
  const auto far = engine.self_join(m, 2.5f);
  EXPECT_EQ(far.pair_count, 2u);  // self pairs only
}

TEST(Fasted, SelfPairsAlwaysPresent) {
  const auto data = data::uniform(50, 16, 1);
  FastedEngine engine;
  const auto out = engine.self_join(data, 0.0f);
  EXPECT_EQ(out.pair_count, 50u);
  for (std::size_t i = 0; i < 50; ++i) {
    ASSERT_EQ(out.result.degree(i), 1u);
    EXPECT_EQ(out.result.neighbors_of(i)[0], i);
  }
}

TEST(Fasted, ResultIsSymmetric) {
  const auto data = data::uniform(100, 32, 3);
  FastedEngine engine;
  const auto out = engine.self_join(data, 1.2f);
  for (std::size_t i = 0; i < 100; ++i) {
    for (std::uint32_t j : out.result.neighbors_of(i)) {
      const auto back = out.result.neighbors_of(j);
      EXPECT_TRUE(std::find(back.begin(), back.end(),
                            static_cast<std::uint32_t>(i)) != back.end())
          << i << " -> " << j;
    }
  }
}

TEST(Fasted, MatchesBruteForceFp64Closely) {
  // FP16-32 vs FP64 brute force: neighbor sets agree except at the eps
  // boundary; with a boundary-free eps they agree exactly.
  const auto data = data::uniform(128, 24, 5);
  FastedEngine engine;
  const float eps = 1.0f;
  const auto out = engine.self_join(data, eps);

  std::uint64_t ref_pairs = 0;
  for (std::size_t i = 0; i < 128; ++i) {
    for (std::size_t j = 0; j < 128; ++j) {
      double acc = 0;
      for (std::size_t k = 0; k < 24; ++k) {
        const double diff = static_cast<double>(quantize_fp16(data.at(i, k))) -
                            quantize_fp16(data.at(j, k));
        acc += diff * diff;
      }
      if (std::sqrt(acc) <= eps + 1e-4) ++ref_pairs;
    }
  }
  // Allow the tiny boundary band to differ.
  EXPECT_NEAR(static_cast<double>(out.pair_count),
              static_cast<double>(ref_pairs), 0.01 * ref_pairs + 8);
}

TEST(Fasted, EmulatedPathMatchesFastPathBitExactly) {
  // The central fidelity property: the fragment/ldmatrix/swizzle emulation
  // and the vectorized host loop produce identical result sets.
  const auto data = data::uniform(300, 96, 11);
  FastedEngine engine;
  JoinOptions fast;
  JoinOptions emulated;
  emulated.path = ExecutionPath::kEmulated;
  const auto a = engine.self_join(data, 2.0f, fast);
  const auto b = engine.self_join(data, 2.0f, emulated);
  ASSERT_EQ(a.pair_count, b.pair_count);
  ASSERT_EQ(a.result.num_points(), b.result.num_points());
  for (std::size_t i = 0; i < a.result.num_points(); ++i) {
    const auto na = a.result.neighbors_of(i);
    const auto nb = b.result.neighbors_of(i);
    ASSERT_EQ(na.size(), nb.size()) << "point " << i;
    for (std::size_t k = 0; k < na.size(); ++k) {
      ASSERT_EQ(na[k], nb[k]) << "point " << i;
    }
  }
}

TEST(Fasted, EmulatedPathMatchesWithOptimizationsOff) {
  // Disabling layout optimizations must never change results.
  const auto data = data::uniform(200, 64, 13);
  auto cfg = FastedConfig::paper_defaults();
  cfg.opt_swizzle = false;
  cfg.opt_smem_alignment = false;
  cfg.opt_block_tile_ordering = false;
  FastedEngine plain;
  FastedEngine tweaked(cfg);
  JoinOptions emulated;
  emulated.path = ExecutionPath::kEmulated;
  const auto a = plain.self_join(data, 1.5f);
  const auto b = tweaked.self_join(data, 1.5f, emulated);
  EXPECT_EQ(a.pair_count, b.pair_count);
}

TEST(Fasted, CountOnlyModeSkipsResult) {
  const auto data = data::uniform(64, 16, 17);
  FastedEngine engine;
  JoinOptions opts;
  opts.build_result = false;
  const auto out = engine.self_join(data, 0.8f, opts);
  EXPECT_GT(out.pair_count, 0u);
  EXPECT_EQ(out.result.num_points(), 0u);
}

TEST(Fasted, PairDistanceHelperMatchesEngine) {
  const auto data = data::uniform(32, 40, 19);
  const auto data16 = to_fp16(data);
  const auto dequant = to_fp32(data16);
  const auto s = squared_norms_fp16_rz(data16);
  // dist^2(i,i) should be ~0 (exactly -2*s + 2*s up to RZ of the dot).
  for (std::size_t i = 0; i < 32; ++i) {
    const float d2 = fasted_pair_dist2(dequant.row(i), dequant.row(i),
                                       dequant.stride(), s[i], s[i]);
    EXPECT_NEAR(d2, 0.0f, 1e-2f);
  }
}

TEST(Fasted, TimingModelIsPopulated) {
  const auto data = data::uniform(256, 64, 23);
  FastedEngine engine;
  const auto out = engine.self_join(data, 0.5f);
  EXPECT_GT(out.timing.host_to_device_s, 0.0);
  EXPECT_GT(out.timing.kernel_s, 0.0);
  EXPECT_GT(out.timing.total_s(), out.timing.kernel_s);
  EXPECT_GT(out.perf.derived_tflops, 0.0);
  EXPECT_GT(out.perf.clock_ghz, 0.7);
}

TEST(Fasted, RejectsEmptyAndNegative) {
  FastedEngine engine;
  MatrixF32 empty;
  EXPECT_THROW(engine.self_join(empty, 1.0f), CheckError);
  const auto data = data::uniform(4, 4, 29);
  EXPECT_THROW(engine.self_join(data, -1.0f), CheckError);
}

TEST(FastedJoin, QueryCorpusMatchesSelfJoinOnSameData) {
  // query_join(D, D) must reproduce the self-join result exactly.
  const auto data = data::uniform(200, 24, 37);
  FastedEngine engine;
  const PreparedDataset prepared(data);
  const auto self = engine.self_join(data, 1.0f);
  const auto ab = engine.query_join(prepared, prepared, 1.0f);
  ASSERT_EQ(ab.pair_count, self.pair_count);
  for (std::size_t i = 0; i < data.rows(); ++i) {
    const auto a = ab.result.matches_of(i);
    const auto b = self.result.neighbors_of(i);
    ASSERT_EQ(a.size(), b.size()) << i;
    for (std::size_t k = 0; k < a.size(); ++k) ASSERT_EQ(a[k].id, b[k]);
  }
}

TEST(FastedJoin, DisjointSplitCoversSelfJoin) {
  // Splitting the dataset into Q and C: self-join pairs across the split
  // equal the query_join(Q, C) pairs.
  const auto data = data::uniform(300, 16, 41);
  MatrixF32 q(150, 16), c(150, 16);
  for (std::size_t i = 0; i < 150; ++i) {
    for (std::size_t k = 0; k < 16; ++k) {
      q.at(i, k) = data.at(i, k);
      c.at(i, k) = data.at(150 + i, k);
    }
  }
  FastedEngine engine;
  const float eps = 0.9f;
  const auto ab =
      engine.query_join(PreparedDataset(q), PreparedDataset(c), eps);
  const auto self = engine.self_join(data, eps);
  std::uint64_t crossing = 0;
  for (std::size_t i = 0; i < 150; ++i) {
    for (std::uint32_t j : self.result.neighbors_of(i)) {
      if (j >= 150) ++crossing;
    }
  }
  EXPECT_EQ(ab.pair_count, crossing);
}

TEST(FastedJoin, EmulatedPathMatchesFastPath) {
  const PreparedDataset q(data::uniform(150, 48, 43));
  const PreparedDataset c(data::uniform(260, 48, 44));
  FastedEngine engine;
  JoinOptions emulated;
  emulated.path = ExecutionPath::kEmulated;
  const auto a = engine.query_join(q, c, 1.4f);
  const auto b = engine.query_join(q, c, 1.4f, emulated);
  ASSERT_EQ(a.pair_count, b.pair_count);
  for (std::size_t i = 0; i < q.rows(); ++i) {
    const auto na = a.result.matches_of(i);
    const auto nb = b.result.matches_of(i);
    ASSERT_EQ(na.size(), nb.size()) << i;
    for (std::size_t k = 0; k < na.size(); ++k) {
      ASSERT_EQ(na[k].id, nb[k].id);
      ASSERT_EQ(na[k].dist2, nb[k].dist2);
    }
  }
}

TEST(FastedJoin, RectangularResultShape) {
  const PreparedDataset q(data::uniform(50, 8, 45));
  const PreparedDataset c(data::uniform(400, 8, 46));
  FastedEngine engine;
  const auto out = engine.query_join(q, c, 0.4f);
  EXPECT_EQ(out.result.num_queries(), 50u);  // one row per query
  for (std::size_t i = 0; i < 50; ++i) {
    for (const QueryMatch& m : out.result.matches_of(i)) {
      EXPECT_LT(m.id, 400u);
    }
  }
}

TEST(FastedJoin, DimensionMismatchThrows) {
  const PreparedDataset q(data::uniform(10, 8, 47));
  const PreparedDataset c(data::uniform(10, 16, 48));
  FastedEngine engine;
  EXPECT_THROW(engine.query_join(q, c, 1.0f), CheckError);
}

TEST(FastedJoin, RectangularPerfModelScalesWithWork) {
  FastedEngine engine;
  const auto small = engine.estimate_join(1000, 10000, 512);
  const auto big = engine.estimate_join(10000, 10000, 512);
  EXPECT_LT(small.kernel_seconds, big.kernel_seconds);
  // Same total work, different shape: times are comparable.
  const auto wide = engine.estimate_join(1000, 100000, 512);
  const auto square = engine.estimate_join(10000, 10000, 512);
  EXPECT_NEAR(wide.kernel_seconds / square.kernel_seconds, 1.0, 0.35);
}

TEST(PreparedData, SelfJoinMatchesDirectPath) {
  const auto data = data::uniform(250, 32, 51);
  FastedEngine engine;
  const PreparedDataset prepared(data);
  const auto a = engine.self_join(data, 1.1f);
  const auto b = engine.self_join(prepared, 1.1f);
  ASSERT_EQ(a.pair_count, b.pair_count);
  for (std::size_t i = 0; i < data.rows(); ++i) {
    const auto na = a.result.neighbors_of(i);
    const auto nb = b.result.neighbors_of(i);
    ASSERT_EQ(na.size(), nb.size());
    for (std::size_t kk = 0; kk < na.size(); ++kk) ASSERT_EQ(na[kk], nb[kk]);
  }
}

TEST(PreparedData, ReusableAcrossRadii) {
  const auto data = data::uniform(200, 16, 53);
  FastedEngine engine;
  const PreparedDataset prepared(data);
  std::uint64_t prev = 0;
  for (float eps : {0.2f, 0.5f, 0.9f, 1.4f}) {
    const auto out = engine.self_join(prepared, eps);
    EXPECT_GE(out.pair_count, prev);  // monotone in eps
    prev = out.pair_count;
  }
}

TEST(PreparedData, PairDistanceIsSymmetricAndConsistent) {
  const auto data = data::uniform(64, 24, 55);
  const PreparedDataset prepared(data);
  for (std::size_t i = 0; i < 64; i += 7) {
    for (std::size_t j = 0; j < 64; j += 5) {
      EXPECT_EQ(prepared.pair_dist2(i, j), prepared.pair_dist2(j, i));
    }
  }
  // Matches the free-function pipeline distance.
  EXPECT_EQ(prepared.pair_dist2(1, 2),
            fasted_pair_dist2(prepared.values().row(1),
                              prepared.values().row(2),
                              prepared.values().stride(),
                              prepared.norms()[1], prepared.norms()[2]));
}

TEST(BatchedJoin, BoundsResultMemoryPerBatch) {
  // At paper scale, batching is what makes Sift10M S=256 feasible: each
  // strip's result buffer fits even though the whole result does not.
  FastedEngine engine;
  const std::size_t n = 10'000'000;
  const std::uint64_t pairs_total = n * 257ull;
  EXPECT_FALSE(engine.device_memory_report(n, 128, pairs_total).fits);
  const std::size_t strip = n / 16;
  EXPECT_TRUE(engine.device_memory_report(n, 128, pairs_total / 16).fits)
      << "strip " << strip;
}

TEST(Fasted, SelectivityMatchesDefinition) {
  const auto data = data::uniform(200, 8, 31);
  FastedEngine engine;
  const auto out = engine.self_join(data, 0.6f);
  EXPECT_DOUBLE_EQ(
      out.result.selectivity(),
      (static_cast<double>(out.pair_count) - 200.0) / 200.0);
}

}  // namespace
}  // namespace fasted
