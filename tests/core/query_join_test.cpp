#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "core/fasted.hpp"
#include "data/calibrate.hpp"
#include "data/generators.hpp"

namespace fasted {
namespace {

TEST(QueryJoin, SelfBatchReproducesSelfJoinBitExactly) {
  const auto data = data::uniform(500, 16, 21);
  const float eps = data::calibrate_epsilon(data, 32.0).eps;
  FastedEngine engine;

  const PreparedDataset prepared(data);
  const auto self = engine.self_join(prepared, eps);
  const auto qj = engine.query_join(prepared, prepared, eps);

  ASSERT_EQ(qj.pair_count, self.pair_count);
  ASSERT_EQ(qj.result.num_queries(), self.result.num_points());
  for (std::size_t i = 0; i < data.rows(); ++i) {
    const auto expect = self.result.neighbors_of(i);
    const auto got = qj.result.matches_of(i);
    ASSERT_EQ(got.size(), expect.size()) << i;
    for (std::size_t r = 0; r < expect.size(); ++r) {
      EXPECT_EQ(got[r].id, expect[r]) << i;
      // The stored distance is the exact pipeline value for the pair.
      EXPECT_EQ(got[r].dist2, prepared.pair_dist2(i, got[r].id)) << i;
    }
  }
}

TEST(QueryJoin, EmulatedPathMatchesFastBitExactly) {
  const auto queries = data::uniform(150, 8, 23);
  const auto corpus = data::uniform(310, 8, 24);
  FastedEngine engine;
  const PreparedDataset q(queries);
  const PreparedDataset c(corpus);

  JoinOptions emulated;
  emulated.path = ExecutionPath::kEmulated;
  const auto fast = engine.query_join(q, c, 0.6f);
  const auto emu = engine.query_join(q, c, 0.6f, emulated);

  ASSERT_EQ(fast.pair_count, emu.pair_count);
  for (std::size_t i = 0; i < queries.rows(); ++i) {
    const auto a = fast.result.matches_of(i);
    const auto b = emu.result.matches_of(i);
    ASSERT_EQ(a.size(), b.size()) << i;
    for (std::size_t r = 0; r < a.size(); ++r) {
      EXPECT_EQ(a[r].id, b[r].id) << i;
      EXPECT_EQ(a[r].dist2, b[r].dist2) << i;
    }
  }
}

TEST(QueryJoin, RectangularShapesCrossTileBoundaries) {
  // Sizes straddling the 128-row block tile exercise ragged edge tiles in
  // both grid dimensions.
  const auto queries = data::uniform(130, 8, 25);
  const auto corpus = data::uniform(260, 8, 26);
  FastedEngine engine;
  const PreparedDataset q(queries);
  const PreparedDataset c(corpus);
  const float eps = 0.7f;
  const auto out = engine.query_join(q, c, eps);

  // Reference: a per-pair scan of the pipeline distance, no tiles and no
  // executor.
  std::uint64_t ref_pairs = 0;
  for (std::size_t i = 0; i < queries.rows(); ++i) {
    const auto got = out.result.matches_of(i);
    std::size_t r = 0;
    for (std::size_t j = 0; j < corpus.rows(); ++j) {
      const float d2 =
          fasted_pair_dist2(q.values().row(i), c.values().row(j),
                            q.values().stride(), q.norms()[i], c.norms()[j]);
      if (d2 > eps * eps) continue;
      ASSERT_LT(r, got.size()) << i;
      EXPECT_EQ(got[r].id, j) << i;
      EXPECT_EQ(got[r].dist2, d2) << i;
      ++r;
    }
    EXPECT_EQ(r, got.size()) << i;
    ref_pairs += r;
  }
  EXPECT_EQ(out.pair_count, ref_pairs);
}

TEST(QueryJoin, CountOnlyMatchesBuiltResult) {
  const auto queries = data::uniform(90, 8, 27);
  const auto corpus = data::uniform(200, 8, 28);
  FastedEngine engine;
  const PreparedDataset q(queries);
  const PreparedDataset c(corpus);
  JoinOptions count_only;
  count_only.build_result = false;
  const auto counted = engine.query_join(q, c, 0.8f, count_only);
  const auto built = engine.query_join(q, c, 0.8f);
  EXPECT_EQ(counted.pair_count, built.pair_count);
  EXPECT_EQ(counted.result.num_queries(), 0u);
}

TEST(QueryJoin, PerfEstimateCarriesTileCounts) {
  FastedEngine engine;
  const auto est = engine.estimate_join(300, 1000, 64);
  const auto bm = static_cast<std::size_t>(engine.config().block_tile_m);
  const auto bn = static_cast<std::size_t>(engine.config().block_tile_n);
  EXPECT_EQ(est.query_tiles, (300 + bm - 1) / bm);
  EXPECT_EQ(est.corpus_tiles, (1000 + bn - 1) / bn);
  // Self-join estimates expose the square grid.
  const auto sq = engine.estimate(1000, 64);
  EXPECT_EQ(sq.query_tiles, sq.corpus_tiles);
}

TEST(QueryJoin, ModeledTimingIsCorpusResident) {
  // Only the query batch pays transfer + precompute: a small batch against
  // a big resident corpus must upload far less than the equivalent
  // symmetric join's input.
  FastedEngine engine;
  const auto t = engine.model_query_response_time(64, 100000, 64, 1000);
  const auto full = engine.model_response_time(100064, 64, 1000);
  EXPECT_LT(t.host_to_device_s, full.host_to_device_s / 50);
  EXPECT_GT(t.kernel_s, 0);
  EXPECT_GT(t.device_to_host_s, 0);
}

TEST(QueryJoin, RejectsBadInputs) {
  const auto a = data::uniform(10, 4, 29);
  const auto b = data::uniform(10, 8, 30);
  FastedEngine engine;
  const PreparedDataset pa(a);
  const PreparedDataset pb(b);
  EXPECT_THROW(engine.query_join(pa, pb, 0.5f), CheckError);   // dim mismatch
  EXPECT_THROW(engine.query_join(pa, pa, -1.0f), CheckError);  // negative eps
}

TEST(QueryRowJoin, InfiniteRadiusRanksWholeCorpus) {
  const auto corpus = data::uniform(50, 8, 31);
  const PreparedDataset c(corpus);
  std::vector<QueryMatch> out;
  query_row_join(c.values().row(0), c.norms()[0], c, 0, c.rows(),
                 std::numeric_limits<float>::infinity(),
                 kernels::rz_dot_scalar(), out);
  ASSERT_EQ(out.size(), c.rows());
  for (std::size_t j = 0; j < out.size(); ++j) {
    EXPECT_EQ(out[j].id, static_cast<std::uint32_t>(j));
    EXPECT_EQ(out[j].dist2, c.pair_dist2(0, j));
  }
}

}  // namespace
}  // namespace fasted
