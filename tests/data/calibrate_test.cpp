#include "data/calibrate.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "data/generators.hpp"

namespace fasted::data {
namespace {

// Values spread over 24 binades, so a reassociated or fused step in the
// lanes would change the rounding of some distance.
MatrixF32 spread_rows(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  MatrixF32 m(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < d; ++k) {
      const int exp = static_cast<int>(rng.next_below(24)) - 12;
      m.at(i, k) = static_cast<float>(rng.uniform(-1.0, 1.0) *
                                      std::ldexp(1.0, exp));
    }
  }
  return m;
}

// dist2_block_f64 equals dist2_f64 bit for bit, with row counts that are
// not a multiple of the lane width, a short last lane group, and the
// skipped self row at the first, middle and last position.
TEST(Dist2Block, BitIdenticalToScalarReference) {
  for (const std::size_t d : {1, 3, 8, 128, 960}) {
    const MatrixF32 rows = spread_rows(13, d, 100 + d);
    // One full lane group plus 3; rows 0, 6 and 12 skip themselves first,
    // in the middle and last.
    const std::vector<std::uint32_t> self = {0, 1, 2, 4, 5, 6, 7, 9, 10, 11, 12};
    std::vector<double> out(self.size() * (rows.rows() - 1));
    dist2_block_f64(rows, self, rows, /*exclude_self=*/true, out);
    for (std::size_t a = 0; a < self.size(); ++a) {
      std::size_t w = a * (rows.rows() - 1);
      for (std::size_t j = 0; j < rows.rows(); ++j) {
        if (j == self[a]) continue;
        EXPECT_EQ(out[w++], dist2_f64(rows.row(self[a]), rows.row(j), d))
            << "d " << d << ", sample row " << self[a] << ", row " << j;
      }
    }

    // Targets from another matrix: nothing skipped.
    const MatrixF32 targets = spread_rows(21, d, 200 + d);
    const std::vector<std::uint32_t> picked = {12, 0, 6};
    std::vector<double> cross(picked.size() * targets.rows());
    dist2_block_f64(rows, picked, targets, /*exclude_self=*/false, cross);
    for (std::size_t a = 0; a < picked.size(); ++a) {
      for (std::size_t j = 0; j < targets.rows(); ++j) {
        EXPECT_EQ(cross[a * targets.rows() + j],
                  dist2_f64(rows.row(picked[a]), targets.row(j), d))
            << "d " << d << ", sample row " << picked[a] << ", target " << j;
      }
    }
  }
}

TEST(Calibrate, HitsTargetSelectivityOnUniform) {
  const auto m = uniform(2000, 8, 11);
  for (double target : {16.0, 64.0}) {
    const auto cal = calibrate_epsilon(m, target);
    const double achieved = exact_selectivity(m, cal.eps);
    EXPECT_NEAR(achieved, target, target * 0.30)
        << "target " << target << " eps " << cal.eps;
  }
}

TEST(Calibrate, HitsTargetOnClusteredData) {
  const auto m = tiny_like(1500, 7);
  const auto cal = calibrate_epsilon(m, 64.0);
  const double achieved = exact_selectivity(m, cal.eps);
  EXPECT_NEAR(achieved, 64.0, 64.0 * 0.35);
}

TEST(Calibrate, EpsilonGrowsWithSelectivity) {
  const auto m = uniform(1000, 16, 13);
  const float e64 = calibrate_epsilon(m, 64).eps;
  const float e128 = calibrate_epsilon(m, 128).eps;
  const float e256 = calibrate_epsilon(m, 256).eps;
  EXPECT_LT(e64, e128);
  EXPECT_LT(e128, e256);
}

TEST(Calibrate, AchievedSelectivityReported) {
  const auto m = uniform(800, 8, 17);
  const auto cal = calibrate_epsilon(m, 32.0);
  EXPECT_NEAR(cal.achieved_selectivity, 32.0, 16.0);
}

TEST(Calibrate, RejectsDegenerateInputs) {
  MatrixF32 one(1, 4);
  EXPECT_THROW(calibrate_epsilon(one, 64), CheckError);
  const auto m = uniform(10, 4, 1);
  EXPECT_THROW(calibrate_epsilon(m, 0.0), CheckError);
}

TEST(ExactSelectivity, CountsNeighborsExcludingSelf) {
  // Three collinear points at distance 1 apart.
  MatrixF32 m(3, 2);
  m.at(1, 0) = 1.0f;
  m.at(2, 0) = 2.0f;
  // eps = 1.1: ends have 1 neighbor, middle has 2 -> S = 4/3.
  EXPECT_NEAR(exact_selectivity(m, 1.1f), 4.0 / 3.0, 1e-12);
  // eps = 2.5: everyone sees everyone -> S = 2.
  EXPECT_NEAR(exact_selectivity(m, 2.5f), 2.0, 1e-12);
  // eps tiny: S = 0.
  EXPECT_NEAR(exact_selectivity(m, 0.01f), 0.0, 1e-12);
}

TEST(Calibrate, DeterministicForSeed) {
  const auto m = uniform(500, 8, 19);
  EXPECT_EQ(calibrate_epsilon(m, 32, 7).eps, calibrate_epsilon(m, 32, 7).eps);
}

}  // namespace
}  // namespace fasted::data
