#include "data/calibrate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>
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

// Coordinates that make an FP64 difference inexact: +-65504 (the FP16
// limit) beside 1e-9 and 2^-24, among spread values.  A fused multiply-add
// in the lanes rounds such a square into its sum once where dist2_f64
// rounds twice.
MatrixF32 hostile_rows(std::size_t n, std::size_t d, std::uint64_t seed) {
  const float picks[] = {65504.0f,  -65504.0f, 1e-9f,
                         -1e-9f,    0x1p-24f,  -0x1p-24f};
  MatrixF32 m = spread_rows(n, d, seed);
  Rng rng(seed ^ 0xf00d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < d; ++k) {
      const std::uint64_t p = rng.next_below(8);
      if (p < 6) m.at(i, k) = picks[p];
    }
  }
  return m;
}

// Every lane variant of dist2_block_f64 (and the variant it resolves)
// equals dist2_f64 bit for bit: sample counts that are not a multiple of
// the 8 lanes, so a short last lane group; target counts that are not a
// multiple of the AVX-512 lanes' 4 rows in flight; the skipped self row at
// the first, middle and last position; and rows whose differences are
// inexact in FP64.
TEST(Dist2Block, BitIdenticalToScalarReference) {
  std::vector<std::pair<const char*, Dist2BlockF64>> variants = {
      {"portable", &dist2_block_f64_portable}, {"resolved", &dist2_block_f64}};
  if (dist2_block_f64_avx512() != nullptr) {
    variants.emplace_back("avx512", dist2_block_f64_avx512());
  }
  for (const auto& [name, lanes] : variants) {
    for (const std::size_t d : {1, 3, 8, 128, 960}) {
      for (const bool hostile : {false, true}) {
        const auto make = hostile ? &hostile_rows : &spread_rows;
        const MatrixF32 rows = make(13, d, 100 + d);
        // One full lane group plus 3; rows 0, 6 and 12 skip themselves
        // first, in the middle and last.
        const std::vector<std::uint32_t> self = {0, 1, 2,  4,  5, 6,
                                                 7, 9, 10, 11, 12};
        std::vector<double> out(self.size() * (rows.rows() - 1));
        lanes(rows, self, rows, /*exclude_self=*/true, out);
        for (std::size_t a = 0; a < self.size(); ++a) {
          std::size_t w = a * (rows.rows() - 1);
          for (std::size_t j = 0; j < rows.rows(); ++j) {
            if (j == self[a]) continue;
            EXPECT_EQ(out[w++], dist2_f64(rows.row(self[a]), rows.row(j), d))
                << name << ", d " << d << ", sample row " << self[a]
                << ", row " << j;
          }
        }

        // Targets from another matrix, 1, 2 and 3 rows past a multiple of
        // the rows in flight: nothing skipped.
        for (const std::size_t nt : {21, 22, 23}) {
          const MatrixF32 targets = make(nt, d, 200 + d + nt);
          const std::vector<std::uint32_t> picked = {12, 0, 6};
          std::vector<double> cross(picked.size() * nt);
          lanes(rows, picked, targets, /*exclude_self=*/false, cross);
          for (std::size_t a = 0; a < picked.size(); ++a) {
            for (std::size_t j = 0; j < nt; ++j) {
              EXPECT_EQ(cross[a * nt + j],
                        dist2_f64(rows.row(picked[a]), targets.row(j), d))
                  << name << ", d " << d << ", sample row " << picked[a]
                  << ", target " << j << " of " << nt;
            }
          }
        }
      }
    }
  }
}

// std::sort's result, as the bit patterns it leaves.
std::vector<std::uint64_t> std_sorted_bits(std::vector<double> run) {
  std::sort(run.begin(), run.end());
  std::vector<std::uint64_t> bits(run.size());
  std::transform(run.begin(), run.end(), bits.begin(),
                 [](double v) { return std::bit_cast<std::uint64_t>(v); });
  return bits;
}

std::vector<std::uint64_t> sort_run_bits(std::vector<double> run) {
  std::vector<double> scratch(run.size());
  sort_run(run, scratch);
  std::vector<std::uint64_t> bits(run.size());
  std::transform(run.begin(), run.end(), bits.begin(),
                 [](double v) { return std::bit_cast<std::uint64_t>(v); });
  return bits;
}

// A seeded run of `n` non-negative doubles of one shape.
std::vector<double> shaped_run(std::size_t n, int shape, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> run(n);
  for (double& v : run) {
    switch (shape) {
      case 0:  // many binades, with +0.0, subnormals and DBL_MAX
        switch (rng.next_below(8)) {
          case 0: v = 0.0; break;
          case 1:
            v = std::numeric_limits<double>::denorm_min() *
                static_cast<double>(1 + rng.next_below(1u << 20));
            break;
          case 2: v = std::numeric_limits<double>::max(); break;
          default:
            v = std::ldexp(rng.uniform(1.0, 2.0),
                           static_cast<int>(rng.next_below(2000)) - 1000);
        }
        break;
      case 1:  // long tie groups: integer squared distances
        v = static_cast<double>(rng.next_below(40) * rng.next_below(40));
        break;
      case 2:  // the five high bytes shared: 3 passes, an odd count
        v = std::bit_cast<double>(0x4010000000000000ull |
                                  rng.next_below(1u << 24));
        break;
      default:  // uniform, as well-spread distances
        v = rng.uniform(0.0, 1e6);
    }
  }
  return run;
}

// sort_run leaves every run bit-identical to std::sort: lengths around
// one digit's 256 buckets, and runs mixing +0.0, subnormals, DBL_MAX and
// values across many binades, long tie groups, and keys that share every
// high byte (whose digits the sort skips).
TEST(SortRun, BitIdenticalToStdSort) {
  for (const std::size_t n : {0, 1, 2, 255, 256, 257, 2047, 10000}) {
    for (int shape = 0; shape < 4; ++shape) {
      const std::vector<double> run = shaped_run(n, shape, 31 * n + shape);
      EXPECT_EQ(sort_run_bits(run), std_sorted_bits(run))
          << "length " << n << ", shape " << shape;
    }
  }
  // A run that is already sorted, and one in descending order.
  std::vector<double> run = shaped_run(2047, 0, 5);
  std::sort(run.begin(), run.end());
  EXPECT_EQ(sort_run_bits(run), std_sorted_bits(run));
  std::reverse(run.begin(), run.end());
  EXPECT_EQ(sort_run_bits(run), std_sorted_bits(run));
}

// The runs of one real calibration block, with the tie groups of
// integer-valued rows.
TEST(SortRun, SortsCalibrationBlockRuns) {
  const MatrixF32 rows = sift_like(700, 41);
  const std::vector<std::uint32_t> samples = {3, 99, 250, 251, 600, 699};
  const std::size_t per_run = rows.rows() - 1;
  std::vector<double> block(samples.size() * per_run);
  dist2_block_f64(rows, samples, rows, /*exclude_self=*/true, block);
  for (std::size_t a = 0; a < samples.size(); ++a) {
    const std::vector<double> run(block.begin() + a * per_run,
                                  block.begin() + (a + 1) * per_run);
    EXPECT_EQ(sort_run_bits(run), std_sorted_bits(run)) << "run " << a;
  }
}

// A value with the sign bit set would sort after every positive one, so it
// is refused before the run is touched.
TEST(SortRun, RejectsSignBitAndShortScratch) {
  for (const double bad : {-1.0, -0.0}) {
    std::vector<double> run = {3.0, 1.0, bad, 2.0};
    const std::vector<double> before = run;
    std::vector<double> scratch(run.size());
    EXPECT_THROW(sort_run(run, scratch), CheckError);
    EXPECT_EQ(run, before);
  }
  std::vector<double> run = {3.0, 1.0, 2.0};
  std::vector<double> scratch(2);
  EXPECT_THROW(sort_run(run, scratch), CheckError);
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
