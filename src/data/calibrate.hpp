// Selectivity calibration (paper Sec. 4.1.3).
//
// The paper standardizes experiments by choosing, per dataset, the search
// radius eps whose self-join selectivity S = (|R| - |D|) / |D| hits target
// values {64, 128, 256}.  This module estimates eps from a sample: the mean
// neighbor count at radius eps equals |D| times the fraction of pairwise
// distances <= eps, so eps is the S/(|D|-1) quantile of the pairwise
// distance distribution.  A sample of `sample_points` query rows against
// the full dataset estimates that quantile; an optional exact refinement
// verifies the achieved selectivity.

#pragma once

#include <cstdint>
#include <span>

#include "common/matrix.hpp"

namespace fasted::data {

struct CalibrationResult {
  float eps = 0;
  double achieved_selectivity = 0;  // estimated from the sample
};

// Rows must be finite: a NaN or infinite coordinate throws CheckError.
CalibrationResult calibrate_epsilon(const MatrixF32& data,
                                    double target_selectivity,
                                    std::uint64_t seed = 0x5e1ec7ull,
                                    std::size_t sample_points = 256);

// FP64 squared Euclidean distance between two FP32 rows — the reference
// metric every calibration estimate is built from.
double dist2_f64(const float* a, const float* b, std::size_t dims);

// Sample rows dist2_block_f64 runs side by side.  A caller that splits a
// block across threads gives every piece but the last a multiple of it, or
// lanes run empty.
inline constexpr std::size_t kBlockLanes = 8;

// A calibration block: the FP64 squared distances from the sample rows
// `from.row(samples[a])` to every row of `to`.  Sample a's run is written to
// out[a * per_run, (a + 1) * per_run) in ascending target row order, where
// per_run = to.rows() - (exclude_self ? 1 : 0); with `exclude_self`, `from`
// and `to` are the same rows and row samples[a] is skipped in run a.  `out`
// holds samples.size() * per_run values.
//
// Every value is bit-identical to dist2_f64 on the same pair.  The routine
// packs kBlockLanes sample rows column-wise as doubles and streams the
// target rows past them; each lane is one pair's own subtract, multiply and
// add chain in ascending k, every step rounded on its own (never fused).
// Where the CPU has AVX-512F the lanes are one ZMM register with several
// target rows in flight (dist2_block_f64_avx512), else portable code
// (dist2_block_f64_portable); the choice is made once per process.
void dist2_block_f64(const MatrixF32& from,
                     std::span<const std::uint32_t> samples,
                     const MatrixF32& to, bool exclude_self,
                     std::span<double> out);

// The lane variants behind dist2_block_f64, for the tests and benches that
// compare them.  They take arguments dist2_block_f64 has checked.
using Dist2BlockF64 = void (*)(const MatrixF32& from,
                               std::span<const std::uint32_t> samples,
                               const MatrixF32& to, bool exclude_self,
                               std::span<double> out);
void dist2_block_f64_portable(const MatrixF32& from,
                              std::span<const std::uint32_t> samples,
                              const MatrixF32& to, bool exclude_self,
                              std::span<double> out);
// nullptr where the build or the CPU lacks AVX-512F
// (data/dist2_block_avx512.cpp).
Dist2BlockF64 dist2_block_f64_avx512();

// Sorts one run of a calibration block ascending, bit-identical to
// std::sort, by an LSD radix sort on the values' IEEE-754 bit patterns:
// byte digits, least significant first, skipping any digit every value
// shares.  With the sign bit clear, unsigned bit order is value order, and
// every calibration distance has it clear: a sum of squares that starts
// from +0 over finite rows is +0.0 or positive, never -0.0.  A value with
// the sign bit set throws CheckError before the run is touched.  The passes
// ping-pong between `run` and `scratch`, which holds at least run.size()
// values.
void sort_run(std::span<double> run, std::span<double> scratch);

// Exact selectivity at eps (O(n^2 d); use on small datasets / tests).
double exact_selectivity(const MatrixF32& data, float eps);

}  // namespace fasted::data
