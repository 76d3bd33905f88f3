// AVX-512F lanes of data::dist2_block_f64.
//
// One ZMM register holds the kBlockLanes sample rows' doubles at one
// coordinate, and kRowsInFlight target rows run their chains side by side,
// so one row's add latency hides behind the other rows' work.  The target
// rows are widened to doubles once per group, so the chain loop only
// broadcasts them from memory.
//
// Each lane must equal dist2_f64 bit for bit: subtract, multiply and add
// each round on their own, in ascending k.  Plain _mm512_mul_pd and
// _mm512_add_pd do not promise that: GCC contracts them into one vfmadd
// under -mavx512f (at -std=c++20 too), which rounds once where dist2_f64
// rounds twice, and a difference that is inexact in FP64 (65504 beside
// 1e-9) then squares to a different sum.  The explicit-rounding forms
// (embedded round-to-nearest, below) are never contracted.
//
// Compiled with -mavx512f on x86-64 (see CMakeLists.txt); elsewhere this
// is a nullptr stub.

#include "data/calibrate.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

#include <algorithm>
#include <vector>

namespace fasted::data {
namespace {

static_assert(kBlockLanes == 8, "one ZMM register holds the sample lanes");

constexpr int kRn = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
constexpr __mmask8 kAllLanes = 0xff;
constexpr std::size_t kRowsInFlight = 4;

// a - b, a * b and a + b, each rounded to nearest on its own.  The
// all-lanes maskz forms compile to the same unmasked instructions as
// _mm512_{sub,mul,add}_round_pd, without the -Wmaybe-uninitialized false
// positive GCC 12 reports on those forms' undefined pass-through.
inline __m512d sub_rn(__m512d a, __m512d b) {
  return _mm512_maskz_sub_round_pd(kAllLanes, a, b, kRn);
}
inline __m512d mul_rn(__m512d a, __m512d b) {
  return _mm512_maskz_mul_round_pd(kAllLanes, a, b, kRn);
}
inline __m512d add_rn(__m512d a, __m512d b) {
  return _mm512_maskz_add_round_pd(kAllLanes, a, b, kRn);
}

// The chains of R target rows against one lane group: `x` holds the rows
// widened to doubles, row r at x[r * dims].  Writes lane l of row r to
// d2[r * kBlockLanes + l].
template <std::size_t R>
inline void run_chains(const double* lanes, const double* x, std::size_t dims,
                       double* d2) {
  __m512d acc[R];
  for (std::size_t r = 0; r < R; ++r) acc[r] = _mm512_setzero_pd();
  for (std::size_t k = 0; k < dims; ++k) {
    const __m512d col = _mm512_loadu_pd(lanes + k * kBlockLanes);
    for (std::size_t r = 0; r < R; ++r) {
      const __m512d diff = sub_rn(col, _mm512_set1_pd(x[r * dims + k]));
      acc[r] = add_rn(acc[r], mul_rn(diff, diff));
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    _mm512_storeu_pd(d2 + r * kBlockLanes, acc[r]);
  }
}

void dist2_block_avx512(const MatrixF32& from,
                        std::span<const std::uint32_t> samples,
                        const MatrixF32& to, bool exclude_self,
                        std::span<double> out) {
  const std::size_t dims = to.dims();
  const std::size_t nt = to.rows();
  const std::size_t per_run = nt - (exclude_self ? 1 : 0);
  std::vector<double> lanes(dims * kBlockLanes);  // lanes[k][l]
  std::vector<double> x(dims * kRowsInFlight);    // x[r][k]
  double d2[kRowsInFlight * kBlockLanes];
  for (std::size_t a0 = 0; a0 < samples.size(); a0 += kBlockLanes) {
    // A short last group repeats its last sample row in the spare lanes,
    // whose chains are discarded.
    const std::size_t used = std::min(kBlockLanes, samples.size() - a0);
    for (std::size_t l = 0; l < kBlockLanes; ++l) {
      const float* row = from.row(samples[a0 + std::min(l, used - 1)]);
      for (std::size_t k = 0; k < dims; ++k) {
        lanes[k * kBlockLanes + l] = row[k];
      }
    }
    for (std::size_t j0 = 0; j0 < nt; j0 += kRowsInFlight) {
      const std::size_t rows = std::min(kRowsInFlight, nt - j0);
      for (std::size_t r = 0; r < rows; ++r) {
        std::copy_n(to.row(j0 + r), dims, x.begin() + r * dims);
      }
      if (rows == kRowsInFlight) {
        run_chains<kRowsInFlight>(lanes.data(), x.data(), dims, d2);
      } else {
        for (std::size_t r = 0; r < rows; ++r) {
          run_chains<1>(lanes.data(), x.data() + r * dims, dims,
                        d2 + r * kBlockLanes);
        }
      }
      for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t j = j0 + r;
        for (std::size_t l = 0; l < used; ++l) {
          const std::size_t self = samples[a0 + l];
          if (exclude_self && j == self) continue;
          out[(a0 + l) * per_run + (exclude_self && j > self ? j - 1 : j)] =
              d2[r * kBlockLanes + l];
        }
      }
    }
  }
}

}  // namespace

Dist2BlockF64 dist2_block_f64_avx512() {
  return __builtin_cpu_supports("avx512f") ? &dist2_block_avx512 : nullptr;
}

}  // namespace fasted::data

#else  // !__AVX512F__

namespace fasted::data {
Dist2BlockF64 dist2_block_f64_avx512() { return nullptr; }
}  // namespace fasted::data

#endif
