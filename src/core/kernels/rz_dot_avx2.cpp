// AVX2/FMA rz_dot variant: the 16 panel lanes of a query row are two YMM
// halves of 8 independent RZ chains.
//
// A chain step is RZ(acc + p) for floats acc and p (p = q*c, exact for the
// pipeline's FP16 inputs).  The variant computes it in the float domain
// with no rounding-mode (MXCSR) changes: s = RN(acc + p), and Knuth's
// TwoSum gives the exact error e = (acc + p) - s.  If e is zero or has the
// sign of s, the true sum lies between s and the next float away from
// zero, so RZ is s; if it points toward zero, RZ is the next float toward
// zero, one step down s's bit pattern for either sign.  An RN overflow to
// +-inf steps down to +-FLT_MAX, the RZ overflow value.  For finite
// inputs that is exactly add_rz (common/rounding.hpp) lane by lane, so the
// variant is bit-identical to the scalar chain by construction —
// deterministic under any compiler flags or sanitizers.
//
// Four query rows (8 chains) are in flight per pass over the panel, which
// fits the 16 YMM registers; a block of 8 rows takes two passes.
//
// widen_panel converts a resident FP16 panel with F16C's _mm256_cvtph_ps,
// half a panel column per instruction.
//
// This file is compiled with -mavx2 -mfma -mf16c on x86-64 (see
// CMakeLists.txt); everywhere else it degrades to a nullptr stub and
// dispatch stays scalar.

#include "core/kernels/rz_dot.hpp"

#if defined(__AVX2__) && defined(__FMA__) && defined(__F16C__)

#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <type_traits>

namespace fasted::kernels {
namespace {

static_assert(kPanelWidth == 16, "two YMM halves hold a panel column");

// Lane-wise add_rz: 8 chains advance one term per call.
inline __m256 add_rz8(__m256 acc, __m256 prod) {
  const __m256 s = _mm256_add_ps(acc, prod);  // round-to-nearest
  const __m256 pv = _mm256_sub_ps(s, acc);
  const __m256 e = _mm256_add_ps(_mm256_sub_ps(acc, _mm256_sub_ps(s, pv)),
                                 _mm256_sub_ps(prod, pv));
  // -1 in the lanes where e != 0 and sign(e) != sign(s), or where s
  // overflowed; adding it steps the bit pattern one ulp toward zero.
  const __m256i opposed = _mm256_and_si256(
      _mm256_srai_epi32(_mm256_castps_si256(_mm256_xor_ps(e, s)), 31),
      _mm256_castps_si256(_mm256_cmp_ps(e, _mm256_setzero_ps(), _CMP_NEQ_OQ)));
  const __m256 abs_mask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const __m256i overflow = _mm256_castps_si256(
      _mm256_cmp_ps(_mm256_and_ps(s, abs_mask),
                    _mm256_set1_ps(__builtin_inff()), _CMP_EQ_OQ));
  return _mm256_castsi256_ps(
      _mm256_add_epi32(_mm256_castps_si256(s),
                       _mm256_or_si256(opposed, overflow)));
}

// The chains of NQ (<= 4) query rows: lo/hi[qi] hold lanes 0-7 / 8-15.
template <std::size_t NQ>
inline void run_chains(const float* q, std::size_t q_stride,
                       const float* panel, std::size_t dims, __m256 (&lo)[NQ],
                       __m256 (&hi)[NQ]) {
  for (std::size_t qi = 0; qi < NQ; ++qi) {
    lo[qi] = _mm256_setzero_ps();
    hi[qi] = _mm256_setzero_ps();
  }
  for (std::size_t k = 0; k < dims; ++k) {
    const __m256 col_lo = _mm256_loadu_ps(panel + k * kPanelWidth);
    const __m256 col_hi = _mm256_loadu_ps(panel + k * kPanelWidth + 8);
    for (std::size_t qi = 0; qi < NQ; ++qi) {
      const __m256 qk = _mm256_set1_ps(q[qi * q_stride + k]);
      lo[qi] = add_rz8(lo[qi], _mm256_mul_ps(qk, col_lo));
      hi[qi] = add_rz8(hi[qi], _mm256_mul_ps(qk, col_hi));
    }
  }
}

template <std::size_t NQ>
void dot_block(const float* q, std::size_t q_stride, const float* panel,
               std::size_t dims, float* acc) {
  __m256 lo[NQ], hi[NQ];
  run_chains<NQ>(q, q_stride, panel, dims, lo, hi);
  for (std::size_t qi = 0; qi < NQ; ++qi) {
    _mm256_storeu_ps(acc + qi * kPanelWidth, lo[qi]);
    _mm256_storeu_ps(acc + qi * kPanelWidth + 8, hi[qi]);
  }
}

// Hit bits of one 8-lane half: fma(-2, a, si + sj) <= eps2 in
// round-to-nearest, bit for bit the scalar epilogue_dist2.
inline std::uint32_t half_hits(__m256 a, __m256 si, __m256 sj, __m256 eps2) {
  const __m256 d2 =
      _mm256_fmadd_ps(_mm256_set1_ps(-2.0f), a, _mm256_add_ps(si, sj));
  return static_cast<std::uint32_t>(
      _mm256_movemask_ps(_mm256_cmp_ps(d2, eps2, _CMP_LE_OQ)));
}

template <std::size_t NQ>
void hits_block(const float* q, std::size_t q_stride, const float* panel,
                std::size_t dims, const PanelEpilogue& ep, float* acc,
                std::uint32_t* masks) {
  __m256 lo[NQ], hi[NQ];
  run_chains<NQ>(q, q_stride, panel, dims, lo, hi);
  float norms[kPanelWidth] = {};
  std::memcpy(norms, ep.c_norms, ep.width * sizeof(float));
  const __m256 sj_lo = _mm256_loadu_ps(norms);
  const __m256 sj_hi = _mm256_loadu_ps(norms + 8);
  const __m256 eps2 = _mm256_set1_ps(ep.eps2);
  const std::uint32_t valid = (std::uint32_t{1} << ep.width) - 1;
  for (std::size_t qi = 0; qi < NQ; ++qi) {
    _mm256_storeu_ps(acc + qi * kPanelWidth, lo[qi]);
    _mm256_storeu_ps(acc + qi * kPanelWidth + 8, hi[qi]);
    const __m256 si = _mm256_set1_ps(ep.q_norms[qi]);
    masks[qi] = (half_hits(lo[qi], si, sj_lo, eps2) |
                 half_hits(hi[qi], si, sj_hi, eps2) << 8) &
                valid;
  }
}

// Runs f over the block in passes of up to 4 rows, each height a
// compile-time constant: f(rows, first_row).
template <class F>
inline void in_passes(std::size_t nq, F&& f) {
  for (std::size_t q0 = 0; q0 < nq; q0 += 4) {
    switch (std::min<std::size_t>(4, nq - q0)) {
      case 1: f(std::integral_constant<std::size_t, 1>{}, q0); break;
      case 2: f(std::integral_constant<std::size_t, 2>{}, q0); break;
      case 3: f(std::integral_constant<std::size_t, 3>{}, q0); break;
      default: f(std::integral_constant<std::size_t, 4>{}, q0); break;
    }
  }
}

void dot_panel_avx2(const float* q, std::size_t q_stride, std::size_t nq,
                    const float* panel, std::size_t dims, float* acc) {
  in_passes(nq, [&](auto rows, std::size_t q0) {
    dot_block<decltype(rows)::value>(q + q0 * q_stride, q_stride, panel, dims,
                                     acc + q0 * kPanelWidth);
  });
}

void dot_panel_hits_avx2(const float* q, std::size_t q_stride, std::size_t nq,
                         const float* panel, std::size_t dims,
                         const PanelEpilogue& ep, float* acc,
                         std::uint32_t* masks) {
  in_passes(nq, [&](auto rows, std::size_t q0) {
    const PanelEpilogue pass{ep.q_norms + q0, ep.c_norms, ep.width, ep.eps2};
    hits_block<decltype(rows)::value>(q + q0 * q_stride, q_stride, panel, dims,
                                      pass, acc + q0 * kPanelWidth,
                                      masks + q0);
  });
}

void widen_panel_avx2(const std::uint16_t* half_panel, std::size_t dims,
                      float* panel) {
  for (std::size_t i = 0; i < dims * kPanelWidth; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(half_panel + i));
    _mm256_storeu_ps(panel + i, _mm256_cvtph_ps(h));
  }
}

const RzDotKernel kAvx2{"avx2", &dot_panel_avx2, &dot_panel_hits_avx2,
                        &widen_panel_avx2};

}  // namespace

const RzDotKernel* rz_dot_avx2() {
  // The TU is compiled with -mavx2 -mfma -mf16c, so the compiler is
  // licensed to emit any of them anywhere in it — require all three at
  // runtime.
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
                 __builtin_cpu_supports("f16c")
             ? &kAvx2
             : nullptr;
}

}  // namespace fasted::kernels

#else  // !(__AVX2__ && __FMA__ && __F16C__)

namespace fasted::kernels {
const RzDotKernel* rz_dot_avx2() { return nullptr; }
}  // namespace fasted::kernels

#endif
