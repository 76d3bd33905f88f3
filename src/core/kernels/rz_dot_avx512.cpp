// AVX-512F rz_dot variant: one instruction per chain step.
//
// A chain step is RZ(acc + q*c) with a single rounding, and the FP16
// product q*c is exact in FP32 — so _mm512_fmadd_round_ps with embedded
// round-toward-zero computes the tensor-core step exactly, 16 panel lanes
// at a time, with no MXCSR manipulation.  (The fused multiply never rounds
// the product, and the one rounding of the sum is the hardware's own RZ,
// so the step is exact even where a double-precision sum would not be.)
// The dependency is one FMA latency (4 cycles), so 8 query rows — 8
// independent ZMM accumulators — keep both FMA ports busy.
//
// dot_panel_hits runs the paper's Step 3 epilogue before the accumulators
// leave their registers: fma(-2, acc, si + sj) in round-to-nearest (bit
// for bit the scalar epilogue_dist2) compared against eps2 under the
// valid-lane mask, one 16-bit hit mask per query row.
//
// widen_panel converts a resident FP16 panel with _mm512_cvtph_ps, one
// panel column per instruction.
//
// Compiled with -mavx512f on x86-64 (see CMakeLists.txt); elsewhere this
// is a nullptr stub.

#include "core/kernels/rz_dot.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

#include <cstring>
#include <type_traits>

namespace fasted::kernels {
namespace {

static_assert(kPanelWidth == 16, "one ZMM register holds a panel column");

constexpr int kRz = _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC;

// The chains of NQ query rows: a[qi] holds the 16 lanes of row qi.
template <std::size_t NQ>
inline void run_chains(const float* q, std::size_t q_stride,
                       const float* panel, std::size_t dims, __m512 (&a)[NQ]) {
  for (std::size_t qi = 0; qi < NQ; ++qi) a[qi] = _mm512_setzero_ps();
  for (std::size_t k = 0; k < dims; ++k) {
    const __m512 col = _mm512_loadu_ps(panel + k * kPanelWidth);
    for (std::size_t qi = 0; qi < NQ; ++qi) {
      a[qi] = _mm512_fmadd_round_ps(_mm512_set1_ps(q[qi * q_stride + k]), col,
                                    a[qi], kRz);
    }
  }
}

template <std::size_t NQ>
void dot_block(const float* q, std::size_t q_stride, const float* panel,
               std::size_t dims, float* acc) {
  __m512 a[NQ];
  run_chains<NQ>(q, q_stride, panel, dims, a);
  for (std::size_t qi = 0; qi < NQ; ++qi) {
    _mm512_storeu_ps(acc + qi * kPanelWidth, a[qi]);
  }
}

template <std::size_t NQ>
void hits_block(const float* q, std::size_t q_stride, const float* panel,
                std::size_t dims, const PanelEpilogue& ep, float* acc,
                std::uint32_t* masks) {
  __m512 a[NQ];
  run_chains<NQ>(q, q_stride, panel, dims, a);
  // The panel's norms through a zero-padded copy: c_norms holds only
  // `width` floats, and a plain copy keeps every read visible to ASan.
  float norms[kPanelWidth] = {};
  std::memcpy(norms, ep.c_norms, ep.width * sizeof(float));
  const __m512 sj = _mm512_loadu_ps(norms);
  const __mmask16 valid =
      static_cast<__mmask16>((std::uint32_t{1} << ep.width) - 1);
  const __m512 minus2 = _mm512_set1_ps(-2.0f);
  const __m512 eps2 = _mm512_set1_ps(ep.eps2);
  for (std::size_t qi = 0; qi < NQ; ++qi) {
    _mm512_storeu_ps(acc + qi * kPanelWidth, a[qi]);
    const __m512 s = _mm512_add_ps(_mm512_set1_ps(ep.q_norms[qi]), sj);
    const __m512 d2 = _mm512_fmadd_ps(minus2, a[qi], s);
    masks[qi] = _mm512_mask_cmp_ps_mask(valid, d2, eps2, _CMP_LE_OQ);
  }
}

// Calls f with nq (1..kQueryBlock) as a compile-time constant, so every
// block height gets fully unrolled register-resident chains.
template <class F>
inline void with_rows(std::size_t nq, F&& f) {
  switch (nq) {
    case 1: return f(std::integral_constant<std::size_t, 1>{});
    case 2: return f(std::integral_constant<std::size_t, 2>{});
    case 3: return f(std::integral_constant<std::size_t, 3>{});
    case 4: return f(std::integral_constant<std::size_t, 4>{});
    case 5: return f(std::integral_constant<std::size_t, 5>{});
    case 6: return f(std::integral_constant<std::size_t, 6>{});
    case 7: return f(std::integral_constant<std::size_t, 7>{});
    default: return f(std::integral_constant<std::size_t, 8>{});
  }
}
static_assert(kQueryBlock == 8, "with_rows covers 1..8 query rows");

void dot_panel_avx512(const float* q, std::size_t q_stride, std::size_t nq,
                      const float* panel, std::size_t dims, float* acc) {
  with_rows(nq, [&](auto rows) {
    dot_block<decltype(rows)::value>(q, q_stride, panel, dims, acc);
  });
}

void dot_panel_hits_avx512(const float* q, std::size_t q_stride,
                           std::size_t nq, const float* panel,
                           std::size_t dims, const PanelEpilogue& ep,
                           float* acc, std::uint32_t* masks) {
  with_rows(nq, [&](auto rows) {
    hits_block<decltype(rows)::value>(q, q_stride, panel, dims, ep, acc,
                                      masks);
  });
}

// One panel column per conversion: 16 halves widen exactly to one ZMM.
void widen_panel_avx512(const std::uint16_t* half_panel, std::size_t dims,
                        float* panel) {
  for (std::size_t k = 0; k < dims; ++k) {
    const __m256i h = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(half_panel + k * kPanelWidth));
    _mm512_storeu_ps(panel + k * kPanelWidth, _mm512_cvtph_ps(h));
  }
}

const RzDotKernel kAvx512{"avx512", &dot_panel_avx512, &dot_panel_hits_avx512,
                          &widen_panel_avx512};

}  // namespace

const RzDotKernel* rz_dot_avx512() {
  return __builtin_cpu_supports("avx512f") ? &kAvx512 : nullptr;
}

}  // namespace fasted::kernels

#else  // !__AVX512F__

namespace fasted::kernels {
const RzDotKernel* rz_dot_avx512() { return nullptr; }
}  // namespace fasted::kernels

#endif
