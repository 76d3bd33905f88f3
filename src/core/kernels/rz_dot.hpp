// The rz_dot kernel family: the one hot loop of the whole system.
//
// Every distance FaSTED produces — self-join, resident query join, kNN
// straggler sweeps — reduces to the same primitive: the inner product of
// two FP16-exact rows accumulated in FP32 with round-toward-zero, term by
// term, in ascending dimension order (the tensor-core chain of
// common/rounding.hpp).  One chain step is
// RZ(acc + q*c) with a single rounding; the FP16 product is exact in FP32,
// so this is exactly add_rz(acc, q*c).  This header is the single home of
// that primitive and of the paper's Step 3 epilogue that follows it.
//
// Shape: one call evaluates a small dense block — up to kQueryBlock query
// rows against a packed panel of kPanelWidth corpus rows — because the RZ
// chain is a serial data dependency per pair and the only way to go faster
// is to run many independent chains at once.  The variants:
//  * scalar: one add_rz chain per (query, corpus) cell — the reference;
//  * avx2: the 16 lanes of a query row as two YMM halves, each step an
//    RN float add plus a TwoSum sign correction (exact RZ, no MXCSR
//    changes);
//  * avx512: one ZMM register per query row and ONE instruction per step,
//    _mm512_fmadd_round_ps with embedded round-toward-zero — the
//    tensor-core step itself, 4 cycles of dependency for 16 chains, 8 rows
//    in flight to cover the FMA latency.
// All variants are bit-identical to the sequential add_rz chain, which is
// itself checked against the FPU's FE_TOWARDZERO mode: see
// tests/core/kernels_test.cpp and tests/common/rounding_test.cpp.
//
// The epilogue (dot_panel_hits) runs in the same pass while the
// accumulators are still in registers: it turns the block into one hit
// bitmask per query row, bit r set iff epilogue_dist2 of lane r is within
// eps2.  The executor then visits set bits only.
//
// Corpus rows are column-interleaved (pack_panel's layout) so the inner
// loop issues one contiguous load per dimension.  A prepared corpus keeps
// every 16-row panel resident in that layout in FP16 (PreparedDataset,
// core/fasted.hpp), built once when the rows are prepared; a join widens a
// resident panel into per-worker FP32 scratch (widen_panel, an exact
// FP16 -> FP32 conversion) and runs every query row of its block tile
// against it.  The corpus is never re-packed per join, in the
// pre-allocated-scratch spirit of the cpp-hpc-primitives exemplar
// (SNIPPETS.md §1).

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/rounding.hpp"

namespace fasted::kernels {

// The epilogue combine (paper Step 3): dist^2 = -2*a + s_i + s_j in FP32,
// applied to every rz_dot accumulator.
inline float epilogue_dist2(float a, float si, float sj) {
  return std::fma(-2.0f, a, si + sj);
}

// The single-pair scalar chain — the semantic definition every panel kernel
// must reproduce lane-for-lane, and the reference the property tests use.
inline float rz_dot_pair(const float* a, const float* b, std::size_t dims) {
  float acc = 0.0f;
  for (std::size_t k = 0; k < dims; ++k) {
    // a/b hold FP16-exact values, so the float product is exact; the
    // accumulation rounds toward zero like the tensor core.
    acc = add_rz(acc, a[k] * b[k]);
  }
  return acc;
}

// Corpus rows per packed panel (SIMD lanes of one chain group).
inline constexpr std::size_t kPanelWidth = 16;
// Max query rows evaluated per call (independent chain groups in flight —
// enough to cover the latency of one chain step).
inline constexpr std::size_t kQueryBlock = 8;
static_assert(kPanelWidth <= 32, "hit masks are 32-bit");

// Computes acc[qi * kPanelWidth + r] = RZ-chain dot product of query row qi
// (rows `q`, `q + q_stride`, ... for `nq` rows, 1 <= nq <= kQueryBlock)
// with panel row r, over `dims` dimensions.  All kPanelWidth lanes are
// produced; lanes packed from fewer than kPanelWidth rows hold the dot
// against a zero row (exactly 0.0f).
using RzDotPanelFn = void (*)(const float* q, std::size_t q_stride,
                              std::size_t nq, const float* panel,
                              std::size_t dims, float* acc);

// Step 3 inputs of one panel block.
struct PanelEpilogue {
  const float* q_norms;  // nq squared norms, one per query row
  const float* c_norms;  // width squared norms, one per packed panel row
  std::size_t width;     // packed rows; lanes >= width are never hits
  float eps2;
};

// dot_panel, then the epilogue in the same pass: masks[qi] bit r is set iff
// r < width and epilogue_dist2(acc[qi * kPanelWidth + r], q_norms[qi],
// c_norms[r]) <= eps2.  `acc` is filled as by dot_panel, so callers can
// read the distance of a hit without recomputing the chain.
using RzDotHitsFn = void (*)(const float* q, std::size_t q_stride,
                             std::size_t nq, const float* panel,
                             std::size_t dims, const PanelEpilogue& ep,
                             float* acc, std::uint32_t* masks);

// Widens one resident FP16 panel — dims * kPanelWidth binary16 values in
// pack_panel's layout — into the FP32 panel the chains read.  Every FP16
// value is exact in FP32, so each variant's conversion (software decode,
// F16C, AVX-512) writes the same bits, signed zeros and subnormals
// included.
using RzWidenFn = void (*)(const std::uint16_t* half_panel, std::size_t dims,
                           float* panel);

struct RzDotKernel {
  const char* name;  // "scalar", "avx2", "avx512"
  RzDotPanelFn dot_panel;
  RzDotHitsFn dot_panel_hits;
  RzWidenFn widen_panel;
};

// Lanes r of a panel starting at corpus row c0 with c0 + r > i: the strict
// upper triangle of query row i in a diagonal tile.
inline std::uint32_t lanes_above(std::size_t i, std::size_t c0) {
  if (i < c0) return ~0u;
  const std::size_t skip = i - c0 + 1;
  return skip >= 32 ? 0u : ~0u << skip;
}

// Lanes r of a panel starting at corpus row p0 with p0 + r in [c0, c1):
// the rows of a tile that starts or ends inside a resident panel.
inline std::uint32_t lanes_within(std::size_t p0, std::size_t c0,
                                  std::size_t c1) {
  const std::size_t lo = c0 > p0 ? c0 - p0 : 0;
  const std::size_t hi = std::min(kPanelWidth, c1 - p0);
  return ((std::uint32_t{1} << hi) - 1) & (~0u << lo);
}

// Packs `nrows` (<= kPanelWidth) consecutive rows starting at `rows` with
// stride `row_stride` into the column-interleaved layout
// panel[k * kPanelWidth + r] = rows[r * row_stride + k]; lanes >= nrows are
// zero-filled.  `panel` must hold dims * kPanelWidth floats.  Joins widen a
// PreparedDataset's resident panels, which hold this layout in FP16;
// pack_panel is the layout's reference.
void pack_panel(const float* rows, std::size_t row_stride, std::size_t nrows,
                std::size_t dims, float* panel);

// The scalar reference (always available; the bit-exactness oracle).
const RzDotKernel& rz_dot_scalar();

// SIMD variants; nullptr when the build or the running CPU lacks support.
// Which variant actually runs is not decided here: the immutable
// KernelRegistry (core/kernels/kernel_context.hpp) enumerates these, each
// FastedEngine resolves one at construction, and the engine passes it
// explicitly to the executor — there is no ambient process-global kernel
// and no mutable override.
const RzDotKernel* rz_dot_avx2();
const RzDotKernel* rz_dot_avx512();

}  // namespace fasted::kernels
