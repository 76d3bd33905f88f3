// Hardware round-toward-zero references for the RZ oracle tests.
//
// Each helper enters the FPU's own FE_TOWARDZERO mode around exactly one
// operation and restores the previous mode before returning.  Operands are
// read and the result written through volatiles, so the operation cannot
// be folded at compile time or moved outside the mode switch.

#pragma once

#include <cfenv>
#include <cmath>
#include <cstddef>

namespace fasted::hw {

// RZ(a + b), as the FPU rounds it.
inline float add_rz(float a, float b) {
  const volatile float va = a;
  const volatile float vb = b;
  const int old = std::fegetround();
  std::fesetround(FE_TOWARDZERO);
  const volatile float r = va + vb;
  std::fesetround(old);
  return r;
}

// RZ(a * b + c) with a single rounding (std::fmaf under FE_TOWARDZERO).
inline float fma_rz(float a, float b, float c) {
  const volatile float va = a;
  const volatile float vb = b;
  const volatile float vc = c;
  const int old = std::fegetround();
  std::fesetround(FE_TOWARDZERO);
  const volatile float r = std::fmaf(va, vb, vc);
  std::fesetround(old);
  return r;
}

// The tensor-core chain, one hardware-RZ step per term in ascending order:
// acc = RZ(acc + a[k] * b[k]).
inline float rz_dot(const float* a, const float* b, std::size_t dims) {
  float acc = 0.0f;
  for (std::size_t k = 0; k < dims; ++k) acc = fma_rz(a[k], b[k], acc);
  return acc;
}

}  // namespace fasted::hw
