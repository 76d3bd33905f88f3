// Round-toward-zero (RZ) FP32 arithmetic helpers.
//
// NVIDIA tensor cores accumulate FP16 products into FP32 with
// round-toward-zero (Fasi, Higham, Mikaitis, Pranesh: "Numerical behavior of
// NVIDIA tensor cores", PeerJ CS 2021).  The paper's Step 1 also rounds the
// precomputed squared norms toward zero "to match TC rounding".
//
// We implement RZ without touching the FPU rounding mode (which is fragile
// under compiler reordering).  A double value truncates to FP32 toward zero
// exactly (round_toward_zero): the float grid is a subset of the double
// grid.  A SUM of two floats, however, is not always a double: when the
// addends' exponents differ by more than 29 bits the double add rounds too,
// and truncating that rounded sum can land one float ulp too far from zero
// (64 + -2^-48 rounds to the double 64, whose truncation is 64, while the
// true RZ sum is 63.9999962).  add_rz therefore never forms a double sum:
// Knuth's TwoSum error term says on which side of the rounded sum the true
// sum lies.  Every helper here is checked against the FPU's own
// FE_TOWARDZERO mode in tests/common/rounding_test.cpp.

#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>

namespace fasted {

// Largest-magnitude float f with |f| <= |x| and sign(f) == sign(x).
inline float round_toward_zero(double x) {
  float f = static_cast<float>(x);  // round-to-nearest
  const double fd = static_cast<double>(f);
  if (std::isinf(f) && !std::isinf(x)) {
    // RN overflowed to inf; RZ clamps at the largest finite float.
    return std::copysign(std::numeric_limits<float>::max(), f);
  }
  if (std::fabs(fd) > std::fabs(x)) {
    f = std::nextafterf(f, 0.0f);  // step back toward zero
  }
  return f;
}

// a + b in FP32 with RZ and a single rounding: the tensor-core
// accumulation step.  s = RN(a + b), and Knuth's TwoSum gives the exact
// error e = (a + b) - s in float.  When e is zero or has the sign of s, the
// true sum lies between s and the next float away from zero, so RZ is s;
// when e points toward zero, RZ is the next float toward zero — one step
// down s's bit pattern for either sign.  An RN overflow of finite addends
// to +-inf steps down to +-FLT_MAX, the RZ overflow value.  The
// comparisons are NaN-safe and need no product (e * s could underflow).
inline float add_rz(float a, float b) {
  const float s = a + b;
  const float bv = s - a;
  const float e = (a - (s - bv)) + (b - bv);
  const bool inside = (e < 0.0f && s > 0.0f) || (e > 0.0f && s < 0.0f);
  const bool overflow = std::isinf(s) && !std::isinf(a) && !std::isinf(b);
  std::uint32_t bits = std::bit_cast<std::uint32_t>(s);
  bits -= static_cast<std::uint32_t>(inside || overflow);
  return std::bit_cast<float>(bits);
}

// a * b in FP32 with RZ.  The double product of two floats is exact.
inline float mul_rz(float a, float b) {
  return round_toward_zero(static_cast<double>(a) * static_cast<double>(b));
}

}  // namespace fasted
