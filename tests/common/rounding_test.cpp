#include "common/rounding.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfenv>
#include <cmath>
#include <cstdint>
#include <limits>

#include "../hw_rz.hpp"
#include "common/fp16.hpp"
#include "common/rng.hpp"

namespace fasted {
namespace {

TEST(RoundTowardZero, ExactValuesPassThrough) {
  EXPECT_EQ(round_toward_zero(1.0), 1.0f);
  EXPECT_EQ(round_toward_zero(-2.5), -2.5f);
  EXPECT_EQ(round_toward_zero(0.0), 0.0f);
}

TEST(RoundTowardZero, TruncatesPositive) {
  // 1 + 2^-25 is between 1.0 and nextafter(1.0): RZ keeps 1.0 even though
  // RN would too; 1 + 2^-24 + 2^-25 would RN up but RZ down.
  const double x = 1.0 + 0x1.8p-24;  // above the RN tie
  EXPECT_EQ(static_cast<double>(static_cast<float>(x)),
            1.0 + 0x1.0p-23);  // RN rounds up
  EXPECT_EQ(round_toward_zero(x), 1.0f + 0x1.0p-24f == 0 ? 1.0f : 1.0f);
  EXPECT_LE(static_cast<double>(round_toward_zero(x)), x);
}

TEST(RoundTowardZero, NeverIncreasesMagnitude) {
  Rng rng(3);
  for (int t = 0; t < 100000; ++t) {
    const double x = rng.uniform(-1e6, 1e6);
    const float f = round_toward_zero(x);
    EXPECT_LE(std::fabs(static_cast<double>(f)), std::fabs(x));
  }
}

TEST(RoundTowardZero, IsTheLargestFloatBelow) {
  // f = RZ(x) and nextafter(f, +inf*sign) must exceed |x|.
  Rng rng(5);
  for (int t = 0; t < 100000; ++t) {
    const double x = rng.uniform(-1e4, 1e4);
    if (x == 0) continue;
    const float f = round_toward_zero(x);
    const float next =
        std::nextafterf(f, std::numeric_limits<float>::infinity() *
                               (x > 0 ? 1.0f : -1.0f));
    EXPECT_GT(std::fabs(static_cast<double>(next)), std::fabs(x) * (1 - 1e-15))
        << x;
  }
}

TEST(RoundTowardZero, MatchesFesetroundReference) {
  // Cross-check against the FPU's native RZ conversion.
  Rng rng(9);
  const int old = std::fegetround();
  for (int t = 0; t < 100000; ++t) {
    const double x = rng.uniform(-1e8, 1e8);
    std::fesetround(FE_TOWARDZERO);
    const volatile float ref = static_cast<float>(x);
    std::fesetround(old);
    EXPECT_EQ(round_toward_zero(x), ref) << x;
  }
}

TEST(RoundTowardZero, OverflowClampsToMaxFinite) {
  const double big = 1e40;
  EXPECT_EQ(round_toward_zero(big), std::numeric_limits<float>::max());
  EXPECT_EQ(round_toward_zero(-big), -std::numeric_limits<float>::max());
}

TEST(AddRz, KnownSequence) {
  // Accumulating 2^-24 onto 1.0: RZ drops every contribution.
  float acc = 1.0f;
  for (int i = 0; i < 100; ++i) acc = add_rz(acc, 0x1.0p-24f);
  EXPECT_EQ(acc, 1.0f);
  // RN for comparison would stay at 1.0 too (ties to even), but 1.5*2^-24
  // would move RN and not RZ:
  acc = 1.0f;
  acc = add_rz(acc, 0x1.8p-24f);
  EXPECT_EQ(acc, 1.0f);
  EXPECT_EQ(1.0f + 0x1.8p-24f, 1.0f + 0x1.0p-23f);  // RN rounds up
}

TEST(AddRz, NegativeAccumulationTruncatesTowardZero) {
  float acc = -1.0f;
  acc = add_rz(acc, -0x1.8p-24f);
  EXPECT_EQ(acc, -1.0f);  // magnitude truncated
}

TEST(AddRz, ExactWhenRepresentable) {
  Rng rng(21);
  for (int t = 0; t < 50000; ++t) {
    const float a = static_cast<float>(rng.uniform(-1024.0, 1024.0));
    // Same-exponent addends stay exact.
    EXPECT_EQ(add_rz(a, a), 2 * a);
  }
}

TEST(AddRz, BitEquivalentToReferenceRounding) {
  // The branchless hot-path add_rz must match the FPU's own RZ addition
  // for random inputs across magnitudes...
  Rng rng(77);
  for (int t = 0; t < 200000; ++t) {
    const float a = static_cast<float>(rng.uniform(-1e6, 1e6));
    const float b = static_cast<float>(
        rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-6, 6)));
    ASSERT_EQ(add_rz(a, b), hw::add_rz(a, b)) << a << " + " << b;
  }
}

TEST(AddRz, BitEquivalentOnEdgeCases) {
  // ...and on the edges: zeros, cancellations, overflow, subnormals.
  const float big = std::numeric_limits<float>::max();
  const float tiny = std::numeric_limits<float>::denorm_min();
  const float cases[] = {0.0f, -0.0f, 1.0f,  -1.0f, big,
                         -big, tiny,  -tiny, 0.5f,  -0.5f};
  for (float a : cases) {
    for (float b : cases) {
      const float got = add_rz(a, b);
      const float ref = hw::add_rz(a, b);
      EXPECT_EQ(std::bit_cast<std::uint32_t>(got),
                std::bit_cast<std::uint32_t>(ref))
          << a << " + " << b;
    }
  }
  // Overflow clamps to max finite (RZ semantics).
  EXPECT_EQ(add_rz(big, big), big);
  EXPECT_EQ(add_rz(-big, -big), -big);
}

TEST(AddRz, ExponentSpreadBeyondDoubleRegression) {
  // -2^-48 is the product of two FP16 subnormals.  The double sum 64 - 2^-48
  // rounds to 64, whose truncation is 64; hardware RZ gives the float just
  // below.  A plain double sum is only exact for spreads up to 29 bits.
  EXPECT_EQ(add_rz(64.0f, -0x1p-48f), 0x1.fffffep+5f);
  EXPECT_EQ(add_rz(-64.0f, 0x1p-48f), -0x1.fffffep+5f);
  EXPECT_EQ(add_rz(1000.0f, -0x1p-48f), std::nextafterf(1000.0f, 0.0f));
  // Same-sign tiny addends truncate away.
  EXPECT_EQ(add_rz(64.0f, 0x1p-48f), 64.0f);
  EXPECT_EQ(add_rz(-64.0f, -0x1p-48f), -64.0f);
}

// Adversarial RZ operands: accumulators of either sign up to 2^15, and
// products of FP16 factors that are subnormal, tiny normal or ordinary,
// so exponent spreads run past the 53 bits of a double sum.
float adversarial_accumulator(Rng& rng) {
  const int exp = -24 + static_cast<int>(rng.next_u64() % 40);
  const float mant =
      1.0f + static_cast<float>(rng.next_u64() % (1u << 23)) * 0x1p-23f;
  const float v = std::ldexp(mant, exp);
  return rng.next_u64() % 2 == 0 ? v : -v;
}

float adversarial_fp16(Rng& rng) {
  const float frac = static_cast<float>(rng.next_u64() % 1024) / 1024.0f;
  float v = 0.0f;
  switch (rng.next_u64() % 3) {
    case 0:  // subnormal: k * 2^-24
      v = static_cast<float>(1 + rng.next_u64() % 1023) * 0x1p-24f;
      break;
    case 1:  // tiny normal
      v = std::ldexp(1.0f + frac, -14 + static_cast<int>(rng.next_u64() % 5));
      break;
    default:
      v = std::ldexp(1.0f + frac, -4 + static_cast<int>(rng.next_u64() % 12));
      break;
  }
  return rng.next_u64() % 2 == 0 ? v : -v;
}

TEST(AddRz, MatchesHardwareRzOnAdversarialSpreads) {
  Rng rng(4242);
  for (int t = 0; t < 200000; ++t) {
    const float acc = adversarial_accumulator(rng);
    const float x = adversarial_fp16(rng);
    const float y = adversarial_fp16(rng);
    ASSERT_EQ(quantize_fp16(x), x);
    ASSERT_EQ(quantize_fp16(y), y);
    const float prod = x * y;  // exact: FP16 products fit in FP32
    ASSERT_EQ(static_cast<double>(prod), static_cast<double>(x) * y);
    const float got = add_rz(acc, prod);
    const float ref = hw::add_rz(acc, prod);
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got),
              std::bit_cast<std::uint32_t>(ref))
        << acc << " + " << x << " * " << y;
    // The hardware's fused step agrees: with an exact product it is the
    // same single rounding.
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got),
              std::bit_cast<std::uint32_t>(hw::fma_rz(x, y, acc)))
        << acc << " + " << x << " * " << y;
  }
}

TEST(MulRz, AgainstDouble) {
  Rng rng(33);
  for (int t = 0; t < 50000; ++t) {
    const float a = static_cast<float>(rng.uniform(-100.0, 100.0));
    const float b = static_cast<float>(rng.uniform(-100.0, 100.0));
    EXPECT_EQ(mul_rz(a, b),
              round_toward_zero(static_cast<double>(a) * b));
  }
}

}  // namespace
}  // namespace fasted
