#include "core/kernels/rz_dot.hpp"

#include <cstring>

#include "common/fp16.hpp"
#include "common/rounding.hpp"

namespace fasted::kernels {

void pack_panel(const float* rows, std::size_t row_stride, std::size_t nrows,
                std::size_t dims, float* panel) {
  if (nrows < kPanelWidth) {
    std::memset(panel, 0, dims * kPanelWidth * sizeof(float));
  }
  for (std::size_t r = 0; r < nrows; ++r) {
    const float* src = rows + r * row_stride;
    for (std::size_t k = 0; k < dims; ++k) {
      panel[k * kPanelWidth + r] = src[k];
    }
  }
}

namespace {

void dot_panel_scalar(const float* q, std::size_t q_stride, std::size_t nq,
                      const float* panel, std::size_t dims, float* acc) {
  for (std::size_t qi = 0; qi < nq; ++qi) {
    const float* query = q + qi * q_stride;
    float* a = acc + qi * kPanelWidth;
    for (std::size_t r = 0; r < kPanelWidth; ++r) a[r] = 0.0f;
    for (std::size_t k = 0; k < dims; ++k) {
      const float qk = query[k];
      const float* col = panel + k * kPanelWidth;
      // kPanelWidth independent RZ chains; the FP16-exact products are
      // exact in FP32, so only the accumulation rounds (toward zero).
      for (std::size_t r = 0; r < kPanelWidth; ++r) {
        a[r] = add_rz(a[r], qk * col[r]);
      }
    }
  }
}

void dot_panel_hits_scalar(const float* q, std::size_t q_stride,
                           std::size_t nq, const float* panel,
                           std::size_t dims, const PanelEpilogue& ep,
                           float* acc, std::uint32_t* masks) {
  dot_panel_scalar(q, q_stride, nq, panel, dims, acc);
  for (std::size_t qi = 0; qi < nq; ++qi) {
    std::uint32_t m = 0;
    for (std::size_t r = 0; r < ep.width; ++r) {
      const float d2 = epilogue_dist2(acc[qi * kPanelWidth + r],
                                      ep.q_norms[qi], ep.c_norms[r]);
      m |= static_cast<std::uint32_t>(d2 <= ep.eps2) << r;
    }
    masks[qi] = m;
  }
}

void widen_panel_scalar(const std::uint16_t* half_panel, std::size_t dims,
                        float* panel) {
  for (std::size_t i = 0; i < dims * kPanelWidth; ++i) {
    panel[i] = Fp16::decode(half_panel[i]);
  }
}

const RzDotKernel kScalar{"scalar", &dot_panel_scalar, &dot_panel_hits_scalar,
                          &widen_panel_scalar};

}  // namespace

const RzDotKernel& rz_dot_scalar() { return kScalar; }

}  // namespace fasted::kernels
