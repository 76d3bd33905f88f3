#include "data/calibrate.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace fasted::data {

double dist2_f64(const float* a, const float* b, std::size_t dims) {
  double acc = 0;
  for (std::size_t k = 0; k < dims; ++k) {
    const double diff = static_cast<double>(a[k]) - b[k];
    acc += diff * diff;
  }
  return acc;
}

void dist2_block_f64(const MatrixF32& from,
                     std::span<const std::uint32_t> samples,
                     const MatrixF32& to, bool exclude_self,
                     std::span<double> out) {
  if (samples.empty()) return;
  FASTED_CHECK_MSG(from.dims() == to.dims(), "calibration block dims mismatch");
  FASTED_CHECK_MSG(
      out.size() == samples.size() * (to.rows() - (exclude_self ? 1 : 0)),
      "calibration block output size mismatch");
  static const Dist2BlockF64 lanes = [] {
    const Dist2BlockF64 avx512 = dist2_block_f64_avx512();
    return avx512 != nullptr ? avx512 : &dist2_block_f64_portable;
  }();
  lanes(from, samples, to, exclude_self, out);
}

void dist2_block_f64_portable(const MatrixF32& from,
                              std::span<const std::uint32_t> samples,
                              const MatrixF32& to, bool exclude_self,
                              std::span<double> out) {
  const std::size_t dims = to.dims();
  const std::size_t nt = to.rows();
  const std::size_t per_run = nt - (exclude_self ? 1 : 0);
  std::vector<double> lanes(dims * kBlockLanes);  // lanes[k][l]
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
    for (std::size_t j = 0; j < nt; ++j) {
      const float* row = to.row(j);
      double acc[kBlockLanes] = {};
      const double* col = lanes.data();
      for (std::size_t k = 0; k < dims; ++k, col += kBlockLanes) {
        const double x = row[k];
        for (std::size_t l = 0; l < kBlockLanes; ++l) {
          const double diff = col[l] - x;
          acc[l] += diff * diff;
        }
      }
      // Read out through a copy: indexing `acc` by the runtime lane count
      // below would keep GCC from holding all its lanes in registers.
      double d2[kBlockLanes];
      std::copy_n(acc, kBlockLanes, d2);
      for (std::size_t l = 0; l < used; ++l) {
        const std::size_t self = samples[a0 + l];
        if (exclude_self && j == self) continue;
        out[(a0 + l) * per_run + (exclude_self && j > self ? j - 1 : j)] =
            d2[l];
      }
    }
  }
}

void sort_run(std::span<double> run, std::span<double> scratch) {
  const std::size_t n = run.size();
  if (n < 2) return;
  FASTED_CHECK_MSG(scratch.size() >= n, "sort_run scratch is too small");
  FASTED_CHECK_MSG(n <= std::numeric_limits<std::uint32_t>::max(),
                   "sort_run counts are 32-bit");
  constexpr std::size_t kDigits = sizeof(std::uint64_t);
  const auto key = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  // Every digit's histogram in one read of the run.
  std::uint32_t count[kDigits][256] = {};
  for (const double v : run) {
    const std::uint64_t k = key(v);
    for (std::size_t d = 0; d < kDigits; ++d) {
      ++count[d][(k >> (8 * d)) & 0xff];
    }
  }
  FASTED_CHECK_MSG(std::all_of(count[kDigits - 1] + 0x80,
                               count[kDigits - 1] + 0x100,
                               [](std::uint32_t c) { return c == 0; }),
                   "sort_run values must have the sign bit clear");

  double* src = run.data();
  double* dst = scratch.data();
  for (std::size_t d = 0; d < kDigits; ++d) {
    std::uint32_t* offset = count[d];
    const unsigned shift = static_cast<unsigned>(8 * d);
    // A digit every key shares leaves the order as it is.
    if (offset[(key(src[0]) >> shift) & 0xff] == n) continue;
    std::uint32_t sum = 0;
    for (std::size_t b = 0; b < 256; ++b) {
      const std::uint32_t c = offset[b];
      offset[b] = sum;
      sum += c;
    }
    for (std::size_t i = 0; i < n; ++i) {
      dst[offset[(key(src[i]) >> shift) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != run.data()) std::copy_n(src, n, run.data());
}

CalibrationResult calibrate_epsilon(const MatrixF32& data,
                                    double target_selectivity,
                                    std::uint64_t seed,
                                    std::size_t sample_points) {
  const std::size_t n = data.rows();
  FASTED_CHECK_MSG(n >= 2, "calibration needs at least two points");
  FASTED_CHECK_MSG(target_selectivity > 0, "selectivity must be positive");
  FASTED_CHECK_MSG(n - 1 <= std::numeric_limits<std::uint32_t>::max(),
                   "calibration row ids are 32-bit");
  // A NaN distance would break the strict weak ordering nth_element needs.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < data.dims(); ++k) {
      FASTED_CHECK_MSG(std::isfinite(data.at(i, k)),
                       "calibration rows must be finite (row " +
                           std::to_string(i) + ", column " +
                           std::to_string(k) + ")");
    }
  }
  const std::size_t m = std::min(sample_points, n);

  // Sample query rows without replacement (reservoir-free: shuffle-pick).
  Rng rng(seed);
  std::vector<std::uint32_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = 0; i < m; ++i) {
    std::swap(ids[i], ids[i + rng.next_below(n - i)]);
  }

  // All distances sample -> dataset (excluding self), split across threads
  // in whole lane groups.
  std::vector<double> d2(m * (n - 1));
  const std::span<const std::uint32_t> sample(ids.data(), m);
  const std::span<double> runs(d2);
  const std::size_t groups = (m + kBlockLanes - 1) / kBlockLanes;
  parallel_for(0, groups, [&](std::size_t g0, std::size_t g1) {
    const std::size_t b = g0 * kBlockLanes;
    const std::size_t e = std::min(m, g1 * kBlockLanes);
    dist2_block_f64(data, sample.subspan(b, e - b), data, /*exclude_self=*/true,
                    runs.subspan(b * (n - 1), (e - b) * (n - 1)));
  });

  // Quantile such that the mean neighbor count is the target selectivity.
  const double frac =
      std::min(1.0, target_selectivity / static_cast<double>(n - 1));
  const auto k = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(d2.size()) - 1,
                       frac * static_cast<double>(d2.size())));
  std::nth_element(d2.begin(), d2.begin() + static_cast<std::ptrdiff_t>(k),
                   d2.end());
  const double eps = std::sqrt(d2[k]);

  // Achieved selectivity on the sample at that eps.
  std::size_t within = 0;
  for (double v : d2) {
    if (std::sqrt(v) <= eps) ++within;
  }
  CalibrationResult r;
  r.eps = static_cast<float>(eps);
  r.achieved_selectivity =
      static_cast<double>(within) / static_cast<double>(m);
  return r;
}

double exact_selectivity(const MatrixF32& data, float eps) {
  const std::size_t n = data.rows();
  const double eps2 = static_cast<double>(eps) * eps;
  std::vector<std::uint64_t> counts(n, 0);
  parallel_for(0, n, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      std::uint64_t c = 0;
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        if (dist2_f64(data.row(i), data.row(j), data.dims()) <= eps2) ++c;
      }
      counts[i] = c;
    }
  });
  std::uint64_t total = 0;
  for (auto c : counts) total += c;
  return static_cast<double>(total) / static_cast<double>(n);
}

}  // namespace fasted::data
