#include "oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <utility>

#include "common/parallel.hpp"
#include "data/calibrate.hpp"

namespace bench {

namespace {

using fasted::MatrixF32;
using fasted::PreparedDataset;

// |a ∩ b| / |a ∪ b| of two ascending id lists (1 when both are empty).
double overlap(const std::vector<std::uint32_t>& a,
               const std::vector<std::uint32_t>& b) {
  std::vector<std::uint32_t> both;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(both));
  const std::size_t uni = a.size() + b.size() - both.size();
  return uni == 0 ? 1.0
                  : static_cast<double>(both.size()) / static_cast<double>(uni);
}

}  // namespace

MatrixF32 Oracle::copy_row(const float* row, std::size_t dims) {
  MatrixF32 m(1, dims);
  std::memcpy(m.row(0), row, dims * sizeof(float));
  return m;
}

void Oracle::fail(std::size_t op, bool incorrect) {
  failed_ops_.push_back(op);
  if (incorrect) incorrect_ops_.push_back(op);
}

void Oracle::check_eps(std::size_t op, std::shared_ptr<const Snapshot> snap,
                       const float* raw_query, std::size_t dims, float eps,
                       std::span<const fasted::QueryMatch> observed,
                       bool score_overlap) {
  Check c;
  c.kind = Kind::kEps;
  c.op = op;
  c.snap = std::move(snap);
  c.query = copy_row(raw_query, dims);
  c.eps = eps;
  std::vector<fasted::QueryMatch> sorted(observed.begin(), observed.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  for (const fasted::QueryMatch& m : sorted) {
    c.ids.push_back(m.id);
    c.dist2.push_back(m.dist2);
  }
  c.score_overlap = score_overlap;
  checks_.push_back(std::move(c));
}

void Oracle::check_knn(std::size_t op, std::shared_ptr<const Snapshot> snap,
                       const float* raw_query, std::size_t dims, std::size_t k,
                       std::span<const std::uint32_t> ids,
                       std::span<const float> distances) {
  Check c;
  c.kind = Kind::kKnn;
  c.op = op;
  c.snap = std::move(snap);
  c.query = copy_row(raw_query, dims);
  c.k = k;
  c.ids.assign(ids.begin(), ids.end());
  c.dist2.assign(distances.begin(), distances.end());
  checks_.push_back(std::move(c));
}

void Oracle::check_self_row(std::size_t op, const MatrixF32& raw,
                            const PreparedDataset& prep, std::size_t row,
                            float eps, std::span<const std::uint32_t> observed,
                            bool score_overlap) {
  Check c;
  c.kind = Kind::kSelfRow;
  c.op = op;
  c.raw = &raw;
  c.prep = &prep;
  c.row = row;
  c.eps = eps;
  c.ids.assign(observed.begin(), observed.end());
  c.score_overlap = score_overlap;
  checks_.push_back(std::move(c));
}

void Oracle::run(Check& c) const {
  if (c.kind == Kind::kSelfRow) {
    // CSR rows hold the point itself plus every other row within eps.
    const float eps2 = c.eps * c.eps;
    const double eps2_f64 = static_cast<double>(c.eps) * c.eps;
    const std::size_t dims = c.raw->dims();
    std::vector<std::uint32_t> want, fp64;
    for (std::size_t j = 0; j < c.prep->rows(); ++j) {
      if (j == c.row || c.prep->pair_dist2(c.row, j) <= eps2) {
        want.push_back(static_cast<std::uint32_t>(j));
      }
      if (c.score_overlap &&
          fasted::data::dist2_f64(c.raw->row(c.row), c.raw->row(j), dims) <=
              eps2_f64) {
        fp64.push_back(static_cast<std::uint32_t>(j));
      }
    }
    c.ok = want == c.ids;
    if (c.score_overlap) c.overlap = overlap(c.ids, fp64);
    return;
  }

  // Eps and kNN: every alive row of the pinned snapshot, brute-forced.
  const PreparedDataset q(c.query);
  const std::size_t stride = q.values().stride();
  const std::size_t dims = q.dims();
  struct Hit {
    float d2;
    std::uint32_t id;
  };
  std::vector<Hit> all;
  std::vector<std::uint32_t> fp64;
  const float eps2 = c.eps * c.eps;
  const double eps2_f64 = static_cast<double>(c.eps) * c.eps;
  for (const auto& slot : *c.snap) {
    const auto& shard = *slot.shard;
    const PreparedDataset& p = shard.prepared;
    for (std::size_t r = 0; r < shard.rows(); ++r) {
      if (row_dead(slot, r)) continue;
      const auto id = static_cast<std::uint32_t>(shard.base + r);
      const float d2 =
          fasted::fasted_pair_dist2(q.values().row(0), p.values().row(r),
                                    stride, q.norms()[0], p.norms()[r]);
      if (c.kind == Kind::kKnn || d2 <= eps2) all.push_back(Hit{d2, id});
      if (c.score_overlap &&
          fasted::data::dist2_f64(c.query.row(0), shard.points.row(r), dims) <=
              eps2_f64) {
        fp64.push_back(id);
      }
    }
  }
  if (c.kind == Kind::kKnn) {
    const std::size_t k = std::min(c.k, all.size());
    std::partial_sort(all.begin(), all.begin() + static_cast<long>(k),
                      all.end(), [](const Hit& a, const Hit& b) {
                        return a.d2 < b.d2 || (a.d2 == b.d2 && a.id < b.id);
                      });
    all.resize(k);
    // kNN responses carry distances, not squared distances.
    for (Hit& h : all) h.d2 = std::sqrt(std::max(0.0f, h.d2));
  }
  bool ok = all.size() == c.ids.size();
  for (std::size_t i = 0; ok && i < all.size(); ++i) {
    ok = all[i].id == c.ids[i] && all[i].d2 == c.dist2[i];
  }
  c.ok = ok;
  if (c.score_overlap) c.overlap = overlap(c.ids, fp64);
}

void Oracle::verify() {
  fasted::parallel_for(verified_, checks_.size(),
                       [&](std::size_t lo, std::size_t hi) {
                         for (std::size_t i = lo; i < hi; ++i) {
                           run(checks_[i]);
                           checks_[i].snap.reset();
                         }
                       });
  verified_ = checks_.size();
}

std::uint64_t Oracle::with_failed_checks(const std::vector<std::size_t>& ops) const {
  std::set<std::size_t> all(ops.begin(), ops.end());
  for (const Check& c : checks_) {
    if (!c.ok) all.insert(c.op);
  }
  return all.size();
}

std::uint64_t Oracle::failed() const { return with_failed_checks(failed_ops_); }

std::uint64_t Oracle::incorrect() const {
  return with_failed_checks(incorrect_ops_);
}

double Oracle::overlap_mean() const {
  double sum = 0;
  std::size_t n = 0;
  for (const Check& c : checks_) {
    if (c.score_overlap) {
      sum += c.overlap;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

std::size_t Oracle::overlap_n() const {
  return static_cast<std::size_t>(
      std::count_if(checks_.begin(), checks_.end(),
                    [](const Check& c) { return c.score_overlap; }));
}

}  // namespace bench
