// References for the service tests, computed without the service.
//
// JoinService results are checked against answers that share no corpus
// backend, shard split, calibration cache or adaptive radius with it:
//
//   eps_reference  FastedEngine().query_join on one unsharded
//                  PreparedDataset of the corpus.
//   knn_reference  every corpus row ranked by (dist2, id) through
//                  query_row_join with eps2 = +inf on the scalar kernel
//                  (whatever kernel the service runs); distances are
//                  sqrt(max(0, dist2)), the float the service reports.
//   calibration_reference
//                  ShardedCorpus::eps_for_selectivity's weighted quantile
//                  from one pooled sort: every sample-row distance rebuilt
//                  with scalar data::dist2_f64 from the public
//                  Shard::points and sample_ids, sorted by (d2, block
//                  ordinal in (s, t) snapshot order) and summed in order.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "common/matrix.hpp"
#include "core/fasted.hpp"
#include "data/calibrate.hpp"
#include "service/join_service.hpp"
#include "service/sharded_corpus.hpp"

namespace fasted::reference {

inline QueryJoinOutput eps_reference(const MatrixF32& corpus,
                                     const MatrixF32& queries, float eps) {
  return FastedEngine().query_join(PreparedDataset(queries),
                                   PreparedDataset(corpus), eps);
}

inline service::KnnBatchResult knn_reference(const MatrixF32& corpus,
                                             const MatrixF32& queries,
                                             std::size_t k) {
  const PreparedDataset pc(corpus);
  const PreparedDataset pq(queries);
  service::KnnBatchResult out;
  out.k = k;
  out.ids.reserve(pq.rows() * k);
  out.distances.reserve(pq.rows() * k);
  std::vector<QueryMatch> all;
  for (std::size_t q = 0; q < pq.rows(); ++q) {
    all.clear();
    query_row_join(pq.values().row(q), pq.norms()[q], pc, 0, pc.rows(),
                   std::numeric_limits<float>::infinity(),
                   kernels::rz_dot_scalar(), all);
    std::sort(all.begin(), all.end(),
              [](const QueryMatch& a, const QueryMatch& b) {
                return a.dist2 != b.dist2 ? a.dist2 < b.dist2 : a.id < b.id;
              });
    for (std::size_t r = 0; r < k; ++r) {
      out.ids.push_back(all[r].id);
      out.distances.push_back(std::sqrt(std::max(0.0f, all[r].dist2)));
    }
  }
  return out;
}

inline float calibration_reference(
    const service::ShardedCorpus::Snapshot& snap, double target) {
  struct Weighted {
    double d2;
    std::size_t block;  // ordinal in (s, t) snapshot order
    double w;           // per-distance weight x alive fraction of t
  };
  const std::size_t n = snap.back().shard->base + snap.back().shard->rows();
  std::vector<Weighted> pool;
  double total = 0;
  std::size_t block = 0;
  for (std::size_t si = 0; si < snap.size(); ++si) {
    const auto& s = *snap[si].shard;
    const double per_dist =
        static_cast<double>(s.rows()) / static_cast<double>(n) /
        (static_cast<double>(s.sample_ids.size()) *
         static_cast<double>(n - 1));
    for (std::size_t ti = 0; ti < snap.size(); ++ti, ++block) {
      const auto& t = *snap[ti].shard;
      const double alive =
          static_cast<double>(t.rows() - snap[ti].dead_count) /
          static_cast<double>(t.rows());
      std::size_t count = 0;
      for (const std::uint32_t sid : s.sample_ids) {
        for (std::size_t j = 0; j < t.rows(); ++j) {
          if (si == ti && j == sid) continue;
          pool.push_back(Weighted{
              data::dist2_f64(s.points.row(sid), t.points.row(j),
                              s.points.dims()),
              block, per_dist * alive});
          ++count;
        }
      }
      total += per_dist * static_cast<double>(count);
    }
  }
  std::sort(pool.begin(), pool.end(),
            [](const Weighted& a, const Weighted& b) {
              return a.d2 != b.d2 ? a.d2 < b.d2 : a.block < b.block;
            });
  const double cut =
      std::min(1.0, target / static_cast<double>(n - 1)) * total;
  double cum = 0;
  for (const Weighted& x : pool) {
    cum += x.w;
    if (cum >= cut) return static_cast<float>(std::sqrt(x.d2));
  }
  return static_cast<float>(std::sqrt(pool.back().d2));
}

}  // namespace fasted::reference
