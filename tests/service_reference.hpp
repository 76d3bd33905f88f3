// References for the service tests, computed without the service.
//
// JoinService results are checked against answers that share no corpus
// backend, shard split, calibration cache or adaptive radius with it:
//
//   eps_reference  FastedEngine().query_join on one unsharded
//                  PreparedDataset of the corpus.
//   knn_reference  every corpus row ranked by (dist2, id) through
//                  query_row_join with eps2 = +inf; distances are
//                  sqrt(max(0, dist2)), the float the service reports.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "common/matrix.hpp"
#include "core/fasted.hpp"
#include "service/join_service.hpp"

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
    query_row_join(pq.values().row(q), pq.norms()[q], pc.values(), pc.norms(),
                   0, pc.rows(), std::numeric_limits<float>::infinity(), all);
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

}  // namespace fasted::reference
