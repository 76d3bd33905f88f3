// k-nearest-neighbor search built on the FaSTED query-join service — one of
// the downstream applications motivating the paper (Sec. 1; Samet 2008).
//
// Strategy: all-points kNN is a kNN query batch whose query set equals the
// corpus, served by service::JoinService over a resident ShardedCorpus.
// The service runs an adaptive-radius query join: start from an eps
// calibrated so the mean neighborhood holds ~k * growth candidates, then
// enlarge eps for the queries that came up short, brute-forcing the
// stragglers.  Distances are the FP16-32 pipeline distances, so results are
// exactly what a GPU FaSTED-based kNN would return.

#pragma once

#include <cstdint>
#include <vector>

#include "common/matrix.hpp"
#include "core/fasted.hpp"

namespace fasted::apps {

struct KnnResult {
  // Row-major n x k neighbor ids (self excluded), sorted by distance
  // ascending, ties by id.
  std::vector<std::uint32_t> ids;
  std::vector<float> distances;  // matching FP16-32 pipeline distances
  std::size_t k = 0;

  std::uint32_t id(std::size_t point, std::size_t rank) const {
    return ids[point * k + rank];
  }
  float distance(std::size_t point, std::size_t rank) const {
    return distances[point * k + rank];
  }
  // Number of join rounds the adaptive radius needed.
  int rounds = 0;
};

struct KnnOptions {
  double initial_growth = 3.0;  // initial selectivity target = growth * k
  double radius_growth = 1.6;   // eps multiplier between rounds
  int max_rounds = 8;
  // Number of ways the resident ShardedCorpus is split.  Ids and distances
  // are bit-identical for any count (the service's shard-count
  // invariance), so this is a deployment knob, not a quality trade.
  std::size_t shards = 1;
  // Shard -> execution-domain placement modulus (0 = the global pool's
  // detected domain count).  Like `shards`, purely a deployment knob:
  // results are bit-identical for any value.
  std::size_t domains = 0;
  // Rows to tombstone before serving (global ids into `data`).  Dead rows
  // never appear as anyone's neighbor — each point's row holds its k
  // nearest SURVIVING points (dead points' own rows included: they stay
  // valid query locations, e.g. for "what replaced this outlier" lookups).
  // Requires k < alive rows.
  std::vector<std::uint32_t> tombstones;
};

// Exact k-NN (w.r.t. the FP16-32 pipeline distance) for every point of the
// dataset.  k must be < |D|.
KnnResult knn_all(const FastedEngine& engine, const MatrixF32& data,
                  std::size_t k, const KnnOptions& options = {});

}  // namespace fasted::apps
