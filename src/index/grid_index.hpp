// Grid index for distance-similarity range queries (the GDS-Join substrate
// [Gowanlock & Karsin 2019; Gowanlock, Gallet, Donnelly 2023]).
//
// Points are bucketed into a uniform grid of cell width eps over the first
// `indexed_dims` dimensions (indexing all of a high-dimensional space is
// useless — the curse of dimensionality empties the cells — so only a
// prefix is indexed; the distance computation still uses all dims).
// A range query for point q gathers candidates from the 3^g adjacent cells,
// which is exactly the set that can contain points within eps.

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/matrix.hpp"

namespace fasted::index {

class GridIndex {
 public:
  // `indexed_dims` 0 picks min(6, d).
  GridIndex(const MatrixF32& data, float eps, int indexed_dims = 0);

  // Appends all candidate point ids for the query point `i` (its own cell
  // plus adjacent cells).  The candidates are a superset of the true
  // neighbors within eps.
  void candidates_of(std::size_t i, std::vector<std::uint32_t>& out) const;

  // Same, for an external query point (a row of at least indexed_dims()
  // coordinates that need not belong to the indexed data).
  void candidates_of(const float* query, std::vector<std::uint32_t>& out) const;

  std::size_t non_empty_cells() const { return cells_.size(); }
  int indexed_dims() const { return g_; }
  double build_flop_estimate() const;  // for the GPU timing model

  // Average candidate-list length over a sample (diagnostics / model).
  double mean_candidates(std::size_t sample = 256) const;

 private:
  using CellKey = std::uint64_t;
  CellKey key_of(const float* p) const;
  bool neighbor_key(const float* p, const int* offset, CellKey& key) const;

  const MatrixF32& data_;
  float eps_;
  int g_;
  std::vector<float> mins_;
  std::unordered_map<CellKey, std::vector<std::uint32_t>> cells_;
  std::vector<std::vector<int>> neighbor_offsets_;  // 3^g offset tuples
};

}  // namespace fasted::index
