// JoinPlan: one tile enumeration for every join traversal.
//
// A JoinPlan is a grid of block tiles (block_tile_m query rows x
// block_tile_n corpus rows), ordered by the L2-locality dispatch policy and
// drained concurrently from the existing WorkQueue.  Three shapes cover
// every join the engine runs:
//
//   triangular_self  upper-triangle tiles of an n x n self-join; diagonal
//                    tiles emit only j > i and the self-join CSR sink
//                    mirrors (dist is exactly symmetric under RZ).
//   rectangular      the full query x corpus grid (resident query joins,
//                    and the shard-pair blocks of a sharded self-join).
//   query_strip      block_tile_m queries x the whole corpus per tile, for
//                    streaming sinks that need each query's matches to
//                    complete within one tile.

#pragma once

#include <cstddef>
#include <memory>

#include "core/config.hpp"
#include "core/work_queue.hpp"

namespace fasted::kernels {

// Half-open row ranges of one tile: queries [q0, q1) x corpus [c0, c1).
// `diagonal` marks self-join tiles that straddle i == j.  Plans emit ranges
// in their own (shard-local) coordinates; the executor translates to global
// row ids and stamps `shard` before handing per-tile ranges to a sink, so
// merging sinks can tell which shard of a sharded corpus a tile came from.
struct TileRange {
  std::size_t q0 = 0;
  std::size_t q1 = 0;
  std::size_t c0 = 0;
  std::size_t c1 = 0;
  std::size_t shard = 0;
  bool diagonal = false;
};

class JoinPlan {
 public:
  static JoinPlan triangular_self(const FastedConfig& cfg, std::size_t n);
  static JoinPlan rectangular(const FastedConfig& cfg, std::size_t nq,
                              std::size_t nc);
  static JoinPlan query_strip(const FastedConfig& cfg, std::size_t nq,
                              std::size_t nc);

  // Thread-safe drain (backed by WorkQueue); false once exhausted.
  bool next(TileRange& out);

  // Thread-safe tail drain for cross-domain work stealing: claims tiles
  // from the END of the dispatch order, so the owning domain's workers keep
  // consuming the head's L2-locality squares undisturbed.  Safe to mix with
  // next() on the same plan; every tile is handed out exactly once.
  bool steal_next(TileRange& out);

  std::size_t tile_count() const { return queue_.size(); }
  bool triangular() const { return triangular_; }
  std::size_t query_rows() const { return nq_; }
  std::size_t corpus_rows() const { return nc_; }

 private:
  void fill_range(const std::pair<std::uint32_t, std::uint32_t>& tile,
                  TileRange& out) const;

  JoinPlan(std::shared_ptr<const WorkQueue::Order> order, std::size_t tile_m,
           std::size_t tile_n, std::size_t nq, std::size_t nc,
           bool triangular)
      : queue_(std::move(order)),
        tile_m_(tile_m),
        tile_n_(tile_n),
        nq_(nq),
        nc_(nc),
        triangular_(triangular) {}

  WorkQueue queue_;
  std::size_t tile_m_;
  std::size_t tile_n_;
  std::size_t nq_;
  std::size_t nc_;
  bool triangular_;
};

}  // namespace fasted::kernels
