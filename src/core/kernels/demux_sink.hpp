// DemuxSink: row-offset → request demultiplexing for coalesced query joins.
//
// The batch gateway (serve/batch_gateway.hpp) concatenates the query rows of
// several client requests into one strip and runs a SINGLE query_join_into
// drain at the window's widest eps.  This sink routes every emitted hit back
// to the request that owns its strip row, re-applies the request's OWN
// threshold, and builds one request-local QueryJoinResult per request — so
// each client observes exactly the result a standalone query_join would have
// produced:
//
//   * the dense tile kernels compute dist2 independent of eps (no pruning),
//     and every join thresholds with the same float `eps * eps` comparison,
//     so keeping hits with dist2 <= eps_r^2 out of an eps_max drain is
//     bit-identical to draining at eps_r directly;
//   * quantization and norms are per-row, so a concatenated strip prepares
//     each request's rows bit-identically to preparing them alone.
//
// Tombstone filtering happens here (per hit, after the per-request eps
// filter) rather than in the per-request CSR sinks, so the per-request
// tombstone drop tallies match what a standalone filtered drain would count.
// Pair a DemuxSink with query_strip plans (query_join_into): per_tile()
// delivery gives it the shard id of every tile, which is how the
// per-request shard_pairs skew stats stay exact.  A tile whose shard id is
// not below `num_shards` is rejected with a CheckError.
//
// consume() is thread-safe (the executor calls it from pool workers); the
// finalize/accessor methods are single-threaded post-drain.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/kernels/result_sink.hpp"
#include "core/result.hpp"

namespace fasted::kernels {

// One coalesced request's slice of the query strip.  Routes must cover the
// strip contiguously in ascending row order.  eps2 is the request's own
// squared threshold, computed as `eps * eps` in float — the same expression
// every standalone join uses — and must not exceed the drain's eps2.
struct DemuxRoute {
  std::size_t row_begin = 0;  // first strip row owned by this request
  std::size_t rows = 0;       // number of strip rows
  float eps2 = 0.0f;          // request threshold (<= the drain threshold)
};

class DemuxSink final : public ResultSink {
 public:
  DemuxSink(std::vector<DemuxRoute> routes, std::size_t num_shards);

  bool per_tile() const override { return true; }
  void consume(const TileRange& range, std::span<const PairHit> hits) override;

  std::size_t requests() const { return routes_.size(); }

  // Post-drain, per request: the surviving matches as a request-local CSR
  // (row r = strip row routes[request].row_begin + r; corpus ids global,
  // sorted ascending per row exactly like QueryJoinOutput::result).  Call
  // at most once per request.
  QueryJoinResult finalize(std::size_t request);

  // Surviving (request-eps and tombstone filtered) match count.
  std::uint64_t pairs(std::size_t request) const;
  // Hits under the request's eps whose corpus row was tombstoned.
  std::uint64_t tombstone_dropped(std::size_t request) const;
  // Raw (pre-tombstone) per-shard hit counts under the request's eps — the
  // same per-shard skew accounting a standalone drain reports.
  std::vector<std::uint64_t> shard_pairs(std::size_t request) const;

 private:
  std::vector<DemuxRoute> routes_;
  // O(1) strip-row → request lookup (one entry per strip row).
  std::vector<std::uint32_t> row_to_request_;
  std::size_t num_shards_;
  // One request-local CSR sink per request (unique_ptr: the sink's stripe
  // mutexes are not movable).
  std::vector<std::unique_ptr<QueryJoinCsrSink>> csr_;
  struct alignas(64) Tally {
    std::atomic<std::uint64_t> pairs{0};
    std::atomic<std::uint64_t> tomb{0};
  };
  std::vector<Tally> tallies_;
  // requests x num_shards raw hit counts (row-major).
  std::vector<std::atomic<std::uint64_t>> shard_hits_;
};

}  // namespace fasted::kernels
