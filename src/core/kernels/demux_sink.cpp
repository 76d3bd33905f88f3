#include "core/kernels/demux_sink.hpp"

#include <utility>

#include "common/check.hpp"

namespace fasted::kernels {

DemuxSink::DemuxSink(std::vector<DemuxRoute> routes, std::size_t num_shards)
    : routes_(std::move(routes)), num_shards_(num_shards) {
  FASTED_CHECK_MSG(!routes_.empty(), "DemuxSink needs at least one route");
  FASTED_CHECK(num_shards_ > 0);
  std::size_t total = 0;
  for (std::size_t r = 0; r < routes_.size(); ++r) {
    FASTED_CHECK_MSG(routes_[r].row_begin == total,
                     "routes must cover the strip contiguously");
    FASTED_CHECK(routes_[r].rows > 0);
    total += routes_[r].rows;
  }
  row_to_request_.resize(total);
  for (std::size_t r = 0; r < routes_.size(); ++r) {
    for (std::size_t i = 0; i < routes_[r].rows; ++i) {
      row_to_request_[routes_[r].row_begin + i] =
          static_cast<std::uint32_t>(r);
    }
  }
  csr_.reserve(routes_.size());
  for (const DemuxRoute& route : routes_) {
    csr_.push_back(std::make_unique<QueryJoinCsrSink>(route.rows));
  }
  tallies_ = std::vector<Tally>(routes_.size());
  shard_hits_ =
      std::vector<std::atomic<std::uint64_t>>(routes_.size() * num_shards_);
}

void DemuxSink::consume(const TileRange& range,
                        std::span<const PairHit> hits) {
  FASTED_CHECK_MSG(range.shard < num_shards_,
                   "tile shard out of range in demux sink");
  if (hits.empty()) return;
  // Group surviving hits by request before forwarding, so each request's CSR
  // sink sees one consume per tile (one stripe-lock round instead of one per
  // hit).  A tile spans at most block_tile_m strip rows, but those rows may
  // straddle several small requests, so group over the full request set.
  std::vector<std::vector<PairHit>> grouped(routes_.size());
  std::vector<std::uint64_t> raw(routes_.size(), 0);
  std::vector<std::uint64_t> tomb(routes_.size(), 0);
  for (const PairHit& h : hits) {
    const std::uint32_t r = row_to_request_[h.query];
    const DemuxRoute& route = routes_[r];
    // The drain ran at the window's widest eps; re-impose this request's own
    // threshold with the identical float comparison a standalone join uses.
    if (!(h.dist2 <= route.eps2)) continue;
    ++raw[r];
    if (!keep(h)) {
      ++tomb[r];
      continue;
    }
    grouped[r].push_back(PairHit{
        static_cast<std::uint32_t>(h.query - route.row_begin), h.corpus,
        h.dist2});
  }
  std::uint64_t dropped_total = 0;
  for (std::size_t r = 0; r < routes_.size(); ++r) {
    if (raw[r] != 0) {
      shard_hits_[r * num_shards_ + range.shard].fetch_add(
          raw[r], std::memory_order_relaxed);
    }
    if (tomb[r] != 0) {
      tallies_[r].tomb.fetch_add(tomb[r], std::memory_order_relaxed);
      dropped_total += tomb[r];
    }
    if (!grouped[r].empty()) {
      tallies_[r].pairs.fetch_add(grouped[r].size(),
                                  std::memory_order_relaxed);
      csr_[r]->consume(range, grouped[r]);
    }
  }
  note_dropped(dropped_total);
}

QueryJoinResult DemuxSink::finalize(std::size_t request) {
  FASTED_CHECK(request < routes_.size());
  return csr_[request]->finalize();
}

std::uint64_t DemuxSink::pairs(std::size_t request) const {
  FASTED_CHECK(request < routes_.size());
  return tallies_[request].pairs.load(std::memory_order_relaxed);
}

std::uint64_t DemuxSink::tombstone_dropped(std::size_t request) const {
  FASTED_CHECK(request < routes_.size());
  return tallies_[request].tomb.load(std::memory_order_relaxed);
}

std::vector<std::uint64_t> DemuxSink::shard_pairs(std::size_t request) const {
  FASTED_CHECK(request < routes_.size());
  std::vector<std::uint64_t> out(num_shards_, 0);
  for (std::size_t s = 0; s < num_shards_; ++s) {
    out[s] =
        shard_hits_[request * num_shards_ + s].load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace fasted::kernels
