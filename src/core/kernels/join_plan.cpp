#include "core/kernels/join_plan.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <tuple>

#include "common/check.hpp"

namespace fasted::kernels {

namespace {

std::size_t div_up(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

// Upper-triangle filter of the policy order, memoized like
// sim::dispatch_order_cached: the serve path re-plans the same self-join
// grid on every query batch, and at 1e6 rows the triangular order holds
// ~3e7 tile pairs — worth deriving once, not per plan.
std::shared_ptr<const WorkQueue::Order> triangular_order_cached(
    sim::DispatchPolicy policy, std::size_t tiles, int square) {
  using Key = std::tuple<int, std::size_t, int>;
  constexpr std::size_t kMaxEntries = 64;
  static std::mutex mutex;
  static std::map<Key, std::shared_ptr<const WorkQueue::Order>> cache;

  const Key key{static_cast<int>(policy), tiles, square};
  {
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = cache.find(key);
    if (it != cache.end()) return it->second;
  }
  auto order = sim::dispatch_order(policy, tiles, square);
  // Keep the upper triangle (tc >= tr) in policy order; the mirrored half
  // is recovered by the sink (RZ distances are exactly symmetric).
  order.erase(std::remove_if(order.begin(), order.end(),
                             [](const auto& t) { return t.second < t.first; }),
              order.end());
  auto shared = std::make_shared<const WorkQueue::Order>(std::move(order));
  std::lock_guard<std::mutex> lock(mutex);
  if (cache.size() < kMaxEntries) cache.emplace(key, shared);
  const auto it = cache.find(key);  // a racing insert wins; share its copy
  return it != cache.end() ? it->second : shared;
}

}  // namespace

JoinPlan JoinPlan::triangular_self(const FastedConfig& cfg, std::size_t n) {
  FASTED_CHECK_MSG(n > 0, "empty self-join");
  // Self-join tiles are square so the diagonal tiles straddle i == j
  // exactly (and stay within the emulated engine's block on either side).
  const std::size_t bm = std::min(static_cast<std::size_t>(cfg.block_tile_m),
                                  static_cast<std::size_t>(cfg.block_tile_n));
  const std::size_t tiles = div_up(n, bm);
  auto order = triangular_order_cached(cfg.dispatch_policy(), tiles,
                                       cfg.dispatch_square);
  return JoinPlan(std::move(order), bm, bm, n, n, /*triangular=*/true);
}

JoinPlan JoinPlan::rectangular(const FastedConfig& cfg, std::size_t nq,
                               std::size_t nc) {
  FASTED_CHECK_MSG(nq > 0 && nc > 0, "empty join");
  const auto bm = static_cast<std::size_t>(cfg.block_tile_m);
  const auto bn = static_cast<std::size_t>(cfg.block_tile_n);
  auto order = sim::dispatch_order_cached(cfg.dispatch_policy(), div_up(nq, bm),
                                          div_up(nc, bn), cfg.dispatch_square);
  return JoinPlan(std::move(order), bm, bn, nq, nc, /*triangular=*/false);
}

JoinPlan JoinPlan::query_strip(const FastedConfig& cfg, std::size_t nq,
                               std::size_t nc) {
  FASTED_CHECK_MSG(nq > 0 && nc > 0, "empty join");
  const auto bm = static_cast<std::size_t>(cfg.block_tile_m);
  // One tile per strip of bm queries, spanning the whole corpus: a query's
  // matches complete within a single tile (streaming sinks rely on this).
  auto order = sim::dispatch_order_cached(cfg.dispatch_policy(), div_up(nq, bm),
                                          1, cfg.dispatch_square);
  return JoinPlan(std::move(order), bm, nc, nq, nc, /*triangular=*/false);
}

bool JoinPlan::next(TileRange& out) {
  std::pair<std::uint32_t, std::uint32_t> tile;
  if (!queue_.pop(tile)) return false;
  fill_range(tile, out);
  return true;
}

bool JoinPlan::steal_next(TileRange& out) {
  std::pair<std::uint32_t, std::uint32_t> tile;
  if (!queue_.steal(tile)) return false;
  fill_range(tile, out);
  return true;
}

void JoinPlan::fill_range(const std::pair<std::uint32_t, std::uint32_t>& tile,
                          TileRange& out) const {
  out.q0 = static_cast<std::size_t>(tile.first) * tile_m_;
  out.q1 = std::min(out.q0 + tile_m_, nq_);
  out.c0 = static_cast<std::size_t>(tile.second) * tile_n_;
  out.c1 = std::min(out.c0 + tile_n_, nc_);
  out.diagonal = triangular_ && tile.first == tile.second;
}

}  // namespace fasted::kernels
