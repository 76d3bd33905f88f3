#include "core/kernels/result_sink.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace fasted::kernels {

TombstoneFilter::TombstoneFilter(std::vector<TombstoneSpan> spans)
    : spans_(std::move(spans)) {
  for (const TombstoneSpan& s : spans_) {
    if (s.bits == nullptr) continue;
    any_ = true;
    const std::size_t words = (s.rows + 63) / 64;
    for (std::size_t w = 0; w < words; ++w) {
      dead_count_ += static_cast<std::uint64_t>(std::popcount(s.bits[w]));
    }
  }
}

bool TombstoneFilter::dead(std::uint32_t global_row) const {
  if (!any_) return false;
  // First span whose base is > row, minus one: spans are contiguous and
  // ascend by base, so this is the span holding the row.
  const auto it = std::upper_bound(
      spans_.begin(), spans_.end(), global_row,
      [](std::uint32_t r, const TombstoneSpan& s) { return r < s.base; });
  FASTED_CHECK_MSG(it != spans_.begin(), "row below the first tombstone span");
  const TombstoneSpan& span = *(it - 1);
  if (span.bits == nullptr) return false;
  const std::size_t local = global_row - span.base;
  FASTED_CHECK_MSG(local < span.rows, "row beyond the tombstone spans");
  return (span.bits[local >> 6] >> (local & 63)) & 1u;
}

SelfJoinCsrSink::SelfJoinCsrSink(std::size_t n, bool mirror)
    : mirror_(mirror), rows_(n) {}

namespace {

// One counting pass, then only the stripes this flush actually touches are
// locked and scanned (a tile's queries span very few stripes; buffered
// flushes across a dispatch square span a handful).
template <typename Append>
void consume_striped(std::array<std::mutex, kSinkStripes>& stripes,
                     std::span<const PairHit> hits, const Append& append) {
  std::array<std::size_t, kSinkStripes> counts{};
  for (const PairHit& h : hits) ++counts[sink_stripe_of(h.query)];
  for (std::size_t s = 0; s < kSinkStripes; ++s) {
    if (counts[s] == 0) continue;
    std::lock_guard<std::mutex> lock(stripes[s]);
    std::size_t remaining = counts[s];
    for (const PairHit& h : hits) {
      if (sink_stripe_of(h.query) != s) continue;
      append(h);
      if (--remaining == 0) break;
    }
  }
}

// Tombstone filtering compacts the surviving hits into worker-local
// scratch BEFORE the striped append, so the counting pass and the append
// walk the same hit set.  The predicate decides which row ids a dead row
// poisons (corpus side only for query joins, either end for self-joins).
template <typename Alive>
std::span<const PairHit> compact_live(std::span<const PairHit> hits,
                                      const Alive& alive,
                                      std::uint64_t& dropped) {
  thread_local std::vector<PairHit> live;
  live.clear();
  for (const PairHit& h : hits) {
    if (alive(h)) live.push_back(h);
  }
  dropped = hits.size() - live.size();
  return std::span<const PairHit>(live);
}

}  // namespace

void SelfJoinCsrSink::consume(const TileRange&,
                              std::span<const PairHit> hits) {
  if (filtered()) {
    std::uint64_t drops = 0;
    hits = compact_live(
        hits,
        [&](const PairHit& h) {
          return !filter_->dead(h.query) && !filter_->dead(h.corpus);
        },
        drops);
    note_dropped(drops);
  }
  consume_striped(stripes_, hits, [&](const PairHit& h) {
    rows_[h.query].push_back(h.corpus);
  });
}

SelfJoinResult SelfJoinCsrSink::finalize() {
  const std::size_t n = rows_.size();
  // Tiles land in drain order; canonicalize every row to ascending ids.
  parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      std::sort(rows_[i].begin(), rows_[i].end());
    }
  });
  if (!mirror_) return SelfJoinResult::from_rows(std::move(rows_));

  // rows_ holds each point's j > i neighbors, sorted.  Ascending final rows
  // are below-neighbors (mirrored), then self, then above-neighbors.  Dead
  // rows (tombstone filter) never received or produced a hit, and their
  // always-within-eps self pair is skipped too — their rows stay empty.
  std::vector<std::uint64_t> below_count(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::uint32_t j : rows_[i]) ++below_count[j];
  }
  std::vector<std::vector<std::uint32_t>> full(n);
  for (std::size_t i = 0; i < n; ++i) {
    full[i].reserve(below_count[i] + rows_[i].size() + 1);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::uint32_t j : rows_[i]) {
      full[j].push_back(static_cast<std::uint32_t>(i));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (filtered() && filter_->dead(static_cast<std::uint32_t>(i))) continue;
    full[i].push_back(static_cast<std::uint32_t>(i));
    full[i].insert(full[i].end(), rows_[i].begin(), rows_[i].end());
    rows_[i].clear();
    rows_[i].shrink_to_fit();
  }
  return SelfJoinResult::from_rows(std::move(full));
}

QueryJoinCsrSink::QueryJoinCsrSink(std::size_t num_queries)
    : rows_(num_queries) {}

void QueryJoinCsrSink::consume(const TileRange&,
                               std::span<const PairHit> hits) {
  if (filtered()) {
    std::uint64_t drops = 0;
    hits = compact_live(hits, [&](const PairHit& h) { return keep(h); },
                        drops);
    note_dropped(drops);
  }
  consume_striped(stripes_, hits, [&](const PairHit& h) {
    rows_[h.query].push_back(QueryMatch{h.corpus, h.dist2});
  });
}

QueryJoinResult QueryJoinCsrSink::finalize() {
  parallel_for(0, rows_.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      std::sort(rows_[i].begin(), rows_[i].end(),
                [](const QueryMatch& a, const QueryMatch& b) {
                  return a.id < b.id;
                });
    }
  });
  return QueryJoinResult::from_rows(std::move(rows_));
}

}  // namespace fasted::kernels
