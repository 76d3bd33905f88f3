#include "core/kernels/merging_sink.hpp"

#include <utility>

#include "common/check.hpp"

namespace fasted::kernels {

namespace {

// Regroup one tile's hits (corpus-block-major, per-query ascending corpus
// id) into a QueryStrip via a stable counting scatter, into a
// worker-private strip so no lock is needed.  A tombstone filter drops
// dead-corpus hits here, before grouping, so delivered rows only ever hold
// surviving matches; `dropped` receives the tally.
QueryStrip regroup(const TileRange& range, std::span<const PairHit> hits,
                   const TombstoneFilter* filter, std::uint64_t& dropped) {
  dropped = 0;
  thread_local std::vector<PairHit> live;
  if (filter != nullptr) {
    live.clear();
    for (const PairHit& h : hits) {
      if (!filter->dead(h.corpus)) live.push_back(h);
    }
    dropped = hits.size() - live.size();
    hits = std::span<const PairHit>(live);
  }
  QueryStrip strip;
  strip.q0 = range.q0;
  const std::size_t nq = range.q1 - range.q0;
  strip.offsets.assign(nq + 1, 0);
  for (const PairHit& h : hits) ++strip.offsets[h.query - range.q0 + 1];
  for (std::size_t q = 1; q <= nq; ++q) {
    strip.offsets[q] += strip.offsets[q - 1];
  }
  std::vector<std::size_t> fill(strip.offsets.begin(),
                                strip.offsets.end() - 1);
  strip.matches.resize(hits.size());
  for (const PairHit& h : hits) {
    strip.matches[fill[h.query - range.q0]++] = QueryMatch{h.corpus, h.dist2};
  }
  return strip;
}

// Merge one strip's per-shard pieces in shard order: bases ascend and
// per-shard rows already ascend per query, so each merged row comes out in
// ascending global id.
QueryStrip merge_shards(const std::vector<QueryStrip>& per_shard,
                        std::size_t queries) {
  QueryStrip ready;
  ready.q0 = per_shard.front().q0;
  ready.offsets.assign(queries + 1, 0);
  std::size_t total = 0;
  for (std::size_t q = 0; q < queries; ++q) {
    for (const QueryStrip& shard : per_shard) {
      total += shard.offsets[q + 1] - shard.offsets[q];
    }
    ready.offsets[q + 1] = total;
  }
  ready.matches.reserve(total);
  for (std::size_t q = 0; q < queries; ++q) {
    for (const QueryStrip& shard : per_shard) {
      ready.matches.insert(ready.matches.end(),
                           shard.matches.begin() + static_cast<std::ptrdiff_t>(
                                                       shard.offsets[q]),
                           shard.matches.begin() + static_cast<std::ptrdiff_t>(
                                                       shard.offsets[q + 1]));
    }
  }
  return ready;
}

}  // namespace

StreamingSink::StreamingSink(QueryMatchCallback callback,
                             std::size_t num_shards,
                             std::size_t ring_capacity)
    : callback_(std::move(callback)),
      num_shards_(num_shards),
      ring_(ring_capacity) {
  FASTED_CHECK_MSG(callback_ != nullptr, "streaming sink needs a callback");
  FASTED_CHECK_MSG(num_shards_ >= 1, "streaming merge needs >= 1 shard");
  consumer_ = std::thread([this] { drain(); });
}

StreamingSink::~StreamingSink() { stop(); }

void StreamingSink::drain() {
  QueryStrip strip;
  for (;;) {
    if (ring_.try_pop(strip)) {
      dispatch(strip);
      continue;
    }
    if (done_.load(std::memory_order_acquire)) {
      // Producers have stopped; drain whatever is left and exit.
      while (ring_.try_pop(strip)) dispatch(strip);
      return;
    }
    std::this_thread::yield();
  }
}

void StreamingSink::dispatch(const QueryStrip& strip) {
  // After the callback has thrown, strips are still popped (so producers
  // never block on a full ring) but no longer delivered.
  if (error_ != nullptr) return;
  try {
    const std::size_t nq = strip.offsets.size() - 1;
    for (std::size_t q = 0; q < nq; ++q) {
      callback_(strip.q0 + q,
                std::span<const QueryMatch>(
                    strip.matches.data() + strip.offsets[q],
                    strip.offsets[q + 1] - strip.offsets[q]));
    }
  } catch (...) {
    error_ = std::current_exception();
  }
}

void StreamingSink::stop() {
  if (consumer_.joinable()) {
    done_.store(true, std::memory_order_release);
    consumer_.join();
  }
}

void StreamingSink::consume(const TileRange& range,
                            std::span<const PairHit> hits) {
  FASTED_CHECK_MSG(range.shard < num_shards_,
                   "tile shard out of range in streaming merge");
  // Regroup worker-privately (no lock), splice the grouped strip in under
  // the mutex, and do the cross-shard merge outside it again — the
  // critical section is a few vector moves, not an O(hits) scatter.
  std::uint64_t drops = 0;
  QueryStrip grouped = regroup(range, hits, filter_, drops);
  note_dropped(drops);
  if (num_shards_ == 1) {
    // Blocks while the ring is full: backpressure against a slow callback.
    ring_.push(std::move(grouped));
    return;
  }
  PendingStrip done;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    PendingStrip& strip = pending_[range.q0];
    if (strip.per_shard.empty()) {
      strip.queries = range.q1 - range.q0;
      strip.per_shard.resize(num_shards_);
    }
    FASTED_CHECK_MSG(strip.queries == range.q1 - range.q0,
                     "misaligned query strips across shards");
    FASTED_CHECK_MSG(strip.per_shard[range.shard].offsets.empty(),
                     "shard delivered the same query strip twice");
    strip.per_shard[range.shard] = std::move(grouped);
    if (++strip.arrived != num_shards_) return;
    done = std::move(strip);
    pending_.erase(range.q0);
  }
  ring_.push(merge_shards(done.per_shard, done.queries));
}

void StreamingSink::finish() {
  stop();
  if (error_ != nullptr) std::rethrow_exception(std::exchange(error_, nullptr));
  std::lock_guard<std::mutex> lock(mutex_);
  FASTED_CHECK_MSG(pending_.empty(),
                   "streaming merge finished with incomplete strips — did "
                   "every shard run a query_strip plan?");
}

}  // namespace fasted::kernels
