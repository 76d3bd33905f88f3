// ResultSink: pluggable consumers for the unified join executor.
//
// The executor evaluates tiles and emits (query, corpus, dist2) hits; what
// happens to a hit is the sink's business:
//
//   CountSink          pair accounting only — no hit ever materializes.
//   SelfJoinCsrSink    SelfJoinResult builder.  It receives the strict
//                      upper triangle (j > i) of a self-join and finalizes
//                      by adding self pairs and mirroring.
//   QueryJoinCsrSink   QueryJoinResult builder (keeps pipeline distances).
//
// Two per-tile sinks build on these: StreamingSink (merging_sink.hpp), the
// bounded per-query callback delivery, and DemuxSink (demux_sink.hpp), the
// coalesced-request router.  Both take one tile per shard per query strip
// and merge the shards themselves.
//
// Sharded joins reuse the CSR sinks unchanged as their merge sinks: the
// sharded executor emits hits with global row ids, so each hit lands in its
// global row and finalize()'s canonical per-row sort makes the merged CSR
// bit-identical to the 1-shard result (see merging_sink.hpp for the family
// overview and the streaming merge).
//
// consume() must be thread-safe; the executor calls it from pool workers.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "core/kernels/join_plan.hpp"
#include "core/result.hpp"

namespace fasted::kernels {

// One corpus shard's tombstone mask over global rows [base, base + rows):
// bit r of `bits` marks local row r deleted.  A null `bits` means the shard
// has no dead rows (the common case — checked before any bit math).  Masks
// are bit-per-row words sized ceil(rows / 64).
struct TombstoneSpan {
  std::size_t base = 0;
  std::size_t rows = 0;
  const std::uint64_t* bits = nullptr;
};

// Sink-side delete filtering: a view of the per-shard tombstone masks a
// snapshot carries (service/sharded_corpus.hpp), consulted per hit.  The
// filter only ever HIDES rows — surviving hits keep the exact pipeline
// distances the kernel computed, which is what keeps delete results
// bit-identical to physically removing the rows.  The filter borrows the
// masks; keep the owning snapshot alive while any join uses it.
class TombstoneFilter {
 public:
  TombstoneFilter() = default;
  // `spans` must cover the corpus contiguously in ascending base order.
  explicit TombstoneFilter(std::vector<TombstoneSpan> spans);

  // False when no span carries a mask — callers skip filtering entirely.
  bool any() const { return any_; }
  std::uint64_t dead_count() const { return dead_count_; }
  bool dead(std::uint32_t global_row) const;

 private:
  std::vector<TombstoneSpan> spans_;
  bool any_ = false;
  std::uint64_t dead_count_ = 0;
};

// CSR sinks stripe their row locks by query-id block so concurrent worker
// flushes (up to the executor's flush threshold of hits each) rarely
// serialize against each other.
inline constexpr std::size_t kSinkStripes = 16;
// Consecutive queries share a stripe in blocks of 64 rows, keeping one
// tile's flush on few stripes while separating neighboring tiles.
inline constexpr std::size_t sink_stripe_of(std::uint32_t query) {
  return (query >> 6) % kSinkStripes;
}

// One within-eps pair: global query row, corpus row, pipeline distance^2.
struct PairHit {
  std::uint32_t query = 0;
  std::uint32_t corpus = 0;
  float dist2 = 0.0f;
};

class ResultSink {
 public:
  virtual ~ResultSink() = default;

  // Attach a tombstone filter: hits whose corpus row (and, for the
  // self-join sink, query row) is tombstoned are dropped at consume time
  // and tallied in dropped().  The executor's return value counts RAW
  // emitted hits; callers subtract dropped() for the surviving pair count.
  // Must be set before the join starts; the filter is borrowed.
  void filter_tombstones(const TombstoneFilter* filter) {
    filter_ = filter != nullptr && filter->any() ? filter : nullptr;
  }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  // False: the executor only counts hits and never materializes them.
  virtual bool wants_hits() const { return true; }

  // True: each tile's hits arrive in exactly one consume() call with that
  // tile's global range and shard tag (corpus-block-major order; within a
  // query, corpus ids ascend), and the sink reassembles a query's matches
  // across shards itself.  False: the executor batches hits across tiles
  // per worker and `range` carries no meaning.
  virtual bool per_tile() const { return false; }

  virtual void consume(const TileRange& range,
                       std::span<const PairHit> hits) = 0;

 protected:
  bool filtered() const { return filter_ != nullptr; }
  // True when the hit survives the tombstone filter (corpus side only —
  // query rows are external points except in the self-join sink, which
  // checks both ends itself).
  bool keep(const PairHit& h) const {
    return filter_ == nullptr || !filter_->dead(h.corpus);
  }
  void note_dropped(std::uint64_t n) {
    if (n != 0) dropped_.fetch_add(n, std::memory_order_relaxed);
  }
  const TombstoneFilter* filter_ = nullptr;

 private:
  std::atomic<std::uint64_t> dropped_{0};
};

class CountSink final : public ResultSink {
 public:
  // self_ends: both hit ids are corpus rows (self-join counting), so a
  // pair dies when EITHER endpoint is tombstoned — mirroring what
  // SelfJoinCsrSink's consume does in the build_result path.
  explicit CountSink(bool self_ends = false) : self_ends_(self_ends) {}

  // Unfiltered counting never materializes a hit; with a tombstone filter
  // the hits must flow through so the dead ones can be tallied off.
  bool wants_hits() const override { return filtered(); }
  void consume(const TileRange&, std::span<const PairHit> hits) override {
    if (!filtered()) return;  // executor only feeds hits when filtering
    std::uint64_t drops = 0;
    for (const PairHit& h : hits) {
      const bool dead = self_ends_
                            ? filter_->dead(h.query) || filter_->dead(h.corpus)
                            : !keep(h);
      drops += dead ? 1 : 0;
    }
    note_dropped(drops);
  }

 private:
  bool self_ends_;
};

class SelfJoinCsrSink final : public ResultSink {
 public:
  // Hits are the strict upper triangle of an n-point self-join; finalize()
  // mirrors them and inserts the n self pairs.  Under a tombstone filter
  // both endpoints are corpus rows: a hit is dropped when EITHER end is
  // dead, and finalize() skips dead rows' self pairs (their rows come out
  // empty).
  explicit SelfJoinCsrSink(std::size_t n);

  void consume(const TileRange&, std::span<const PairHit> hits) override;

  // Sorts rows ascending, mirrors them, inserts the self pairs and builds
  // the CSR.
  SelfJoinResult finalize();

 private:
  std::array<std::mutex, kSinkStripes> stripes_;
  std::vector<std::vector<std::uint32_t>> rows_;
};

class QueryJoinCsrSink final : public ResultSink {
 public:
  explicit QueryJoinCsrSink(std::size_t num_queries);

  void consume(const TileRange&, std::span<const PairHit> hits) override;

  // Sorts each row by corpus id ascending and builds the CSR.
  QueryJoinResult finalize();

 private:
  std::array<std::mutex, kSinkStripes> stripes_;
  std::vector<std::vector<QueryMatch>> rows_;
};

// Called once per query (ascending within a strip; strips complete in any
// order).  The span is only valid for the duration of the call.  Runs on
// the streaming sink's consumer thread while the join is still in flight:
// it must not issue joins or other ThreadPool-using calls (those wait for
// the pool whose workers are blocked on this thread's backpressure).
// Buffer and defer any follow-up work.
using QueryMatchCallback =
    std::function<void(std::size_t query, std::span<const QueryMatch>)>;

}  // namespace fasted::kernels
