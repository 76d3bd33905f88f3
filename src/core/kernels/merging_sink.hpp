// The merging-sink family: result consumers for sharded joins, and the one
// streaming sink that delivers per-query callbacks.
//
// A sharded join runs one plan per shard (see join_executor.hpp) and emits
// hits with GLOBAL row ids, so merging is mostly a property of the sink:
//
//   count-merge      CountSink + the executor's per-entry hit counters; the
//                    total is the sum, per-shard counts fall out for free.
//   CSR-merge        SelfJoinCsrSink / QueryJoinCsrSink over the global row
//                    space.  Hits from any shard land in their global row;
//                    finalize() canonicalizes each row to ascending corpus
//                    ids, so the merged CSR is bit-identical to the 1-shard
//                    result.  For self-joins, the per-shard triangular plans
//                    plus shard-pair rectangular plans cover exactly the
//                    global strict upper triangle, and the sink's mirror
//                    reflects it across shard boundaries like any other
//                    pair.
//   streaming-merge  StreamingSink (below): a query's matches arrive in one
//                    tile per shard; the sink holds a strip until all shards
//                    have reported it, then delivers each query's merged
//                    matches (ascending global corpus id) exactly once.  One
//                    shard is the degenerate case: each strip is complete
//                    on arrival.
//   demux-merge      DemuxSink (demux_sink.hpp): coalesced requests, split
//                    back per request.
//
// Completed strips go through a bounded MPSC ring (mpsc_ring.hpp) to a
// dedicated consumer thread that runs the callback.  Workers only block
// when the ring is full — bounded memory, and a slow callback backpressures
// the join instead of throttling the kernel one mutex hold at a time.
//
// Tombstone filtering (ResultSink::filter_tombstones) happens in the
// per-tile regroup, BEFORE strips are assembled or merged: delivered rows
// only ever hold surviving matches, and dropped() tallies the dead ones
// for the caller's pair-count correction.
//
// The callback contract is kernels::QueryMatchCallback: once per query,
// ascending query order within a strip, strips in any order, span valid
// only for the duration of the call.  The callback must not issue further
// joins or other ThreadPool-using calls: it can deadlock against the
// producers it is backpressuring.  If it throws, the consumer stops calling
// it but keeps draining the ring (so producers never block on a full
// ring), and finish() rethrows the first exception on the caller's thread.

#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/kernels/mpsc_ring.hpp"
#include "core/kernels/result_sink.hpp"

namespace fasted::kernels {

// One completed query strip, regrouped by query: queries [q0, q0 + n) with
// matches of query q0 + i in matches[offsets[i], offsets[i + 1]).
struct QueryStrip {
  std::size_t q0 = 0;
  std::vector<std::size_t> offsets;  // n + 1 entries
  std::vector<QueryMatch> matches;
};

inline constexpr std::size_t kDefaultStripRingCapacity = 64;

// Streaming sink over 1..N corpus shards: every shard's query_strip plan
// produces one tile per strip of queries, so a strip is complete once all
// `num_shards` tiles with the same global q0 have arrived.  Completed
// strips are merged in shard order — shard bases ascend, and hits within a
// shard tile already ascend per query, so the merged row is in ascending
// global corpus id.  All shard plans must share the same strip height
// (they do: it is the config's block_tile_m).
//
// Call finish() after the join returns: the join's hit count is complete
// when execute_join returns, but callbacks may still be in flight until
// then.  One join per sink.  The destructor stops the consumer without
// throwing (it is the cleanup path when the join itself threw).
class StreamingSink final : public ResultSink {
 public:
  StreamingSink(QueryMatchCallback callback, std::size_t num_shards,
                std::size_t ring_capacity = kDefaultStripRingCapacity);
  ~StreamingSink() override;

  StreamingSink(const StreamingSink&) = delete;
  StreamingSink& operator=(const StreamingSink&) = delete;

  bool per_tile() const override { return true; }
  void consume(const TileRange& range, std::span<const PairHit> hits) override;

  // Drains the ring and joins the consumer thread; after it returns every
  // completed strip's callbacks have run.  Rethrows the first exception the
  // callback threw, then checks that no strip is left partially assembled.
  void finish();

 private:
  struct PendingStrip {
    std::size_t arrived = 0;
    std::size_t queries = 0;
    // per_shard[shard]: the shard's regrouped strip (empty until arrival).
    std::vector<QueryStrip> per_shard;
  };

  void drain();  // the consumer thread's loop
  void dispatch(const QueryStrip& strip);
  void stop();   // signals the consumer and joins it (idempotent)

  QueryMatchCallback callback_;
  std::size_t num_shards_;
  std::mutex mutex_;  // guards pending_
  std::unordered_map<std::size_t, PendingStrip> pending_;  // keyed by q0
  BoundedMpscRing<QueryStrip> ring_;
  std::atomic<bool> done_{false};
  // Written only by the consumer thread; read after it is joined.
  std::exception_ptr error_;
  std::thread consumer_;  // last: starts once the members above exist
};

}  // namespace fasted::kernels
