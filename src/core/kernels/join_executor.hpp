// The unified join executor: drains JoinPlan tiles on the shared ThreadPool,
// evaluates every (query, corpus) cell with the engine's rz_dot kernel (or
// the emulated block-tile data path), and hands within-eps hits to a
// ResultSink.  Both of FastedEngine's join shapes — the self-join and the
// query join (CSR, count-only or sink-directed) — over one shard or many
// are thin wrappers around this one loop.
//
// Sharded corpora compose here rather than in a new driver: a sharded join
// is a span of ShardJoin entries (one plan per shard, or per shard pair for
// self-joins), drained back-to-back by the same worker set inside ONE
// fork-join job.  Workers finish shard k's queue and roll into shard k+1,
// so load balances across shard boundaries.  Each entry carries the row-id
// offsets that translate its plan's shard-local coordinates into global row
// ids; the sink only ever sees global ids, which is what makes the ordinary
// CSR sinks double as exact merge sinks (see result_sink.hpp).
//
// On a topology-partitioned pool (common/parallel.hpp) the drain is
// locality-routed: each entry carries the execution domain that owns its
// corpus-side shard's memory, and a worker drains its OWN domain's entries
// (in order, from the head of each plan's L2-square dispatch order) before
// stealing from other domains — tail-first at both granularities: the
// farthest entry of the victim's list, and within a plan the tail of its
// tile order (WorkQueue::steal), so the victim's head ordering survives.
// FASTED_STEAL=0 disables stealing (strict placement; the topology
// property tests run both).  Results are bit-identical either way: hits are
// per-pair deterministic and every sink merges by global row id.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "core/config.hpp"
#include "core/kernels/join_plan.hpp"
#include "core/kernels/result_sink.hpp"
#include "core/kernels/rz_dot.hpp"

namespace fasted {
class PreparedDataset;
}  // namespace fasted

namespace fasted::kernels {

// The prepared data of one join: query rows come from `queries->values()`,
// corpus panels from `corpus`'s resident FP16 panels, widened per tile.
// For self-joins both alias the same dataset.
struct JoinInputs {
  const PreparedDataset* queries = nullptr;
  const PreparedDataset* corpus = nullptr;
};

// One shard's slice of a sharded join: a borrowed plan (drained exactly once
// by the executor), the shard's data views, and the offsets mapping the
// plan's local row ids to global ids.  For a cross-shard self-join tile set
// (shard a's rows joined against shard b's), query_offset is a's base and
// corpus_offset is b's base, so every emitted hit lands in the global strict
// upper triangle.
struct ShardJoin {
  JoinPlan* plan = nullptr;
  JoinInputs in;
  std::size_t query_offset = 0;   // added to hit query ids
  std::size_t corpus_offset = 0;  // added to hit corpus ids
  std::size_t shard = 0;          // stamped into per-tile TileRanges
  // Execution domain owning the corpus-side shard's memory; the executor
  // routes the entry to that domain's workers (modulo the pool's domain
  // count, so placement policies may over-provision domains).
  std::size_t domain = 0;
};

// Evaluates every entry's plan and emits hits with dist2 <= eps2 into
// `sink`, with hit ids already translated to global rows.  Triangular plans
// emit only the strict upper triangle (j > i) — the mirrored half and the
// always-within-eps self pairs are the sink's (or the caller's count
// arithmetic's) business.  Returns the number of hits emitted; when
// `per_entry_hits` is non-null it must point at entries.size() slots, which
// receive each entry's hit count (per-shard skew stats).  Counts are RAW
// kernel emissions: when the sink carries a tombstone filter it drops dead
// rows' hits on its side, so callers subtract sink.dropped() to get the
// surviving pair count (per-entry counts stay raw — they measure drain
// work, which is what the skew/rebalance consumers want).  If sink.consume
// throws (a per-tile sink rejecting a tile it cannot place), the drain
// finishes and the first exception is rethrown on the calling thread.
// Every tile runs `kernel`, the one the engine resolved at construction
// (FastedEngine::kernel()); its tiles count into kernel.tiles.<name>.
std::uint64_t execute_join(const FastedConfig& cfg,
                           std::span<ShardJoin> entries, float eps2,
                           bool emulated, ResultSink& sink,
                           std::uint64_t* per_entry_hits,
                           const RzDotKernel& kernel);

}  // namespace fasted::kernels
