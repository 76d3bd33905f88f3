#include "core/kernels/join_executor.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "core/block_tile.hpp"
#include "core/fasted.hpp"
#include "core/kernels/rz_dot.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fasted::kernels {

namespace {

// Flush the worker-local hit buffer into the sink once it holds this many
// matches, bounding peak memory to ~one buffer per worker instead of a
// second copy of the whole result set.
constexpr std::size_t kFlushThreshold = 1 << 16;

// Cross-domain stealing is on unless FASTED_STEAL says 0/off/false.  The
// topology and config invariance tests run both modes, and operators can
// demand strict placement when profiling per-domain bandwidth.
bool steal_enabled() {
  const char* env = std::getenv("FASTED_STEAL");
  if (env == nullptr) return true;
  return !(std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
           std::strcmp(env, "false") == 0);
}

// Per-thread panel scratch: the FP32 panel a worker widens each resident
// FP16 corpus panel into before the chains read it.  Pool workers
// (long-lived, bounded count, die with the pool) cache an arena slice from
// their own domain, so the widened panel lives in node-local first-touched
// pages; the slice is re-acquired when the global pool was rebuilt (the
// arena died with it) or a bigger panel is needed.  Caller threads
// participating in a drain may be short-lived (thread-per-request servers),
// so they use an ordinary thread-local vector that frees at thread exit
// instead of stranding bump allocations in the arena.
float* panel_scratch(ThreadPool& pool, std::size_t floats) {
  if (!ThreadPool::current_is_worker()) {
    thread_local std::vector<float> caller_panel;
    if (caller_panel.size() < floats) caller_panel.resize(floats);
    return caller_panel.data();
  }
  struct Cache {
    std::uint64_t pool_id = 0;
    std::size_t capacity = 0;
    float* data = nullptr;
  };
  thread_local Cache cache;
  if (cache.pool_id != pool.instance_id() || cache.capacity < floats) {
    cache.data = static_cast<float*>(
        pool.domain_arena(ThreadPool::current_domain())
            .allocate(floats * sizeof(float), alignof(float) * 16));
    cache.capacity = floats;
    cache.pool_id = pool.instance_id();
  }
  return cache.data;
}

}  // namespace

std::uint64_t execute_join(const FastedConfig& cfg,
                           std::span<ShardJoin> entries, float eps2,
                           bool emulated, ResultSink& sink,
                           std::uint64_t* per_entry_hits,
                           const RzDotKernel& kernel) {
  FASTED_CHECK_MSG(!entries.empty(), "join executor needs at least one plan");
  // All entries of one sharded join share dims, so the per-worker panel
  // scratch is sized once for the whole span.
  const std::size_t dims_all = entries.front().in.corpus->values().stride();
  for (const ShardJoin& e : entries) {
    FASTED_CHECK_MSG(e.plan != nullptr, "null plan in sharded join");
    FASTED_CHECK_MSG(e.in.queries->values().stride() ==
                         e.in.corpus->values().stride(),
                     "query/corpus stride mismatch in join executor");
    FASTED_CHECK_MSG(e.in.corpus->values().stride() == dims_all,
                     "all entries of one sharded join must share corpus dims");
  }
  // The emulated data path reads FP16 row-major operands.  values() holds
  // FP16-exact floats, so re-encoding them is exact; each distinct dataset
  // is encoded once per call.
  std::map<const PreparedDataset*, MatrixF16> quant;
  if (emulated) {
    for (const ShardJoin& e : entries) {
      for (const PreparedDataset* p : {e.in.queries, e.in.corpus}) {
        if (quant.count(p) == 0) quant.emplace(p, to_fp16(p->values()));
      }
    }
  }
  const bool collect = sink.wants_hits();
  const bool per_tile = collect && sink.per_tile();
  ThreadPool& pool = ThreadPool::global();
  // Confined dispatch (a DomainGuard on this thread, or a nested call from
  // inside a pool job) runs every body with the same home domain — treat
  // the drain as flat so no partition is orphaned when stealing is off.
  const std::size_t ndom =
      ThreadPool::dispatch_confined() ? 1 : pool.domain_count();
  const bool steal = ndom > 1 && steal_enabled();

  // Route each entry to the domain owning its corpus-side shard.  On the
  // flat single-domain pool everything lands in one list and the loop below
  // is exactly the historical in-order drain.
  std::vector<std::vector<std::size_t>> domain_entries(ndom);
  for (std::size_t ei = 0; ei < entries.size(); ++ei) {
    domain_entries[entries[ei].domain % ndom].push_back(ei);
  }

  std::atomic<std::uint64_t> total{0};
  std::vector<std::atomic<std::uint64_t>> entry_hits(
      per_entry_hits != nullptr ? entries.size() : 0);

  // The kernel's tile counter, looked up once per join (registry lookups
  // take a mutex); it flows into stats_json()'s registry section.
  obs::ConcurrentCounter& kernel_tiles = obs::Registry::global().counter(
      std::string("kernel.tiles.") + kernel.name);
  const std::size_t dcount = pool.domain_count();

  const auto drain_worker = [&] {
    // Clamped so a confined (flat) drain from a non-zero-domain worker
    // still indexes the single entry list.
    const std::size_t home = ThreadPool::current_domain() % ndom;
    std::optional<BlockTileEngine> engine;
    if (emulated) engine.emplace(cfg);
    // Per-worker scratch: the widened corpus panel (domain-arena slice, see
    // panel_scratch), the kernel's accumulator block and hit masks, and
    // the hit buffer.
    float* panel = panel_scratch(pool, dims_all * kPanelWidth);
    float acc[kQueryBlock * kPanelWidth];
    std::uint32_t masks[kQueryBlock];
    std::vector<PairHit> hits;
    std::uint64_t worker_total = 0;
    // Per-domain drain/steal tile tallies, attributed to the domain OWNING
    // the entry (not the executing worker) and flushed to the pool once per
    // worker — the rebalancing policy's load signal.
    std::vector<std::uint64_t> tiles_drained(dcount, 0);
    std::vector<std::uint64_t> tiles_stolen(dcount, 0);
    std::vector<std::uint64_t> drain_ns(dcount, 0);
    std::vector<std::uint64_t> steal_ns(dcount, 0);

    // Drains one entry's plan — from the head for the owning domain, from
    // the tail when stealing — and emits its hits.
    const auto drain_entry = [&](std::size_t ei, bool from_tail) {
      const ShardJoin& entry = entries[ei];
      JoinPlan& plan = *entry.plan;
      const MatrixF32& q = entry.in.queries->values();
      const PreparedDataset& c = *entry.in.corpus;
      const std::vector<float>& sq = entry.in.queries->norms();
      const std::vector<float>& sc = c.norms();
      const std::size_t qoff = entry.query_offset;
      const std::size_t coff = entry.corpus_offset;
      std::uint64_t local = 0;

      const auto emit = [&](std::size_t i, std::size_t j, float d2) {
        if (d2 <= eps2) {
          ++local;
          if (collect) {
            hits.push_back(PairHit{static_cast<std::uint32_t>(i + qoff),
                                   static_cast<std::uint32_t>(j + coff), d2});
          }
        }
      };

      const std::uint64_t t_start = obs::now_ns();
      std::uint64_t tiles = 0;
      TileRange t;
      while (from_tail ? plan.steal_next(t) : plan.next(t)) {
        ++tiles;
        // Per-tile sinks (streaming) rely on each query completing within
        // one tile — only full-corpus-width plans (query_strip) qualify.
        if (per_tile) {
          FASTED_CHECK_MSG(t.c0 == 0 && t.c1 == plan.corpus_rows(),
                           "per-tile sinks need a full-corpus-width plan");
        }
        if (emulated) {
          engine->compute(quant.at(entry.in.queries),
                          quant.at(entry.in.corpus), t.q0, t.c0);
          for (std::size_t i = t.q0; i < t.q1; ++i) {
            for (std::size_t j = t.c0; j < t.c1; ++j) {
              if (t.diagonal && j <= i) continue;
              const float a = engine->acc(static_cast<int>(i - t.q0),
                                          static_cast<int>(j - t.c0));
              emit(i, j, epilogue_dist2(a, sq[i], sc[j]));
            }
          }
        } else {
          // The resident panels covering [c0, c1).  A tile may start or
          // end inside a panel (block_tile_n need only be a multiple of
          // 8): that panel is widened whole and the lanes outside the
          // tile are masked off.
          for (std::size_t p0 = t.c0 / kPanelWidth * kPanelWidth; p0 < t.c1;
               p0 += kPanelWidth) {
            kernel.widen_panel(c.panel(p0 / kPanelWidth), dims_all, panel);
            const std::size_t width = std::min(kPanelWidth, t.c1 - p0);
            const std::uint32_t lanes = lanes_within(p0, t.c0, t.c1);
            for (std::size_t i0 = t.q0; i0 < t.q1; i0 += kQueryBlock) {
              const std::size_t nq = std::min(kQueryBlock, t.q1 - i0);
              const PanelEpilogue ep{&sq[i0], &sc[p0], width, eps2};
              kernel.dot_panel_hits(q.row(i0), q.stride(), nq, panel,
                                    dims_all, ep, acc, masks);
              for (std::size_t qi = 0; qi < nq; ++qi) {
                const std::size_t i = i0 + qi;
                std::uint32_t m = masks[qi] & lanes;
                if (t.diagonal) m &= lanes_above(i, p0);
                if (m == 0) continue;
                local += static_cast<std::uint64_t>(std::popcount(m));
                if (!collect) continue;
                const float* a = acc + qi * kPanelWidth;
                for (; m != 0; m &= m - 1) {
                  const std::size_t j = p0 + std::countr_zero(m);
                  hits.push_back(PairHit{
                      static_cast<std::uint32_t>(i + qoff),
                      static_cast<std::uint32_t>(j + coff),
                      epilogue_dist2(a[j - p0], sq[i], sc[j])});
                }
              }
            }
          }
        }
        if (per_tile) {
          // Merging sinks need the tile's global coordinates and shard tag.
          TileRange global = t;
          global.q0 += qoff;
          global.q1 += qoff;
          global.c0 += coff;
          global.c1 += coff;
          global.shard = entry.shard;
          sink.consume(global, std::span<const PairHit>(hits));
          hits.clear();
        } else if (collect && hits.size() >= kFlushThreshold) {
          sink.consume(t, std::span<const PairHit>(hits));
          hits.clear();
        }
      }
      if (!entry_hits.empty() && local != 0) {
        entry_hits[ei].fetch_add(local, std::memory_order_relaxed);
      }
      const std::size_t owner = entry.domain % dcount;
      (from_tail ? tiles_stolen : tiles_drained)[owner] += tiles;
      if (tiles != 0) {
        // Time is attributed only when the pass actually ran tiles — a
        // steal sweep over an already-exhausted plan costs two clock reads
        // and should not pollute the steal timing (or the trace).
        const std::uint64_t t_end = obs::now_ns();
        (from_tail ? steal_ns : drain_ns)[owner] += t_end - t_start;
        if (obs::trace_enabled()) {
          obs::trace_complete(from_tail ? "steal" : "drain", "executor",
                              t_start, t_end, static_cast<int>(entry.domain),
                              static_cast<int>(entry.shard));
        }
      }
      worker_total += local;
    };

    // Own domain first, in composition order: a worker exhausts entry k's
    // queue, then rolls into entry k+1 alongside its domain peers — one
    // fork-join, no barrier at shard boundaries.
    for (const std::size_t ei : domain_entries[home]) {
      drain_entry(ei, /*from_tail=*/false);
    }
    // Then help the other domains, farthest-from-their-cursor first: victim
    // lists are walked back-to-front and their plans drained from the tail,
    // so owners keep streaming the head's L2 squares.
    if (steal) {
      for (std::size_t hop = 1; hop < ndom; ++hop) {
        const auto& victim = domain_entries[(home + hop) % ndom];
        for (auto it = victim.rbegin(); it != victim.rend(); ++it) {
          drain_entry(*it, /*from_tail=*/true);
        }
      }
    }

    if (collect && !hits.empty()) {
      sink.consume(TileRange{}, std::span<const PairHit>(hits));
    }
    std::uint64_t worker_tiles = 0;
    for (std::size_t d = 0; d < dcount; ++d) {
      if (tiles_drained[d] != 0 || tiles_stolen[d] != 0) {
        pool.add_domain_load(d, tiles_drained[d], tiles_stolen[d], drain_ns[d],
                             steal_ns[d]);
        worker_tiles += tiles_drained[d] + tiles_stolen[d];
      }
    }
    if (worker_tiles != 0) kernel_tiles.add(worker_tiles);
    total.fetch_add(worker_total, std::memory_order_relaxed);
  };
  // A sink that rejects a tile (a CheckError from consume) throws out of
  // its worker's body; the pool keeps the first exception and rethrows it
  // here once every worker has left the drain.
  parallel_for(0, pool.size(),
               [&](std::size_t, std::size_t) { drain_worker(); });

  if (per_entry_hits != nullptr) {
    for (std::size_t ei = 0; ei < entries.size(); ++ei) {
      per_entry_hits[ei] = entry_hits[ei].load();
    }
  }
  return total.load();
}

}  // namespace fasted::kernels
