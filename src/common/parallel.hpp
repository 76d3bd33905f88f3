// Topology-aware fork-join pool.
//
// The pool's worker set is partitioned into per-domain groups following the
// detected (or FASTED_TOPOLOGY-synthesized) machine topology: workers of
// group d are pinned to domain d's cpus, so work submitted to one group
// stays on one socket / core complex.  Three entry points:
//
//   parallel_for(b, e, body)      the historical API.  On a single-domain
//                                 machine this is byte-for-byte the old flat
//                                 fork-join; on a partitioned pool the range
//                                 is split across domains proportionally to
//                                 their worker counts (chunks are still
//                                 grabbed dynamically within each domain).
//   run_on_domain(d, b, e, body)  fork-join on domain d's workers ONLY.  The
//                                 caller blocks but does not execute chunks,
//                                 so every page the body first-touches lands
//                                 on domain d (shard builds use this).
//   DomainGuard                   scoped thread-local routing: while alive,
//                                 plain parallel_for calls from this thread
//                                 become run_on_domain(d, ...) — existing
//                                 helpers (norm precompute, generators)
//                                 become domain-resident without changing
//                                 their signatures.  A one-domain pool has
//                                 no placement to keep: there the guard
//                                 changes nothing and the caller still
//                                 runs chunks.
//
// Calling parallel_for (either flavor) from inside a pool worker runs the
// body inline and serially on that worker — nested fork-joins degrade
// instead of deadlocking, which is also what routes a whole shard build
// onto one pinned worker (common/topology.hpp has the placement story).
//
// A body that throws never unwinds a worker thread: its chunk counts as
// done, the other chunks still run, and once the job drains the job's
// first exception is rethrown on the calling thread, by both entry points.
// The pool then takes the next job as usual.

#pragma once

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "common/topology.hpp"

namespace fasted {

// Cumulative per-domain work accounting, maintained by the join executor:
// tiles of a domain's entries drained by the domain's OWN workers vs. tiles
// stolen by other domains' workers.  A domain whose work keeps getting
// stolen is overloaded relative to its worker set — the service layer's
// shard rebalancing consults exactly this signal (and ServiceStats surfaces
// it to operators).
struct DomainLoad {
  std::uint64_t tiles_drained = 0;  // by the owning domain's workers
  std::uint64_t tiles_stolen = 0;   // by other domains' workers
  // Wall time spent inside those tiles (summed across workers, so a value
  // can exceed elapsed time).  Not part of total(): the rebalance policy
  // keys on tile counts; time-in-phase is the operator's signal.
  std::uint64_t drain_ns = 0;
  std::uint64_t steal_ns = 0;
  std::uint64_t total() const { return tiles_drained + tiles_stolen; }
};

// A domain_loads() reading bound to the pool instance that produced it.
// Consumers that want "load caused by MY work" (JoinService::stats(),
// ShardedCorpus::rebalance()) keep a baseline snapshot and diff against it
// with ThreadPool::domain_loads_since — the instance id makes a baseline
// from a torn-down pool (reset_global) detectably stale instead of
// producing nonsense negative deltas.
struct DomainLoadSnapshot {
  std::uint64_t pool_instance = 0;
  std::vector<DomainLoad> loads;
};

class ThreadPool {
 public:
  // `threads == 0` picks the FASTED_THREADS environment variable if it is a
  // positive integer, else std::thread::hardware_concurrency() (min 1) —
  // CI and benchmarks pin worker counts this way.  `topology == nullptr`
  // runs Topology::detect() (FASTED_TOPOLOGY override -> sysfs NUMA nodes
  // -> one flat domain).
  explicit ThreadPool(std::size_t threads = 0,
                      const Topology* topology = nullptr);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const;  // total slots: workers + the calling thread

  // Domains are clamped to the slot count (an 8-domain spec on a 4-thread
  // pool yields 4 single-slot domains); every domain holds >= 1 slot.
  std::size_t domain_count() const;
  std::size_t domain_size(std::size_t domain) const;  // slots in `domain`
  const Topology& topology() const;

  // The execution domain of the calling thread: its group for pool workers,
  // 0 for everything else (the caller participates in domain 0's drains).
  static std::size_t current_domain();

  // True only on the pool's own spawned worker threads (not on callers
  // participating in a drain).  Long-lived per-thread caches keyed to pool
  // resources (executor scratch) are only safe on workers — their count is
  // bounded and they die with the pool.
  static bool current_is_worker();

  // True when a parallel_for issued from this thread would NOT fan out
  // across all domains — inside a chunk body (inline execution) or under a
  // DomainGuard (routed to one domain).  Multi-domain consumers that
  // partition work BY domain (the join executor) must fall back to a flat
  // single-list drain when confined, or non-home partitions would never
  // run.
  static bool dispatch_confined();

  // Runs body(begin..end) partitioned into contiguous chunks across every
  // domain and blocks until all chunks finish.  body receives
  // [chunk_begin, chunk_end).  Safe to call from multiple threads:
  // concurrent jobs are admitted one at a time per domain.  Nested calls
  // from pool workers run inline (see header comment).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& body);

  // Fork-join restricted to `domain`'s workers; the caller only waits, so
  // first-touch placement follows the domain.  Falls back to running the
  // body inline when the domain has no worker threads (1-thread pools,
  // more domains than threads).
  void run_on_domain(std::size_t domain, std::size_t begin, std::size_t end,
                     const std::function<void(std::size_t, std::size_t)>& body);

  // Per-domain first-touch arena: pages of fresh blocks are zeroed by the
  // domain's own workers (common/topology.hpp).  The arena lives as long as
  // the pool; executor scratch caches its slices across joins.
  DomainArena& domain_arena(std::size_t domain);

  // Monotonically increasing per-construction id — caches keyed on pool
  // memory (thread-local arena slices) use it to notice reset_global().
  std::uint64_t instance_id() const;

  // Per-domain drain/steal accounting (see DomainLoad).  add_domain_load is
  // relaxed-atomic and safe from any thread; the executor flushes one call
  // per worker per join.  domain_loads() snapshots all domains (cumulative
  // since pool construction; consumers diff successive snapshots).
  void add_domain_load(std::size_t domain, std::uint64_t drained,
                       std::uint64_t stolen, std::uint64_t drain_ns = 0,
                       std::uint64_t steal_ns = 0);
  std::vector<DomainLoad> domain_loads() const;

  // Scoped accounting: capture a baseline now, and later ask for the load
  // accrued since it.  If the baseline came from a different pool instance
  // (reset_global happened in between) the full cumulative reading is
  // returned — the old pool's counters died with it.
  DomainLoadSnapshot domain_load_snapshot() const;
  std::vector<DomainLoad> domain_loads_since(
      const DomainLoadSnapshot& baseline) const;

  // Global pool shared by the library (lazily constructed).
  static ThreadPool& global();

  // Tears down and rebuilds the global pool (tests and benches switching
  // FASTED_TOPOLOGY / FASTED_THREADS between runs).  Must not be called
  // while any pool job is in flight.
  static void reset_global(std::size_t threads = 0,
                           const Topology* topology = nullptr);

  // While alive, parallel_for calls from the constructing thread route to
  // one domain of a multi-domain pool (a one-domain pool runs them flat).
  // Not nestable across threads (thread-local), nestable on one thread
  // (restores the previous route).
  class DomainGuard {
   public:
    explicit DomainGuard(std::size_t domain);
    ~DomainGuard();
    DomainGuard(const DomainGuard&) = delete;
    DomainGuard& operator=(const DomainGuard&) = delete;

   private:
    long previous_;
  };

 private:
  struct Impl;
  Impl* impl_;
};

// Convenience wrappers over the global pool.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& body);
void run_on_domain(std::size_t domain, std::size_t begin, std::size_t end,
                   const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace fasted
