// Execution-domain topology: the machine as the scheduler sees it.
//
// A *domain* is a set of CPUs sharing a memory controller and last-level
// cache slice — a NUMA node on multi-socket machines, a core complex on
// chiplet parts.  The paper's WorkQueue orders block tiles into L2-local
// squares (Sec. 3.3.1); this layer extends the same dispatch-order-locality
// idea one level up: the thread pool is partitioned into per-domain worker
// groups, shards are placed on domains, and join drains are routed so a
// shard's panels are read by the cores nearest to the memory that holds
// them.
//
// Detection order:
//   1. FASTED_TOPOLOGY="DxC" (or just "D"): a synthetic topology of D
//      domains of C cpus each (cpu ids assigned contiguously; C omitted or 0
//      leaves domains unpinned).  This is how CI and tests exercise the
//      multi-domain paths on single-socket runners, and how operators pin
//      the layout by hand.
//   2. sysfs: /sys/devices/system/node/node*/cpulist, one domain per NUMA
//      node that has CPUs.  No libnuma dependency — the files are plain
//      text.
//   3. Fallback: one domain spanning everything (the pre-topology layout;
//      every topology-aware code path degrades to exactly the flat
//      behavior).
//
// Thread pinning uses sched_setaffinity where available and is strictly
// best-effort: a restricted cpuset (containers, taskset) makes pinning fail,
// which WARNS ONCE and continues unpinned — placement is a performance hint,
// never a correctness requirement.
//
// Domains concern memory, not ISA: a process sees one instruction set, so
// every domain runs the engine's one rz_dot kernel
// (core/kernels/kernel_context.hpp).

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace fasted {

// One execution domain: the cpus it owns and the sysfs node it came from.
struct ExecutionDomain {
  std::vector<int> cpus;  // empty: unpinned (synthetic "D" spec, fallback)
  int node = -1;          // sysfs NUMA node id; -1 for synthetic/fallback
};

class Topology {
 public:
  // The detection cascade above.  Reads FASTED_TOPOLOGY at call time, so
  // tests and benches that change the environment (or pass a synthetic
  // spec) between ThreadPool rebuilds see the new layout.
  static Topology detect();

  // A synthetic topology of `domains` domains with `cpus_per_domain` cpus
  // each (0 = unpinned).  What FASTED_TOPOLOGY parses into.
  static Topology synthetic(std::size_t domains,
                            std::size_t cpus_per_domain = 0);

  // An explicit domain layout (tests model restricted cpusets and weird
  // machines this way; at least one domain is enforced).
  static Topology custom(std::vector<ExecutionDomain> domains);

  // Parses a "DxC" / "D" spec; nullopt on garbage (D must be >= 1).
  static std::optional<Topology> parse_spec(const std::string& spec);

  // Parses the sysfs cpulist format ("0-3,8,10-11") into cpu ids.
  static std::vector<int> parse_cpulist(const std::string& text);

  std::size_t domain_count() const { return domains_.size(); }
  const ExecutionDomain& domain(std::size_t d) const { return domains_[d]; }
  bool synthetic_spec() const { return synthetic_; }

  // Best-effort: pin the calling thread to the domain's cpus.  Returns
  // false (after a once-per-process stderr warning) when the domain has no
  // cpu list or the kernel refuses — restricted cpusets degrade to unpinned
  // execution, never to an abort.
  static bool pin_current_thread(const ExecutionDomain& domain);

 private:
  std::vector<ExecutionDomain> domains_;
  bool synthetic_ = false;
};

// A per-domain first-touch arena: page-aligned bump allocation whose backing
// pages are committed (zero-written, hence physically placed) by a
// caller-supplied commit function — the partitioned ThreadPool passes one
// that touches the pages on the owning domain's pinned workers, so every
// later reader inside the domain hits node-local memory.  Allocations are
// freed only by destroying the arena (scratch buffers cache their slice and
// grow geometrically, so churn is bounded).  Thread-safe.
class DomainArena {
 public:
  // `commit(ptr, bytes)` must zero the range; it runs once per fresh block.
  using CommitFn = void (*)(void* ptr, std::size_t bytes, void* ctx);

  explicit DomainArena(CommitFn commit = nullptr, void* ctx = nullptr)
      : commit_(commit), ctx_(ctx) {}

  // Aligned bump allocation out of the current block; new blocks are sized
  // max(2x previous, bytes) and committed through `commit`.  The returned
  // memory is zeroed.
  void* allocate(std::size_t bytes, std::size_t align = 64);

  std::size_t bytes_reserved() const;

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  CommitFn commit_ = nullptr;
  void* ctx_ = nullptr;
  mutable std::mutex mutex_;
  std::vector<Block> blocks_;
  std::size_t next_block_ = 1 << 16;
};

}  // namespace fasted
