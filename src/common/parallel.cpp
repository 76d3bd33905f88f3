#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <utility>

namespace fasted {

namespace {

// FASTED_THREADS pins the default worker count (CI and benchmarks use it to
// make runs reproducible); unset, non-numeric, or non-positive values fall
// back to hardware concurrency.
std::size_t default_thread_count() {
  if (const char* env = std::getenv("FASTED_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return std::thread::hardware_concurrency();
}

// Thread-local pool identity.  t_domain is the worker's group (0 for
// outside threads, which drain domain 0 when they participate); t_in_job
// marks "currently executing a chunk body", which makes nested fork-joins
// run inline instead of deadlocking on the group job locks; t_route is the
// DomainGuard redirection (-1: none).
thread_local std::size_t t_domain = 0;
thread_local bool t_worker = false;
thread_local bool t_in_job = false;
thread_local long t_route = -1;

}  // namespace

// One fork-join group per execution domain.  Each group is exactly the old
// flat pool: a published body + chunk list drained under the group mutex,
// one job admitted at a time (job_mutex).  parallel_for spans all groups by
// locking their job mutexes in index order (run_on_domain locks one), so
// the two entry points cannot deadlock against each other.
struct ThreadPool::Impl {
  struct Group {
    std::mutex job_mutex;  // admits one fork-join job at a time
    std::mutex mutex;
    std::condition_variable cv_work;
    std::condition_variable cv_done;
    std::function<void(std::size_t, std::size_t)> body;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    std::size_t next_chunk = 0;  // guarded by mutex
    std::size_t pending = 0;     // chunks not yet completed
    std::exception_ptr error;    // the job's first throw, guarded by mutex
    std::uint64_t epoch = 0;     // bumped per job so workers notice new work
    bool stop = false;
    std::vector<std::thread> workers;
    std::size_t slots = 0;  // workers + (group 0 only) the caller
    std::unique_ptr<DomainArena> arena;
    // Drain/steal accounting for work OWNED by this domain (join executor
    // tiles); padded out of the hot job-state line by position at the end.
    std::atomic<std::uint64_t> tiles_drained{0};
    std::atomic<std::uint64_t> tiles_stolen{0};
    std::atomic<std::uint64_t> drain_ns{0};
    std::atomic<std::uint64_t> steal_ns{0};

    void run_chunks() {
      for (;;) {
        std::pair<std::size_t, std::size_t> chunk;
        {
          // Chunks are grabbed under the mutex: a straggler from the
          // previous job that races the next job's publication either sees
          // the old drained list (returns) or a fully published new one
          // (helps drain it) — never a torn vector.  `body` is only
          // reassigned once pending hits zero, and a grabbed-but-unfinished
          // chunk keeps pending nonzero, so the unlocked body call below is
          // stable.
          std::lock_guard<std::mutex> lock(mutex);
          if (next_chunk >= chunks.size()) return;
          chunk = chunks[next_chunk++];
        }
        // A throwing body must not unwind a worker's thread entry (that
        // ends the process): the chunk still counts as done, and the job's
        // first exception is rethrown on the caller once the job drains.
        std::exception_ptr thrown;
        try {
          body(chunk.first, chunk.second);
        } catch (...) {
          thrown = std::current_exception();
        }
        std::lock_guard<std::mutex> lock(mutex);
        if (thrown != nullptr && error == nullptr) error = std::move(thrown);
        if (--pending == 0) cv_done.notify_all();
      }
    }

    // Publishes one job (job_mutex must be held) without blocking.
    void publish(std::size_t begin, std::size_t end, std::size_t nchunks,
                 const std::function<void(std::size_t, std::size_t)>& b) {
      std::lock_guard<std::mutex> lock(mutex);
      body = b;
      chunks.clear();
      const std::size_t n = end - begin;
      const std::size_t step = (n + nchunks - 1) / nchunks;
      for (std::size_t s = begin; s < end; s += step) {
        chunks.emplace_back(s, std::min(s + step, end));
      }
      next_chunk = 0;
      pending = chunks.size();
      error = nullptr;
      ++epoch;
    }

    // Blocks until the job drains; returns its first exception, if any.
    std::exception_ptr wait_done() {
      std::unique_lock<std::mutex> lock(mutex);
      cv_done.wait(lock, [&] { return pending == 0; });
      return std::exchange(error, nullptr);
    }
  };

  // Each arena commit carries its owning pool + domain so the zero-touch
  // runs on that domain's pinned workers.
  struct ArenaCtx {
    ThreadPool* pool;
    std::size_t domain;
  };

  Topology topo;
  std::uint64_t id = 0;
  std::deque<Group> groups;  // stable addresses (workers hold pointers)
  std::deque<ArenaCtx> arena_ctxs;

  static void arena_commit(void* ptr, std::size_t bytes, void* ctx);
};

namespace {

std::uint64_t next_pool_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1);
}

}  // namespace

void ThreadPool::Impl::arena_commit(void* ptr, std::size_t bytes, void* ctx) {
  auto* ac = static_cast<ArenaCtx*>(ctx);
  std::byte* base = static_cast<std::byte*>(ptr);
  ac->pool->run_on_domain(ac->domain, 0, bytes, [&](std::size_t lo,
                                                    std::size_t hi) {
    std::memset(base + lo, 0, hi - lo);
  });
}

ThreadPool::ThreadPool(std::size_t threads, const Topology* topology)
    : impl_(new Impl) {
  impl_->topo = topology != nullptr ? *topology : Topology::detect();
  impl_->id = next_pool_id();
  std::size_t n = threads ? threads : default_thread_count();
  if (n == 0) n = 1;

  // Clamp domains to the slot count so every group owns at least one slot
  // (an empty group could never drain its share of a parallel_for).
  const std::size_t ndom = std::min(impl_->topo.domain_count(), n);
  impl_->groups.resize(ndom);
  const std::size_t base = n / ndom;
  const std::size_t extra = n % ndom;
  // The constructor does not wait for its workers: a job published before
  // a worker reaches its loop is still picked up (the worker starts with
  // seen = 0 against a bumped epoch), and a worker that starts after the
  // job drained finds no chunk left.
  for (std::size_t d = 0; d < ndom; ++d) {
    Impl::Group& g = impl_->groups[d];
    g.slots = base + (d < extra ? 1 : 0);
    impl_->arena_ctxs.push_back(Impl::ArenaCtx{this, d});
    g.arena = std::make_unique<DomainArena>(&Impl::arena_commit,
                                            &impl_->arena_ctxs.back());
    // The caller occupies one of domain 0's slots; every other slot is a
    // spawned worker pinned to its domain's cpus.
    const std::size_t spawn = d == 0 ? g.slots - 1 : g.slots;
    g.workers.reserve(spawn);
    for (std::size_t w = 0; w < spawn; ++w) {
      g.workers.emplace_back([this, d, &g] {
        t_domain = d;
        t_worker = true;
        Topology::pin_current_thread(impl_->topo.domain(d));
        std::uint64_t seen = 0;
        for (;;) {
          {
            std::unique_lock<std::mutex> lock(g.mutex);
            g.cv_work.wait(lock, [&] { return g.stop || g.epoch != seen; });
            if (g.stop) return;
            seen = g.epoch;
          }
          t_in_job = true;
          g.run_chunks();
          t_in_job = false;
        }
      });
    }
  }
}

ThreadPool::~ThreadPool() {
  for (auto& g : impl_->groups) {
    {
      std::lock_guard<std::mutex> lock(g.mutex);
      g.stop = true;
    }
    g.cv_work.notify_all();
  }
  for (auto& g : impl_->groups) {
    for (auto& w : g.workers) w.join();
  }
  delete impl_;
}

std::size_t ThreadPool::size() const {
  std::size_t slots = 0;
  for (const auto& g : impl_->groups) slots += g.slots;
  return slots;
}

std::size_t ThreadPool::domain_count() const { return impl_->groups.size(); }

std::size_t ThreadPool::domain_size(std::size_t domain) const {
  return impl_->groups[domain % impl_->groups.size()].slots;
}

const Topology& ThreadPool::topology() const { return impl_->topo; }

std::size_t ThreadPool::current_domain() { return t_domain; }

bool ThreadPool::current_is_worker() { return t_worker; }

bool ThreadPool::dispatch_confined() { return t_in_job || t_route >= 0; }

std::uint64_t ThreadPool::instance_id() const { return impl_->id; }

DomainArena& ThreadPool::domain_arena(std::size_t domain) {
  return *impl_->groups[domain % impl_->groups.size()].arena;
}

void ThreadPool::add_domain_load(std::size_t domain, std::uint64_t drained,
                                 std::uint64_t stolen, std::uint64_t drain_ns,
                                 std::uint64_t steal_ns) {
  Impl::Group& g = impl_->groups[domain % impl_->groups.size()];
  if (drained != 0) {
    g.tiles_drained.fetch_add(drained, std::memory_order_relaxed);
  }
  if (stolen != 0) {
    g.tiles_stolen.fetch_add(stolen, std::memory_order_relaxed);
  }
  if (drain_ns != 0) {
    g.drain_ns.fetch_add(drain_ns, std::memory_order_relaxed);
  }
  if (steal_ns != 0) {
    g.steal_ns.fetch_add(steal_ns, std::memory_order_relaxed);
  }
}

std::vector<DomainLoad> ThreadPool::domain_loads() const {
  std::vector<DomainLoad> loads(impl_->groups.size());
  for (std::size_t d = 0; d < loads.size(); ++d) {
    loads[d].tiles_drained =
        impl_->groups[d].tiles_drained.load(std::memory_order_relaxed);
    loads[d].tiles_stolen =
        impl_->groups[d].tiles_stolen.load(std::memory_order_relaxed);
    loads[d].drain_ns =
        impl_->groups[d].drain_ns.load(std::memory_order_relaxed);
    loads[d].steal_ns =
        impl_->groups[d].steal_ns.load(std::memory_order_relaxed);
  }
  return loads;
}

DomainLoadSnapshot ThreadPool::domain_load_snapshot() const {
  return DomainLoadSnapshot{instance_id(), domain_loads()};
}

std::vector<DomainLoad> ThreadPool::domain_loads_since(
    const DomainLoadSnapshot& baseline) const {
  std::vector<DomainLoad> now = domain_loads();
  if (baseline.pool_instance != impl_->id) {
    // Baseline from a pool that no longer exists: this pool's counters
    // started from zero after it, so the cumulative reading IS the delta.
    return now;
  }
  for (std::size_t d = 0; d < now.size() && d < baseline.loads.size(); ++d) {
    const DomainLoad& b = baseline.loads[d];
    DomainLoad& n = now[d];
    n.tiles_drained -= std::min(n.tiles_drained, b.tiles_drained);
    n.tiles_stolen -= std::min(n.tiles_stolen, b.tiles_stolen);
    n.drain_ns -= std::min(n.drain_ns, b.drain_ns);
    n.steal_ns -= std::min(n.steal_ns, b.steal_ns);
  }
  return now;
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (begin >= end) return;
  if (t_route >= 0 && !t_in_job && impl_->groups.size() > 1) {
    // DomainGuard routing: the historical API lands on one domain.  A
    // one-domain pool has no placement to keep, so the caller keeps its
    // slot and the flat path below runs.
    run_on_domain(static_cast<std::size_t>(t_route), begin, end, body);
    return;
  }
  if (t_in_job) {
    // Nested fork-join from a pool worker (or a participating caller):
    // degrade to inline serial execution instead of deadlocking on the
    // group job locks.
    body(begin, end);
    return;
  }
  const std::size_t n = end - begin;
  const std::size_t nthreads = size();
  if (nthreads == 1 || n == 1) {
    body(begin, end);
    return;
  }

  if (impl_->groups.size() == 1) {
    // Flat fast path (single-domain machines): exactly the historical
    // fork-join — one admission lock, one publish, caller participates.
    // No per-call allocations.
    Impl::Group& g = impl_->groups.front();
    std::lock_guard<std::mutex> job(g.job_mutex);
    g.publish(begin, end, std::min(n, nthreads * 4), body);
    g.cv_work.notify_all();
    t_in_job = true;
    g.run_chunks();
    t_in_job = false;
    if (std::exception_ptr e = g.wait_done()) std::rethrow_exception(e);
    return;
  }

  // One fork-join job at a time per group: lock every group's admission
  // mutex in index order (run_on_domain locks a single one with the same
  // ordering, so the two cannot deadlock), publish each group's contiguous
  // sub-range, and participate in domain 0's drain.
  auto& groups = impl_->groups;
  std::vector<std::unique_lock<std::mutex>> jobs;
  jobs.reserve(groups.size());
  for (auto& g : groups) jobs.emplace_back(g.job_mutex);

  // Contiguous split proportional to slot counts, remainder to the front.
  const std::size_t total = size();
  std::size_t at = begin;
  std::size_t given = 0;
  std::vector<bool> published(groups.size(), false);
  for (std::size_t d = 0; d < groups.size(); ++d) {
    Impl::Group& g = groups[d];
    // Largest-remainder split that always sums to n.
    given += g.slots;
    const std::size_t upto = begin + (n * given + total - 1) / total;
    const std::size_t hi = std::min(end, std::max(at, upto));
    if (hi > at) {
      g.publish(at, hi, std::min(hi - at, g.slots * 4), body);
      published[d] = true;
      g.cv_work.notify_all();
      at = hi;
    }
  }
  t_in_job = true;
  groups[0].run_chunks();
  t_in_job = false;
  std::exception_ptr first;
  for (std::size_t d = 0; d < groups.size(); ++d) {
    if (!published[d]) continue;
    std::exception_ptr e = groups[d].wait_done();
    if (first == nullptr) first = std::move(e);
  }
  if (first != nullptr) std::rethrow_exception(first);
}

void ThreadPool::run_on_domain(
    std::size_t domain, std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (begin >= end) return;
  Impl::Group& g = impl_->groups[domain % impl_->groups.size()];
  if (t_in_job || g.workers.empty()) {
    // Nested call, or a domain with no spawned workers (1-thread pools,
    // more domains than threads): inline on the caller.
    body(begin, end);
    return;
  }
  std::lock_guard<std::mutex> job(g.job_mutex);
  // The caller does NOT participate: chunks must run on the domain's pinned
  // workers so first-touch placement follows the domain, not the caller.
  g.publish(begin, end, std::min(end - begin, g.workers.size() * 4), body);
  g.cv_work.notify_all();
  if (std::exception_ptr e = g.wait_done()) std::rethrow_exception(e);
}

ThreadPool::DomainGuard::DomainGuard(std::size_t domain)
    : previous_(t_route) {
  t_route = static_cast<long>(domain);
}

ThreadPool::DomainGuard::~DomainGuard() { t_route = previous_; }

namespace {

std::mutex g_global_mutex;
std::unique_ptr<ThreadPool> g_global_pool;
// Lock-free fast path for global(): published with release after
// construction, cleared (under the mutex) before a reset tears the pool
// down.  Resetting while jobs are in flight is documented UB either way.
std::atomic<ThreadPool*> g_global_ptr{nullptr};

}  // namespace

ThreadPool& ThreadPool::global() {
  if (ThreadPool* pool = g_global_ptr.load(std::memory_order_acquire)) {
    return *pool;
  }
  std::lock_guard<std::mutex> lock(g_global_mutex);
  if (!g_global_pool) {
    g_global_pool = std::make_unique<ThreadPool>();
    g_global_ptr.store(g_global_pool.get(), std::memory_order_release);
  }
  return *g_global_pool;
}

void ThreadPool::reset_global(std::size_t threads, const Topology* topology) {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  g_global_ptr.store(nullptr, std::memory_order_release);
  g_global_pool.reset();  // join the old workers before the new pool spawns
  g_global_pool = std::make_unique<ThreadPool>(threads, topology);
  g_global_ptr.store(g_global_pool.get(), std::memory_order_release);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  ThreadPool::global().parallel_for(begin, end, body);
}

void run_on_domain(std::size_t domain, std::size_t begin, std::size_t end,
                   const std::function<void(std::size_t, std::size_t)>& body) {
  ThreadPool::global().run_on_domain(domain, begin, end, body);
}

}  // namespace fasted
