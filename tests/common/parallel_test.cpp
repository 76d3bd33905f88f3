#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/topology.hpp"

namespace fasted {
namespace {

TEST(ThreadPool, CoversFullRangeOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
  pool.parallel_for(7, 3, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, RangeSmallerThanWorkerCount) {
  // Fewer items than workers: every index still visited exactly once, and
  // no chunk may be empty.
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  std::atomic<int> chunks{0};
  pool.parallel_for(0, hits.size(), [&](std::size_t b, std::size_t e) {
    EXPECT_LT(b, e);
    ++chunks;
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_LE(chunks.load(), 3);
}

TEST(ThreadPool, BeginEqualsEndMidRangeIsNoop) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(42, 42, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, SingleElementRange) {
  ThreadPool pool(4);
  int count = 0;
  pool.parallel_for(10, 11, [&](std::size_t b, std::size_t e) {
    EXPECT_EQ(b, 10u);
    EXPECT_EQ(e, 11u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(ThreadPool, NonZeroOffset) {
  ThreadPool pool(3);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(100, 200, [&](std::size_t b, std::size_t e) {
    std::size_t local = 0;
    for (std::size_t i = b; i < e; ++i) local += i;
    sum.fetch_add(local);
  });
  std::size_t expect = 0;
  for (std::size_t i = 100; i < 200; ++i) expect += i;
  EXPECT_EQ(sum.load(), expect);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> total{0};
    pool.parallel_for(0, 97, [&](std::size_t b, std::size_t e) {
      total.fetch_add(static_cast<int>(e - b));
    });
    ASSERT_EQ(total.load(), 97);
  }
}

TEST(ThreadPool, SerialFallbackWithOneThread) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<int> order;
  pool.parallel_for(0, 10, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) order.push_back(static_cast<int>(i));
  });
  std::vector<int> expect(10);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(order, expect);
}

TEST(ThreadPool, GlobalPoolWorks) {
  std::atomic<int> total{0};
  parallel_for(0, 1234, [&](std::size_t b, std::size_t e) {
    total.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(total.load(), 1234);
}

TEST(ThreadPool, ChunksAreContiguousAndOrderedWithinChunk) {
  ThreadPool pool(4);
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for(0, 1000, [&](std::size_t b, std::size_t e) {
    std::lock_guard<std::mutex> lock(m);
    chunks.emplace_back(b, e);
  });
  std::sort(chunks.begin(), chunks.end());
  std::size_t pos = 0;
  for (const auto& [b, e] : chunks) {
    EXPECT_EQ(b, pos);
    EXPECT_LT(b, e);
    pos = e;
  }
  EXPECT_EQ(pos, 1000u);
}


TEST(ThreadPool, HonorsFastedThreadsEnv) {
  // Save the incoming pin (the CI sanitize job sets FASTED_THREADS=4) so
  // the rest of the binary keeps its reproducible pool size.
  const char* incoming = getenv("FASTED_THREADS");
  const std::string saved = incoming ? incoming : "";
  // `threads == 0` consults FASTED_THREADS before hardware concurrency.
  setenv("FASTED_THREADS", "3", 1);
  ThreadPool pinned(0);
  EXPECT_EQ(pinned.size(), 3u);
  // Garbage and non-positive values fall back to hardware concurrency.
  setenv("FASTED_THREADS", "0", 1);
  ThreadPool zero(0);
  EXPECT_GE(zero.size(), 1u);
  setenv("FASTED_THREADS", "banana", 1);
  ThreadPool garbage(0);
  EXPECT_GE(garbage.size(), 1u);
  unsetenv("FASTED_THREADS");
  // Explicit counts always win.
  setenv("FASTED_THREADS", "7", 1);
  ThreadPool explicit_count(2);
  EXPECT_EQ(explicit_count.size(), 2u);
  if (incoming != nullptr) {
    setenv("FASTED_THREADS", saved.c_str(), 1);
  } else {
    unsetenv("FASTED_THREADS");
  }
}


TEST(ThreadPool, PartitionsSlotsAcrossDomains) {
  const Topology topo = Topology::synthetic(3);
  ThreadPool pool(8, &topo);
  EXPECT_EQ(pool.size(), 8u);
  ASSERT_EQ(pool.domain_count(), 3u);
  std::size_t slots = 0;
  for (std::size_t d = 0; d < pool.domain_count(); ++d) {
    EXPECT_GE(pool.domain_size(d), 1u);
    slots += pool.domain_size(d);
  }
  EXPECT_EQ(slots, 8u);
}

TEST(ThreadPool, DomainsClampToSlotCount) {
  // More domains than threads: every surviving domain still owns a slot.
  const Topology topo = Topology::synthetic(8);
  ThreadPool pool(3, &topo);
  EXPECT_EQ(pool.domain_count(), 3u);
  for (std::size_t d = 0; d < 3; ++d) EXPECT_EQ(pool.domain_size(d), 1u);
}

TEST(ThreadPool, MultiDomainParallelForCoversFullRangeOnce) {
  const Topology topo = Topology::synthetic(2);
  ThreadPool pool(4, &topo);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, MultiDomainBodiesReportValidDomains) {
  const Topology topo = Topology::synthetic(2);
  ThreadPool pool(4, &topo);
  std::vector<std::atomic<int>> per_domain(2);
  // One index per slot, like the join executor's dispatch: both domains
  // must execute bodies.
  pool.parallel_for(0, pool.size(), [&](std::size_t, std::size_t) {
    const std::size_t d = ThreadPool::current_domain();
    ASSERT_LT(d, 2u);
    per_domain[d].fetch_add(1);
  });
  EXPECT_GT(per_domain[0].load(), 0);
  EXPECT_GT(per_domain[1].load(), 0);
}

TEST(ThreadPool, RunOnDomainCoversRangeOnWorkersOnly) {
  const Topology topo = Topology::synthetic(2);
  ThreadPool pool(6, &topo);
  for (std::size_t target = 0; target < 2; ++target) {
    std::vector<std::atomic<int>> hits(500);
    const auto caller = std::this_thread::get_id();
    std::atomic<bool> caller_ran{false};
    pool.run_on_domain(target, 0, hits.size(),
                       [&](std::size_t b, std::size_t e) {
                         EXPECT_EQ(ThreadPool::current_domain(), target);
                         if (std::this_thread::get_id() == caller) {
                           caller_ran = true;
                         }
                         for (std::size_t i = b; i < e; ++i) {
                           hits[i].fetch_add(1);
                         }
                       });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
    // First-touch placement: the caller must never execute chunks itself.
    EXPECT_FALSE(caller_ran.load()) << "domain " << target;
  }
}

TEST(ThreadPool, RunOnDomainFallsBackInlineWithoutWorkers) {
  // A 1-thread pool has no spawned workers anywhere: run_on_domain must
  // degrade to the caller instead of hanging.
  ThreadPool pool(1);
  int sum = 0;
  pool.run_on_domain(0, 0, 10, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  // Fork-join from inside a chunk body must degrade to serial inline
  // execution (shard builds rely on this), not deadlock.
  const Topology topo = Topology::synthetic(2);
  ThreadPool pool(4, &topo);
  std::atomic<int> inner_total{0};
  pool.run_on_domain(1, 0, 1, [&](std::size_t, std::size_t) {
    pool.parallel_for(0, 100, [&](std::size_t b, std::size_t e) {
      EXPECT_EQ(ThreadPool::current_domain(), 1u);
      inner_total.fetch_add(static_cast<int>(e - b));
    });
  });
  EXPECT_EQ(inner_total.load(), 100);
}

TEST(ThreadPool, DomainGuardRoutesPlainParallelFor) {
  const Topology topo = Topology::synthetic(2);
  ThreadPool pool(4, &topo);
  std::atomic<int> wrong_domain{0};
  {
    ThreadPool::DomainGuard guard(1);
    pool.parallel_for(0, 200, [&](std::size_t b, std::size_t e) {
      if (ThreadPool::current_domain() != 1) wrong_domain.fetch_add(1);
      (void)b;
      (void)e;
    });
  }
  EXPECT_EQ(wrong_domain.load(), 0);
  // Guard gone: both domains participate again.
  std::vector<std::atomic<int>> per_domain(2);
  pool.parallel_for(0, pool.size(), [&](std::size_t, std::size_t) {
    per_domain[ThreadPool::current_domain()].fetch_add(1);
  });
  EXPECT_GT(per_domain[0].load(), 0);
  EXPECT_GT(per_domain[1].load(), 0);
}

TEST(ThreadPool, DomainGuardKeepsCallerSlotOnOneDomainPool) {
  // A one-domain pool has no placement to keep, so a guarded parallel_for
  // runs flat and the caller takes a chunk.  Each chunk waits up to 2 s
  // for the other to start: with the caller only waiting, the pool's one
  // worker would run both chunks in turn and neither on the caller.
  const Topology topo = Topology::synthetic(1);
  ThreadPool pool(2, &topo);
  ASSERT_EQ(pool.domain_count(), 1u);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> started{0};
  std::atomic<bool> caller_ran{false};
  {
    ThreadPool::DomainGuard guard(0);
    pool.parallel_for(0, 2, [&](std::size_t, std::size_t) {
      started.fetch_add(1);
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(2);
      while (started.load() < 2 && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
      if (std::this_thread::get_id() == caller) caller_ran = true;
    });
  }
  EXPECT_EQ(started.load(), 2);
  EXPECT_TRUE(caller_ran.load());
}

TEST(ThreadPool, JobsRightAfterConstructionCoverEveryIndexOnce) {
  // The constructor returns before its workers have pinned themselves or
  // reached their loop: jobs issued at once must still run every index
  // exactly once, and a pool destroyed before any job must join cleanly.
  const Topology topo = Topology::synthetic(2);
  for (int round = 0; round < 200; ++round) {
    ThreadPool pool(4, &topo);
    if (round % 2 == 1) continue;  // build and destroy, nothing run
    std::vector<std::atomic<int>> on_domain(64);
    std::vector<std::atomic<int>> flat(64);
    pool.run_on_domain(1, 0, on_domain.size(),
                       [&](std::size_t b, std::size_t e) {
                         for (std::size_t i = b; i < e; ++i) {
                           on_domain[i].fetch_add(1);
                         }
                       });
    pool.parallel_for(0, flat.size(), [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) flat[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < flat.size(); ++i) {
      ASSERT_EQ(on_domain[i].load(), 1) << "round " << round << " i " << i;
      ASSERT_EQ(flat[i].load(), 1) << "round " << round << " i " << i;
    }
  }
}

TEST(ThreadPool, DomainArenaCommitsOnOwningDomain) {
  const Topology topo = Topology::synthetic(2);
  ThreadPool pool(4, &topo);
  // Allocations from each domain's arena are zeroed by that domain's
  // workers (can't observe placement here, but the commit path must run
  // and return usable memory from any thread).
  for (std::size_t d = 0; d < 2; ++d) {
    auto* p = static_cast<unsigned char*>(
        pool.domain_arena(d).allocate(1 << 12));
    ASSERT_NE(p, nullptr);
    for (std::size_t i = 0; i < (1u << 12); i += 257) EXPECT_EQ(p[i], 0);
  }
}

TEST(ThreadPool, ResetGlobalRebuildsTopology) {
  const Topology two = Topology::synthetic(2);
  ThreadPool::reset_global(4, &two);
  EXPECT_EQ(ThreadPool::global().domain_count(), 2u);
  EXPECT_EQ(ThreadPool::global().size(), 4u);
  std::atomic<int> total{0};
  parallel_for(0, 777, [&](std::size_t b, std::size_t e) {
    total.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(total.load(), 777);
  const std::uint64_t id = ThreadPool::global().instance_id();
  ThreadPool::reset_global();  // back to the environment defaults
  EXPECT_NE(ThreadPool::global().instance_id(), id);
}

TEST(ThreadPool, ConcurrentCallersEachSeeTheirOwnJobComplete) {
  // Two fork-join jobs issued from different threads must not clobber each
  // other's chunk state: every element of both arrays gets written exactly
  // once.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> a(2000), b(2000);
  auto run = [&](std::vector<std::atomic<int>>& out) {
    pool.parallel_for(0, out.size(), [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) out[i].fetch_add(1);
    });
  };
  std::thread ta([&] { for (int r = 0; r < 20; ++r) run(a); });
  std::thread tb([&] { for (int r = 0; r < 20; ++r) run(b); });
  ta.join();
  tb.join();
  for (auto& h : a) EXPECT_EQ(h.load(), 20);
  for (auto& h : b) EXPECT_EQ(h.load(), 20);
}

// A throwing body must not end the process: the caller catches the job's
// exception once every other chunk has run, and the pool takes the next
// job — on the flat pool and on a 2-domain pool, through both entry points.
TEST(ThreadPool, ThrowingChunkRethrowsOnCallerAndPoolRunsNextJob) {
  struct ChunkFailure {};
  for (const Topology& topo :
       {Topology::synthetic(1),
        Topology::custom({ExecutionDomain{}, ExecutionDomain{}})}) {
    ThreadPool pool(4, &topo);
    const std::string label =
        std::to_string(pool.domain_count()) + " domain(s)";

    // parallel_for: the first chunk a worker runs throws before touching
    // its range; every other index is still visited exactly once.  The
    // caller's own chunks wait for that throw, so it lands on a worker.
    std::vector<std::atomic<int>> hits(1000);
    std::atomic<bool> thrown{false};
    std::atomic<std::size_t> failed_chunk{0};
    EXPECT_THROW(
        pool.parallel_for(
            0, hits.size(),
            [&](std::size_t b, std::size_t e) {
              if (ThreadPool::current_is_worker()) {
                if (!thrown.exchange(true)) {
                  failed_chunk = e - b;
                  throw ChunkFailure{};
                }
              } else {
                const auto give_up = std::chrono::steady_clock::now() +
                                     std::chrono::seconds(10);
                while (!thrown.load() &&
                       std::chrono::steady_clock::now() < give_up) {
                  std::this_thread::yield();
                }
              }
              for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
            }),
        ChunkFailure)
        << label;
    ASSERT_TRUE(thrown.load()) << label;
    int visited = 0;
    for (auto& h : hits) visited += h.load();
    EXPECT_EQ(static_cast<std::size_t>(visited),
              hits.size() - failed_chunk.load())
        << label;

    // run_on_domain: one throwing chunk per domain's job.
    for (std::size_t d = 0; d < pool.domain_count(); ++d) {
      EXPECT_THROW(pool.run_on_domain(d, 0, 100,
                                      [&](std::size_t b, std::size_t e) {
                                        if (b <= 5 && 5 < e) {
                                          throw ChunkFailure{};
                                        }
                                      }),
                   ChunkFailure)
          << label << " domain " << d;
    }

    // The pool is intact: the next jobs run to completion.
    std::vector<std::atomic<int>> again(1000);
    pool.parallel_for(0, again.size(), [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) again[i].fetch_add(1);
    });
    for (auto& h : again) EXPECT_EQ(h.load(), 1) << label;
    for (std::size_t d = 0; d < pool.domain_count(); ++d) {
      std::atomic<int> sum{0};
      pool.run_on_domain(d, 0, 10, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) sum += static_cast<int>(i);
      });
      EXPECT_EQ(sum.load(), 45) << label << " domain " << d;
    }
  }
}

}  // namespace
}  // namespace fasted
