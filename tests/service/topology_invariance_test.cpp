// The topology safety invariant, tested as properties: domain-partitioned
// execution is a PLACEMENT decision, never a results decision.  For any
// execution-domain count, any shard count, with or without cross-domain
// work stealing — and even when thread pinning fails outright (restricted
// cpusets) — eps-join and kNN results are BIT-identical to the flat
// single-domain pool, because hits are per-pair deterministic and every
// sink merges by global row id.

#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "../service_reference.hpp"
#include "common/parallel.hpp"
#include "common/topology.hpp"
#include "data/calibrate.hpp"
#include "data/generators.hpp"
#include "service/join_service.hpp"

namespace fasted::service {
namespace {

constexpr std::size_t kDomainCounts[] = {1, 2, 4};
constexpr std::size_t kShardCounts[] = {1, 3};

// Rebuilds the global pool with a synthetic D-domain topology on entry and
// restores the environment-default pool on destruction, so the remaining
// tests in this binary see the flat layout again.
class ScopedTopology {
 public:
  ScopedTopology(std::size_t domains, std::size_t threads = 4) {
    const Topology topo = Topology::synthetic(domains);
    ThreadPool::reset_global(threads, &topo);
  }
  ~ScopedTopology() { ThreadPool::reset_global(); }
};

// Scoped FASTED_STEAL pin (the executor reads it per join).
class ScopedSteal {
 public:
  explicit ScopedSteal(bool enabled) {
    const char* saved = std::getenv("FASTED_STEAL");
    saved_ = saved != nullptr ? saved : "";
    had_ = saved != nullptr;
    setenv("FASTED_STEAL", enabled ? "1" : "0", 1);
  }
  ~ScopedSteal() {
    if (had_) {
      setenv("FASTED_STEAL", saved_.c_str(), 1);
    } else {
      unsetenv("FASTED_STEAL");
    }
  }

 private:
  std::string saved_;
  bool had_ = false;
};

void expect_same_eps(const QueryJoinOutput& expect, const QueryJoinOutput& got,
                     const std::string& label) {
  ASSERT_EQ(got.pair_count, expect.pair_count) << label;
  ASSERT_EQ(got.result.num_queries(), expect.result.num_queries()) << label;
  for (std::size_t q = 0; q < expect.result.num_queries(); ++q) {
    const auto a = expect.result.matches_of(q);
    const auto b = got.result.matches_of(q);
    ASSERT_EQ(b.size(), a.size()) << label << " query " << q;
    for (std::size_t r = 0; r < a.size(); ++r) {
      ASSERT_EQ(b[r].id, a[r].id) << label << " query " << q;
      ASSERT_EQ(std::bit_cast<std::uint32_t>(b[r].dist2),
                std::bit_cast<std::uint32_t>(a[r].dist2))
          << label << " query " << q;
    }
  }
}

TEST(TopologyInvariance, EpsJoinBitIdenticalAcrossDomainCountsAndStealing) {
  const auto data = data::uniform(420, 16, 777);
  const auto queries = data::uniform(90, 16, 778);
  const float eps = data::calibrate_epsilon(data, 24.0).eps;

  EpsQuery request;
  request.points = MatrixF32(queries);
  request.eps = eps;

  // Reference: engine-direct on the flat pre-topology layout.
  QueryJoinOutput expect;
  {
    ScopedTopology flat(1);
    expect = reference::eps_reference(data, queries, eps);
  }

  for (const std::size_t domains : kDomainCounts) {
    for (const std::size_t shards : kShardCounts) {
      for (const bool steal : {true, false}) {
        ScopedTopology topo(domains);
        ScopedSteal steal_pin(steal);
        ShardedCorpusOptions opts;
        opts.shards = shards;
        JoinService svc(
            std::make_shared<ShardedCorpus>(MatrixF32(data), opts));
        const auto got = svc.eps_join(request);
        expect_same_eps(expect, got,
                        "domains=" + std::to_string(domains) +
                            " shards=" + std::to_string(shards) +
                            (steal ? " steal" : " no-steal"));
      }
    }
  }
}

TEST(TopologyInvariance, KnnBitIdenticalAcrossDomainCounts) {
  const auto data = data::uniform(320, 12, 787);
  const auto queries = data::uniform(50, 12, 788);

  KnnQuery request;
  request.points = MatrixF32(queries);
  request.k = 4;

  KnnBatchResult expect;
  {
    ScopedTopology flat(1);
    expect = reference::knn_reference(data, queries, request.k);
  }

  for (const std::size_t domains : kDomainCounts) {
    for (const std::size_t shards : kShardCounts) {
      ScopedTopology topo(domains);
      ShardedCorpusOptions opts;
      opts.shards = shards;
      JoinService svc(std::make_shared<ShardedCorpus>(MatrixF32(data), opts));
      const auto got = svc.knn(request);
      for (std::size_t q = 0; q < queries.rows(); ++q) {
        for (std::size_t r = 0; r < request.k; ++r) {
          ASSERT_EQ(got.id(q, r), expect.id(q, r))
              << "domains=" << domains << " shards=" << shards << " q " << q;
          ASSERT_EQ(std::bit_cast<std::uint32_t>(got.distance(q, r)),
                    std::bit_cast<std::uint32_t>(expect.distance(q, r)))
              << "domains=" << domains << " shards=" << shards << " q " << q;
        }
      }
    }
  }
}

TEST(TopologyInvariance, SelfJoinBitIdenticalThroughEnginePlacement) {
  // Engine-level check (no service): prepare_shards places shards
  // round-robin and the executor routes + steals; pair sets must match the
  // monolithic self-join exactly.
  const auto data = data::uniform(350, 10, 797);
  const float eps = data::calibrate_epsilon(data, 20.0).eps;
  FastedEngine engine;

  JoinOutput expect;
  {
    ScopedTopology flat(1);
    expect = engine.self_join(data, eps);
  }

  for (const std::size_t domains : kDomainCounts) {
    for (const bool steal : {true, false}) {
      ScopedTopology topo(domains);
      ScopedSteal steal_pin(steal);
      const PreparedShards set = prepare_shards(data, 3);
      const JoinOutput got = engine.self_join(set.span(), eps);
      ASSERT_EQ(got.pair_count, expect.pair_count) << "domains=" << domains;
      ASSERT_EQ(got.result.pair_count(), expect.result.pair_count())
          << "domains=" << domains;
      for (std::size_t i = 0; i < data.rows(); ++i) {
        const auto a = expect.result.neighbors_of(i);
        const auto b = got.result.neighbors_of(i);
        ASSERT_EQ(std::vector<std::uint32_t>(b.begin(), b.end()),
                  std::vector<std::uint32_t>(a.begin(), a.end()))
            << "domains=" << domains << " row " << i;
      }
    }
  }
}

TEST(TopologyInvariance, AppendDrivenGrowthKeepsPlacementAndResults) {
  // Appends rebuild the open shard ON its owning domain; results must stay
  // identical to bulk ingestion on the flat pool, and the rebuilt shard
  // must keep its round-robin domain.
  const auto data = data::uniform(400, 14, 807);
  const auto queries = data::uniform(60, 14, 808);
  const float eps = data::calibrate_epsilon(data, 24.0).eps;

  EpsQuery request;
  request.points = MatrixF32(queries);
  request.eps = eps;

  QueryJoinOutput expect;
  {
    ScopedTopology flat(1);
    ShardedCorpusOptions opts;
    opts.shard_capacity = 150;
    JoinService svc(std::make_shared<ShardedCorpus>(MatrixF32(data), opts));
    expect = svc.eps_join(request);
  }

  ScopedTopology topo(2);
  ShardedCorpusOptions opts;
  opts.shard_capacity = 150;
  auto corpus =
      std::make_shared<ShardedCorpus>(row_slice(data, 0, 100), opts);
  corpus->append(row_slice(data, 100, 260));
  corpus->append(row_slice(data, 260, 400));
  ASSERT_EQ(corpus->size(), 400u);
  const auto infos = corpus->shard_infos();
  for (std::size_t s = 0; s < infos.size(); ++s) {
    EXPECT_EQ(infos[s].domain, s % corpus->placement_domains()) << s;
  }
  JoinService svc(corpus);
  expect_same_eps(expect, svc.eps_join(request), "appended, domains=2");
}

// The lifecycle invariance matrix (delete/compact/rebalance across
// topologies): for every domain count x shard count x steal mode, the
// SURVIVING rows' eps and knn results are bit-identical whether the dead
// rows are (a) absent from a flat-pool engine-direct reference,
// (b) tombstone-masked, or (c) physically dropped by compaction — and a
// rebalance() pass between serves changes nothing but placement.
TEST(TopologyInvariance, DeleteCompactRebalanceBitIdenticalAcrossTopologies) {
  const auto data = data::uniform(380, 12, 827);
  const auto queries = data::uniform(60, 12, 828);
  const float eps = data::calibrate_epsilon(data, 22.0).eps;
  const std::size_t k = 4;

  // Every 5th row dies; `survivors` maps reference (survivor-space) ids
  // back to the tombstoned corpus's global ids.
  std::vector<std::uint32_t> dead;
  std::vector<std::uint32_t> survivors;
  MatrixF32 removed(data.rows() - (data.rows() + 4) / 5, data.dims());
  std::size_t w = 0;
  for (std::size_t i = 0; i < data.rows(); ++i) {
    if (i % 5 == 0) {
      dead.push_back(static_cast<std::uint32_t>(i));
    } else {
      survivors.push_back(static_cast<std::uint32_t>(i));
      std::copy_n(data.row(i), data.stride(), removed.row(w++));
    }
  }

  EpsQuery eps_request;
  eps_request.points = MatrixF32(queries);
  eps_request.eps = eps;
  KnnQuery knn_request;
  knn_request.points = MatrixF32(queries);
  knn_request.k = k;

  // Reference: flat pool, dead rows never existed.
  QueryJoinOutput eps_expect;
  KnnBatchResult knn_expect;
  {
    ScopedTopology flat(1);
    eps_expect = reference::eps_reference(removed, queries, eps);
    knn_expect = reference::knn_reference(removed, queries, k);
  }

  const auto check_eps = [&](JoinService& svc, const std::uint32_t* remap,
                             const std::string& label) {
    const QueryJoinOutput got = svc.eps_join(eps_request);
    ASSERT_EQ(got.pair_count, eps_expect.pair_count) << label;
    for (std::size_t q = 0; q < eps_expect.result.num_queries(); ++q) {
      const auto a = eps_expect.result.matches_of(q);
      const auto b = got.result.matches_of(q);
      ASSERT_EQ(b.size(), a.size()) << label << " query " << q;
      for (std::size_t r = 0; r < a.size(); ++r) {
        ASSERT_EQ(b[r].id, remap != nullptr ? remap[a[r].id] : a[r].id)
            << label << " query " << q;
        ASSERT_EQ(std::bit_cast<std::uint32_t>(b[r].dist2),
                  std::bit_cast<std::uint32_t>(a[r].dist2))
            << label << " query " << q;
      }
    }
  };
  const auto check_knn = [&](JoinService& svc, const std::uint32_t* remap,
                             const std::string& label) {
    const KnnBatchResult got = svc.knn(knn_request);
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      for (std::size_t r = 0; r < k; ++r) {
        ASSERT_EQ(got.id(q, r), remap != nullptr ? remap[knn_expect.id(q, r)]
                                                 : knn_expect.id(q, r))
            << label << " q " << q;
        ASSERT_EQ(std::bit_cast<std::uint32_t>(got.distance(q, r)),
                  std::bit_cast<std::uint32_t>(knn_expect.distance(q, r)))
            << label << " q " << q;
      }
    }
  };

  for (const std::size_t domains : {std::size_t{1}, std::size_t{2}}) {
    for (const std::size_t shards : kShardCounts) {
      for (const bool steal : {true, false}) {
        const std::string label = "domains=" + std::to_string(domains) +
                                  " shards=" + std::to_string(shards) +
                                  (steal ? " steal" : " no-steal");
        ScopedTopology topo(domains);
        ScopedSteal steal_pin(steal);
        ShardedCorpusOptions opts;
        opts.shards = shards;
        auto corpus = std::make_shared<ShardedCorpus>(MatrixF32(data), opts);
        JoinService svc(corpus);

        // Phase 1: tombstones (ids stay in pre-delete space).
        ASSERT_EQ(corpus->erase(dead), dead.size()) << label;
        check_eps(svc, survivors.data(), label + " tombstoned");
        check_knn(svc, survivors.data(), label + " tombstoned knn");

        // Phase 2: rebalance between serves — placement only.
        RebalanceOptions ropts;
        ropts.min_imbalance = 1.0;
        corpus->rebalance(ropts);
        check_eps(svc, survivors.data(), label + " rebalanced");

        // Phase 3: physical compaction (survivors renumber to exactly the
        // reference's id space).
        CompactOptions copts;
        copts.dead_fraction = 0.0;
        const auto report = corpus->compact(copts);
        ASSERT_EQ(report.rows_dropped, dead.size()) << label;
        check_eps(svc, nullptr, label + " compacted");
        check_knn(svc, nullptr, label + " compacted knn");
      }
    }
  }
}

TEST(TopologyInvariance, RestrictedCpusetDegradesGracefully) {
  const auto data = data::uniform(260, 8, 817);
  const auto queries = data::uniform(40, 8, 818);
  EpsQuery request;
  request.points = MatrixF32(queries);
  request.eps = 0.7f;

  QueryJoinOutput expect;
  {
    ScopedTopology flat(1);
    expect = reference::eps_reference(data, queries, request.eps);
  }

  // A topology whose cpu ids cannot exist on any machine: every pin fails
  // (warn-once path — what a restricted container cpuset looks like) and
  // the pool runs unpinned; results must still be exact.
  ExecutionDomain impossible;
  impossible.cpus = {100000, 100001};
  const Topology unpinnable = Topology::custom({impossible, impossible});
  ThreadPool::reset_global(4, &unpinnable);
  {
    ShardedCorpusOptions opts;
    opts.shards = 3;
    JoinService svc(std::make_shared<ShardedCorpus>(MatrixF32(data), opts));
    expect_same_eps(expect, svc.eps_join(request), "unpinnable topology");
  }
  ThreadPool::reset_global();
}

}  // namespace
}  // namespace fasted::service
