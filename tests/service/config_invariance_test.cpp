// Engine-config invariance, tested exhaustively over the execution knobs:
// block-tile shape, tile dispatch order, rz_dot kernel, shard capacity,
// cross-domain stealing, shard count and execution-domain count change
// only how a join runs, never its answer.  Every combination must give
// bit-identical eps-join, kNN and self-join results against the flat-pool
// references.  The kernel configs cover every variant this CPU runs (the
// FASTED_RZ_KERNEL CI legs pin each one over the whole suite), and two
// services on different kernels serve concurrently without interfering.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "../service_reference.hpp"
#include "common/parallel.hpp"
#include "common/topology.hpp"
#include "core/fasted.hpp"
#include "core/kernels/kernel_context.hpp"
#include "data/calibrate.hpp"
#include "data/generators.hpp"
#include "service/join_service.hpp"

namespace fasted::service {
namespace {

constexpr std::size_t kShardCounts[] = {1, 3};
constexpr std::size_t kDomainCounts[] = {1, 2};

class ScopedTopology {
 public:
  explicit ScopedTopology(std::size_t domains, std::size_t threads = 4) {
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

// Square and rectangular block tiles ({64, 128}^2, warp tiles capped at
// 64 so the warp grid covers the tile) x dispatch {squares 4, squares 16,
// row-major}, plus one tile width that is not a multiple of the panel
// width, plus the default tile on each rz_dot kernel this CPU runs.
std::vector<FastedConfig> engine_configs() {
  std::vector<FastedConfig> out;
  for (const int tm : {64, 128}) {
    for (const int tn : {64, 128}) {
      for (const int square : {4, 16, 0}) {
        FastedConfig cfg = FastedConfig::paper_defaults();
        cfg.block_tile_m = tm;
        cfg.block_tile_n = tn;
        cfg.warp_tile_m = std::min(64, tm);
        cfg.warp_tile_n = std::min(64, tn);
        cfg.warps_per_block =
            (tm / cfg.warp_tile_m) * (tn / cfg.warp_tile_n);
        if (square == 0) {
          cfg.opt_block_tile_ordering = false;  // row-major dispatch
        } else {
          cfg.dispatch_square = square;
        }
        cfg.validate();
        out.push_back(cfg);
      }
    }
  }
  // A block tile 24 columns wide (warp tiles 64 x 8): tiles start and end
  // inside the 16-row resident corpus panels, so the executor widens a
  // panel the tile only partly covers and masks the other lanes.
  FastedConfig unaligned = FastedConfig::paper_defaults();
  unaligned.block_tile_m = 64;
  unaligned.block_tile_n = 24;
  unaligned.warp_tile_m = 64;
  unaligned.warp_tile_n = 8;
  unaligned.warps_per_block = 3;
  unaligned.validate();
  out.push_back(unaligned);
  for (const kernels::RzDotKernel* k :
       kernels::KernelRegistry::global().supported()) {
    FastedConfig cfg = FastedConfig::paper_defaults();
    cfg.rz_kernel = k->name;
    cfg.validate();
    out.push_back(cfg);
  }
  return out;
}

// FASTED_STEAL values to run: stealing only happens across domains, so a
// one-domain pool runs one.
std::vector<bool> steal_pins(std::size_t domains) {
  return domains > 1 ? std::vector<bool>{true, false} : std::vector<bool>{true};
}

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

TEST(ConfigInvariance, EpsAndKnnBitIdenticalForEveryConfig) {
  const auto data = data::uniform(420, 16, 4040);
  const auto queries = data::uniform(60, 16, 4041);
  const float eps = data::calibrate_epsilon(data, 24.0).eps;

  EpsQuery eps_request;
  eps_request.points = MatrixF32(queries);
  eps_request.eps = eps;
  KnnQuery knn_request;
  knn_request.points = MatrixF32(queries);
  knn_request.k = 4;

  // Reference: engine-direct, flat pool, default config, monolithic
  // corpus.
  QueryJoinOutput eps_expect;
  KnnBatchResult knn_expect;
  {
    ScopedTopology flat(1);
    eps_expect = reference::eps_reference(data, queries, eps);
    knn_expect = reference::knn_reference(data, queries, knn_request.k);
  }

  const auto check = [&](JoinService& svc, const std::string& label) {
    expect_same_eps(eps_expect, svc.eps_join(eps_request), label);
    const KnnBatchResult got = svc.knn(knn_request);
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      for (std::size_t r = 0; r < knn_request.k; ++r) {
        ASSERT_EQ(got.id(q, r), knn_expect.id(q, r)) << label << " q " << q;
        ASSERT_EQ(std::bit_cast<std::uint32_t>(got.distance(q, r)),
                  std::bit_cast<std::uint32_t>(knn_expect.distance(q, r)))
            << label << " q " << q;
      }
    }
  };

  for (const std::size_t domains : kDomainCounts) {
    ScopedTopology topo(domains);
    for (const std::size_t shards : kShardCounts) {
      // Shard capacity: the even split over `shards`, and half of it.
      const std::size_t even = (data.rows() + shards - 1) / shards;
      for (const std::size_t capacity : {even, even / 2}) {
        ShardedCorpusOptions opts;
        opts.shards = shards;
        opts.shard_capacity = capacity;
        // One corpus shared by every config's service, as an operator
        // switching configs would keep it.
        const auto corpus =
            std::make_shared<ShardedCorpus>(MatrixF32(data), opts);
        for (const FastedConfig& cfg : engine_configs()) {
          JoinService svc(corpus, FastedEngine(cfg));
          for (const bool steal : steal_pins(domains)) {
            ScopedSteal pin(steal);
            check(svc, "domains=" + std::to_string(domains) +
                           " shards=" + std::to_string(corpus->shard_count()) +
                           " capacity=" + std::to_string(capacity) + " " +
                           cfg.describe() + (steal ? " steal" : " no-steal"));
          }
        }
      }
    }
  }
}

TEST(ConfigInvariance, SelfJoinBitIdenticalForEveryConfig) {
  // Engine-level: every config drives the triangular self-join directly,
  // monolithic and through 3-shard placement, on a 2-domain pool with
  // stealing pinned on and off.
  const auto data = data::uniform(350, 12, 4050);
  const float eps = data::calibrate_epsilon(data, 20.0).eps;

  JoinOutput expect;
  {
    ScopedTopology flat(1);
    expect = FastedEngine().self_join(data, eps);
  }

  ScopedTopology topo(2);
  const PreparedShards set = prepare_shards(data, 3);
  for (const bool steal : steal_pins(2)) {
    ScopedSteal pin(steal);
    for (const FastedConfig& cfg : engine_configs()) {
      const FastedEngine engine(cfg);
      for (const bool sharded : {false, true}) {
        const std::string label = cfg.describe() +
                                  (steal ? " steal" : " no-steal") +
                                  (sharded ? " sharded" : " mono");
        const JoinOutput got = sharded ? engine.self_join(set.span(), eps)
                                       : engine.self_join(data, eps);
        ASSERT_EQ(got.pair_count, expect.pair_count) << label;
        ASSERT_EQ(got.result.offsets(), expect.result.offsets()) << label;
        ASSERT_EQ(got.result.neighbors(), expect.result.neighbors()) << label;
      }
    }
  }
}

TEST(ConfigInvariance, ConcurrentServicesWithDifferentKernelsDoNotInterfere) {
  // Each engine holds its own kernel, so two services on different kernels
  // serving concurrently on the shared pool must each keep producing their
  // own (identical) exact results.  A mutable process-global kernel would
  // race here; the sanitizer jobs run this case.
  const auto data = data::uniform(300, 12, 1807);
  const auto queries = data::uniform(50, 12, 1808);
  const float eps = data::calibrate_epsilon(data, 20.0).eps;

  QueryJoinOutput expect;
  {
    ScopedTopology flat(1);
    expect = reference::eps_reference(data, queries, eps);
  }

  ScopedTopology topo(2);
  FastedConfig scalar_cfg = FastedConfig::paper_defaults();
  scalar_cfg.rz_kernel = "scalar";
  const auto make_service = [&](const FastedConfig& cfg) {
    return std::make_shared<JoinService>(
        std::make_shared<ShardedCorpus>(MatrixF32(data),
                                        ShardedCorpusOptions{}),
        FastedEngine(cfg));
  };
  const auto scalar_svc = make_service(scalar_cfg);
  const auto best_svc = make_service(FastedConfig::paper_defaults());

  constexpr int kIters = 8;
  std::vector<std::thread> workers;
  for (const auto& svc : {scalar_svc, best_svc}) {
    workers.emplace_back([&, svc] {
      for (int i = 0; i < kIters; ++i) {
        EpsQuery local;
        local.points = MatrixF32(queries);
        local.eps = eps;
        expect_same_eps(expect, svc->eps_join(local),
                        "concurrent iter " + std::to_string(i));
      }
    });
  }
  for (std::thread& t : workers) t.join();

  // Each service still reports its own kernel.
  const kernels::KernelRegistry& reg = kernels::KernelRegistry::global();
  EXPECT_EQ(scalar_svc->stats().kernel, reg.resolve("scalar").name);
  EXPECT_EQ(best_svc->stats().kernel, reg.resolve("auto").name);
  if (reg.env_pin() == nullptr) {
    EXPECT_EQ(scalar_svc->stats().kernel, "scalar");
    EXPECT_EQ(best_svc->stats().kernel, reg.best().name);
  }
}

}  // namespace
}  // namespace fasted::service
