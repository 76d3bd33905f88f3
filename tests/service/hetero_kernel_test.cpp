// Heterogeneous-dispatch property tests: the rz_dot kernel selection is
// pure execution policy, threaded through kernels::KernelContext — so for
// ANY per-domain kernel assignment (all-scalar, all-best, genuinely mixed
// per domain), across shard counts, domain counts, and steal modes,
// through set_schedule AND the gateway's coalesced path, eps-join / kNN /
// self-join results are BIT-identical.  Every variant computes the same
// add_rz chain; only throughput may differ.
//
// Also the context-isolation regression for the deleted process-global
// override: two services with different kernel selections serving
// concurrently on the shared pool must not perturb each other (the old
// mutable override was exactly such a cross-service race; run under
// TSan/ASan in the sanitize CI job).

#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "../service_reference.hpp"
#include "common/parallel.hpp"
#include "common/topology.hpp"
#include "core/kernels/kernel_context.hpp"
#include "data/calibrate.hpp"
#include "data/generators.hpp"
#include "serve/batch_gateway.hpp"
#include "service/join_service.hpp"
#include "tune/schedule.hpp"

namespace fasted::service {
namespace {

// Rebuilds the global pool with a synthetic D-domain topology on entry and
// restores the environment-default pool on destruction.
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

// The assignments under test: homogeneous scalar, per-domain best, and a
// genuinely heterogeneous per-domain split (domain 0 scalar, domain 1 the
// widest variant this host runs — identical to all-scalar when only the
// scalar kernel is compiled in).
std::vector<std::string> kernel_assignments() {
  const std::string best = kernels::KernelRegistry::global().best().name;
  return {"scalar", "auto", "scalar," + best};
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

TEST(HeteroKernel, EpsAndKnnBitIdenticalAcrossKernelAssignments) {
  const auto data = data::uniform(420, 16, 1777);
  const auto queries = data::uniform(90, 16, 1778);
  const float eps = data::calibrate_epsilon(data, 24.0).eps;

  EpsQuery eps_request;
  eps_request.points = MatrixF32(queries);
  eps_request.eps = eps;
  KnnQuery knn_request;
  knn_request.points = MatrixF32(queries);
  knn_request.k = 4;

  // Reference: engine-direct, flat pool, default (auto) kernel selection.
  QueryJoinOutput eps_expect;
  KnnBatchResult knn_expect;
  {
    ScopedTopology flat(1);
    eps_expect = reference::eps_reference(data, queries, eps);
    knn_expect = reference::knn_reference(data, queries, knn_request.k);
  }

  for (const std::size_t domains : {std::size_t{1}, std::size_t{2}}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
      for (const bool steal : {true, false}) {
        for (const std::string& selection : kernel_assignments()) {
          const std::string label =
              "domains=" + std::to_string(domains) +
              " shards=" + std::to_string(shards) +
              (steal ? " steal" : " no-steal") + " kernel=" + selection;
          ScopedTopology topo(domains);
          ScopedSteal steal_pin(steal);
          ShardedCorpusOptions opts;
          opts.shards = shards;
          JoinService svc(
              std::make_shared<ShardedCorpus>(MatrixF32(data), opts));
          // The selection flows the operator's way: through the schedule
          // (Schedule::kernel -> FastedConfig::rz_kernel -> KernelContext).
          tune::Schedule sched = svc.schedule();
          sched.kernel = selection;
          svc.set_schedule(sched);
          expect_same_eps(eps_expect, svc.eps_join(eps_request), label);
          const KnnBatchResult got = svc.knn(knn_request);
          for (std::size_t q = 0; q < queries.rows(); ++q) {
            for (std::size_t r = 0; r < knn_request.k; ++r) {
              ASSERT_EQ(got.id(q, r), knn_expect.id(q, r))
                  << label << " q " << q;
              ASSERT_EQ(std::bit_cast<std::uint32_t>(got.distance(q, r)),
                        std::bit_cast<std::uint32_t>(knn_expect.distance(q, r)))
                  << label << " q " << q;
            }
          }
          // The per-domain resolution the stats report must honor the
          // comma-list assignment (domain d gets token d mod list size).
          const ServiceStats stats = svc.stats();
          ASSERT_EQ(stats.domain_kernels.size(), stats.domain_loads.size())
              << label;
          // FASTED_RZ_KERNEL force-pins over any selection, so the exact
          // per-domain names are only asserted when it is unset (the
          // bit-exactness checks above hold either way).
          if (selection == "scalar" &&
              std::getenv("FASTED_RZ_KERNEL") == nullptr) {
            for (const std::string& k : stats.domain_kernels) {
              EXPECT_EQ(k, "scalar") << label;
            }
          }
          if (domains == 2 && selection != "scalar" &&
              selection != "auto" && std::getenv("FASTED_RZ_KERNEL") == nullptr) {
            ASSERT_EQ(stats.domain_kernels.size(), 2u) << label;
            EXPECT_EQ(stats.domain_kernels[0], "scalar") << label;
            EXPECT_EQ(stats.domain_kernels[1],
                      kernels::KernelRegistry::global().best().name)
                << label;
          }
        }
      }
    }
  }
}

TEST(HeteroKernel, CoalescedGatewayBitIdenticalAcrossKernelAssignments) {
  const auto data = data::uniform(380, 14, 1787);
  const float eps = data::calibrate_epsilon(data, 20.0).eps;
  constexpr std::size_t kClients = 4;

  // Per-client query batches and their flat-pool reference answers.
  std::vector<MatrixF32> client_queries;
  std::vector<QueryJoinOutput> expects(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    client_queries.push_back(data::uniform(40, 14, 1800 + c));
  }
  {
    ScopedTopology flat(1);
    for (std::size_t c = 0; c < kClients; ++c) {
      expects[c] = reference::eps_reference(data, client_queries[c], eps);
    }
  }

  for (const std::string& selection : kernel_assignments()) {
    ScopedTopology topo(2);
    ScopedSteal steal_pin(true);
    ShardedCorpusOptions opts;
    opts.shards = 3;
    auto svc = std::make_shared<JoinService>(
        std::make_shared<ShardedCorpus>(MatrixF32(data), opts));
    tune::Schedule sched = svc->schedule();
    sched.kernel = selection;
    svc->set_schedule(sched);

    serve::GatewayOptions gopts;
    gopts.window_max_requests = kClients;
    gopts.window_wait = std::chrono::microseconds(20000);
    serve::BatchGateway gateway(svc, gopts);

    std::vector<serve::BatchGateway::TicketPtr> tickets(kClients);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        EpsQuery request;
        request.points = MatrixF32(client_queries[c]);
        request.eps = eps;
        serve::BatchGateway::TicketPtr t;
        while ((t = gateway.try_submit(request)) == nullptr) {
          std::this_thread::yield();
        }
        t->wait();
        tickets[c] = std::move(t);
      });
    }
    for (std::thread& t : clients) t.join();

    for (std::size_t c = 0; c < kClients; ++c) {
      const auto& resp = tickets[c]->wait();
      ASSERT_EQ(resp.state, serve::RequestState::kDone)
          << selection << " client " << c << ": " << resp.error;
      expect_same_eps(expects[c], resp.eps,
                      "gateway kernel=" + selection + " client " +
                          std::to_string(c));
    }
  }
}

TEST(HeteroKernel, SelfJoinBitIdenticalAcrossKernelAssignments) {
  const auto data = data::uniform(350, 10, 1797);
  const float eps = data::calibrate_epsilon(data, 20.0).eps;

  JoinOutput expect;
  {
    ScopedTopology flat(1);
    FastedEngine engine;
    expect = engine.self_join(data, eps);
  }

  ScopedTopology topo(2);
  for (const bool steal : {true, false}) {
    ScopedSteal steal_pin(steal);
    const PreparedShards set = prepare_shards(data, 3);
    for (const std::string& selection : kernel_assignments()) {
      FastedConfig cfg = FastedConfig::paper_defaults();
      cfg.rz_kernel = selection;
      FastedEngine engine(cfg);
      const JoinOutput got = engine.self_join(set.span(), eps);
      ASSERT_EQ(got.pair_count, expect.pair_count) << selection;
      EXPECT_EQ(got.result.offsets(), expect.result.offsets()) << selection;
      EXPECT_EQ(got.result.neighbors(), expect.result.neighbors()) << selection;
    }
  }
}

TEST(HeteroKernel, ConcurrentServicesWithDifferentKernelsDoNotInterfere) {
  // The regression the KernelContext refactor exists for: with the old
  // mutable process-global override, one service pinning scalar while a
  // neighbor served on the SIMD kernel was a data race AND could flip the
  // neighbor's kernel mid-join.  Contexts are per-join values now, so two
  // services with different selections serving concurrently on the shared
  // pool must each keep producing their own (identical) exact results.
  const auto data = data::uniform(300, 12, 1807);
  const auto queries = data::uniform(50, 12, 1808);
  const float eps = data::calibrate_epsilon(data, 20.0).eps;

  EpsQuery request;
  request.points = MatrixF32(queries);
  request.eps = eps;

  QueryJoinOutput expect;
  {
    ScopedTopology flat(1);
    expect = reference::eps_reference(data, queries, eps);
  }

  ScopedTopology topo(2);
  const auto make_service = [&](const std::string& selection) {
    FastedConfig cfg = FastedConfig::paper_defaults();
    cfg.rz_kernel = selection;
    return std::make_shared<JoinService>(
        std::make_shared<ShardedCorpus>(MatrixF32(data)), FastedEngine(cfg));
  };
  auto scalar_svc = make_service("scalar");
  auto best_svc = make_service("auto");

  constexpr int kIters = 8;
  std::vector<std::thread> workers;
  for (const auto& svc : {scalar_svc, best_svc}) {
    workers.emplace_back([&, svc] {
      for (int i = 0; i < kIters; ++i) {
        EpsQuery local;
        local.points = MatrixF32(queries);
        local.eps = eps;
        const QueryJoinOutput got = svc->eps_join(local);
        expect_same_eps(expect, got, "concurrent iter " + std::to_string(i));
      }
    });
  }
  for (std::thread& t : workers) t.join();

  // Each service still reports ITS OWN selection afterward.
  ASSERT_FALSE(scalar_svc->stats().domain_kernels.empty());
  if (std::getenv("FASTED_RZ_KERNEL") == nullptr) {
    for (const std::string& k : scalar_svc->stats().domain_kernels) {
      EXPECT_EQ(k, "scalar");
    }
  }
}

}  // namespace
}  // namespace fasted::service
