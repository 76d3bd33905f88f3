#include "service/join_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "../service_reference.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "core/kernels/merging_sink.hpp"
#include "data/calibrate.hpp"
#include "data/generators.hpp"

namespace fasted::service {
namespace {

// An undivided resident corpus: one shard.
std::shared_ptr<ShardedCorpus> make_corpus(const MatrixF32& corpus) {
  return std::make_shared<ShardedCorpus>(MatrixF32(corpus));
}

// Acceptance: an EpsQuery batch whose query set equals the corpus
// reproduces self_join bit-exactly — same pair count, same neighbor lists.
TEST(JoinService, EpsBatchEqualToCorpusReproducesSelfJoin) {
  const auto data = data::uniform(400, 16, 51);
  const float eps = data::calibrate_epsilon(data, 48.0).eps;

  FastedEngine engine;
  const auto self = engine.self_join(data, eps);

  JoinService svc(make_corpus(data), engine);
  EpsQuery request;
  request.points = data;
  request.eps = eps;
  const auto out = svc.eps_join(request);

  ASSERT_EQ(out.pair_count, self.pair_count);
  ASSERT_EQ(out.result.num_queries(), self.result.num_points());
  for (std::size_t i = 0; i < data.rows(); ++i) {
    const auto expect = self.result.neighbors_of(i);
    const auto got = out.result.matches_of(i);
    ASSERT_EQ(got.size(), expect.size()) << i;
    for (std::size_t r = 0; r < expect.size(); ++r) {
      EXPECT_EQ(got[r].id, expect[r]) << "query " << i << " rank " << r;
    }
  }
}

TEST(JoinService, EmulatedPathReproducesSelfJoinToo) {
  const auto data = data::uniform(180, 8, 52);
  const float eps = 0.6f;
  FastedEngine engine;
  const auto self = engine.self_join(data, eps);

  JoinService svc(make_corpus(data), engine);
  EpsQuery request;
  request.points = data;
  request.eps = eps;
  request.path = ExecutionPath::kEmulated;
  const auto out = svc.eps_join(request);
  EXPECT_EQ(out.pair_count, self.pair_count);
}

TEST(JoinService, CalibratedEpsQueryUsesSessionCache) {
  const auto data = data::uniform(300, 8, 53);
  JoinService svc(make_corpus(data));

  EpsQuery request;
  request.points = data;
  request.eps = -1.0f;  // calibrate
  request.selectivity = 32.0;
  const auto out1 = svc.eps_join(request);
  const auto out2 = svc.eps_join(request);
  EXPECT_EQ(out1.pair_count, out2.pair_count);

  const auto stats = svc.sharded().stats();
  EXPECT_EQ(stats.calibration_misses, 1u);
  EXPECT_GE(stats.calibration_hits, 1u);
}

TEST(JoinService, StreamingCallbackMatchesCsrResult) {
  const auto corpus = data::uniform(350, 8, 54);
  const auto queries = data::uniform(140, 8, 55);
  JoinService svc(make_corpus(corpus));

  EpsQuery request;
  request.points = queries;
  request.eps = 0.7f;
  const auto batched = svc.eps_join(request);

  std::vector<int> calls(queries.rows(), 0);
  std::vector<std::vector<QueryMatch>> streamed(queries.rows());
  const auto out = svc.eps_join(request, [&](std::size_t q,
                                             std::span<const QueryMatch> m) {
    ++calls[q];
    streamed[q].assign(m.begin(), m.end());
  });

  EXPECT_EQ(out.pair_count, batched.pair_count);
  for (std::size_t i = 0; i < queries.rows(); ++i) {
    ASSERT_EQ(calls[i], 1) << i;
    const auto expect = batched.result.matches_of(i);
    ASSERT_EQ(streamed[i].size(), expect.size()) << i;
    for (std::size_t r = 0; r < expect.size(); ++r) {
      EXPECT_EQ(streamed[i][r].id, expect[r].id) << i;
      EXPECT_EQ(streamed[i][r].dist2, expect[r].dist2) << i;
    }
  }
}

// The callback runs on the streaming sink's consumer thread; an exception
// it throws must reach the caller, not end the process from that thread,
// and must leave the service serving.  The batch spans more query strips
// than the delivery ring holds, so the join only completes if the consumer
// keeps draining after the throw.
TEST(JoinService, ThrowingStreamCallbackPropagatesAndServiceRecovers) {
  struct CallbackFailure {};
  const auto corpus = data::uniform(64, 8, 74);
  const std::size_t strips = kernels::kDefaultStripRingCapacity + 6;
  const auto queries = data::uniform(
      strips * static_cast<std::size_t>(
                   FastedConfig::paper_defaults().block_tile_m),
      8, 75);
  JoinService svc(make_corpus(corpus));

  EpsQuery request;
  request.points = queries;
  request.eps = 0.7f;
  bool thrown = false;
  bool called_after_throw = false;
  EXPECT_THROW(
      svc.eps_join(request,
                   [&](std::size_t q, std::span<const QueryMatch>) {
                     if (thrown) called_after_throw = true;
                     if (q == 3) {
                       thrown = true;
                       throw CallbackFailure{};
                     }
                   }),
      CallbackFailure);
  EXPECT_TRUE(thrown);
  EXPECT_FALSE(called_after_throw);

  const auto batched = svc.eps_join(request);
  const auto expect =
      reference::eps_reference(corpus, queries, request.eps);
  ASSERT_EQ(batched.pair_count, expect.pair_count);
  EXPECT_EQ(batched.result.offsets(), expect.result.offsets());

  std::vector<int> calls(queries.rows(), 0);
  std::uint64_t streamed = 0;
  const auto out = svc.eps_join(
      request, [&](std::size_t q, std::span<const QueryMatch> m) {
        ++calls[q];
        const auto want = expect.result.matches_of(q);
        ASSERT_EQ(m.size(), want.size()) << q;
        for (std::size_t r = 0; r < m.size(); ++r) {
          ASSERT_EQ(m[r].id, want[r].id) << q;
        }
        streamed += m.size();
      });
  EXPECT_EQ(out.pair_count, expect.pair_count);
  EXPECT_EQ(streamed, expect.pair_count);
  EXPECT_TRUE(std::all_of(calls.begin(), calls.end(),
                          [](int c) { return c == 1; }));
}

// Acceptance: KnnQuery results match a brute-force reference of the FP32
// pipeline distance on small inputs (distance ascending, ties by id).
TEST(JoinService, KnnMatchesBruteForceReference) {
  const auto corpus = data::uniform(120, 8, 56);
  const auto queries = data::uniform(30, 8, 57);
  const std::size_t k = 4;

  JoinService svc(make_corpus(corpus));
  KnnQuery request;
  request.points = queries;
  request.k = k;
  const auto got = svc.knn(request);

  const PreparedDataset pq(queries);
  const PreparedDataset pc(corpus);
  for (std::size_t i = 0; i < queries.rows(); ++i) {
    std::vector<QueryMatch> all;
    query_row_join(pq.values().row(i), pq.norms()[i], pc.values(), pc.norms(),
                   0, pc.rows(), std::numeric_limits<float>::infinity(), all);
    std::sort(all.begin(), all.end(), [](const QueryMatch& a,
                                         const QueryMatch& b) {
      return a.dist2 != b.dist2 ? a.dist2 < b.dist2 : a.id < b.id;
    });
    for (std::size_t r = 0; r < k; ++r) {
      EXPECT_EQ(got.id(i, r), all[r].id) << "query " << i << " rank " << r;
      EXPECT_EQ(got.distance(i, r),
                std::sqrt(std::max(0.0f, all[r].dist2)))
          << "query " << i << " rank " << r;
    }
  }
}

TEST(JoinService, KnnTinyRadiusStartConvergesViaAdaptiveRounds) {
  const auto corpus = data::uniform(200, 8, 58);
  const auto queries = data::uniform(25, 8, 59);
  JoinService svc(make_corpus(corpus));

  KnnQuery request;
  request.points = queries;
  request.k = 6;
  KnnOptions opts;
  opts.initial_growth = 0.02;  // deliberately far too small
  const auto got = svc.knn(request, opts);
  EXPECT_GE(got.rounds, 1);
  for (std::size_t i = 0; i < queries.rows(); ++i) {
    for (std::size_t r = 1; r < 6; ++r) {
      EXPECT_LE(got.distance(i, r - 1), got.distance(i, r)) << i;
    }
  }
}

TEST(JoinService, KnnKEqualsCorpusSizeRanksEverything) {
  const auto corpus = data::uniform(40, 8, 60);
  const auto queries = data::uniform(5, 8, 61);
  JoinService svc(make_corpus(corpus));
  KnnQuery request;
  request.points = queries;
  request.k = 40;
  const auto got = svc.knn(request);
  for (std::size_t i = 0; i < queries.rows(); ++i) {
    std::vector<bool> seen(40, false);
    for (std::size_t r = 0; r < 40; ++r) seen[got.id(i, r)] = true;
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                            [](bool b) { return b; }))
        << i;
  }
}

TEST(JoinService, KnnCorpusMatchesExplicitSelfBatch) {
  const auto corpus = data::uniform(150, 8, 67);
  JoinService svc(make_corpus(corpus));

  KnnQuery request;
  request.points = corpus;
  request.k = 5;
  const auto explicit_batch = svc.knn(request);
  const auto resident = svc.knn_corpus(5);

  ASSERT_EQ(resident.k, explicit_batch.k);
  EXPECT_EQ(resident.rounds, explicit_batch.rounds);
  for (std::size_t i = 0; i < corpus.rows(); ++i) {
    for (std::size_t r = 0; r < 5; ++r) {
      EXPECT_EQ(resident.id(i, r), explicit_batch.id(i, r)) << i;
      EXPECT_EQ(resident.distance(i, r), explicit_batch.distance(i, r)) << i;
    }
  }
}

TEST(JoinService, ConcurrentRequestsAreAdmittedSafely) {
  // Requests from many threads queue on the serve mutex; every caller gets
  // the same answer as a serial run.
  const auto corpus = data::uniform(200, 8, 68);
  const auto queries = data::uniform(40, 8, 69);
  JoinService svc(make_corpus(corpus));

  EpsQuery request;
  request.points = queries;
  request.eps = 0.7f;
  const auto expect = svc.eps_join(request).pair_count;

  std::vector<std::thread> threads;
  std::vector<std::uint64_t> counts(6, 0);
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      counts[static_cast<std::size_t>(t)] = svc.eps_join(request).pair_count;
    });
  }
  for (auto& th : threads) th.join();
  for (const auto c : counts) EXPECT_EQ(c, expect);
  EXPECT_EQ(svc.stats().eps_batches, 7u);
}

TEST(JoinService, StatsAccumulateAcrossBatches) {
  const auto corpus = data::uniform(150, 8, 62);
  const auto queries = data::uniform(60, 8, 63);
  JoinService svc(make_corpus(corpus));

  EpsQuery eq;
  eq.points = queries;
  eq.eps = 0.7f;
  const auto out = svc.eps_join(eq);
  KnnQuery kq;
  kq.points = queries;
  kq.k = 3;
  svc.knn(kq);

  const auto stats = svc.stats();
  EXPECT_EQ(stats.eps_batches, 1u);
  EXPECT_EQ(stats.knn_batches, 1u);
  EXPECT_EQ(stats.queries, 120u);
  EXPECT_EQ(stats.pairs, out.pair_count);
}

// Regression for the double-attribution bug: domain-load tallies are
// deltas since service construction, so two services sharing the global
// pool never report each other's tiles.
TEST(JoinService, DomainLoadsAreScopedToTheService) {
  class ScopedTopology {
   public:
    explicit ScopedTopology(std::size_t domains) {
      const Topology topo = Topology::synthetic(domains);
      ThreadPool::reset_global(4, &topo);
    }
    ~ScopedTopology() { ThreadPool::reset_global(); }
  } topo(2);

  const auto data = data::uniform(700, 8, 70);
  const auto queries = data::uniform(24, 8, 71);
  const float eps = data::calibrate_epsilon(data, 20.0).eps;
  ShardedCorpusOptions opts;
  opts.shards = 4;
  auto corpus = std::make_shared<ShardedCorpus>(MatrixF32(data), opts);

  EpsQuery request;
  request.points = MatrixF32(queries);
  request.eps = eps;

  const auto total_tiles = [](const ServiceStats& stats) {
    std::uint64_t tiles = 0;
    for (const auto& load : stats.domain_loads) {
      tiles += load.tiles_drained + load.tiles_stolen;
    }
    return tiles;
  };

  JoinService first(corpus);
  first.eps_join(request);
  const std::uint64_t first_tiles = total_tiles(first.stats());
  EXPECT_GT(first_tiles, 0u);

  // A second service on the same pool starts from zero — the first
  // service's tiles must not leak into its stats.
  JoinService second(corpus);
  EXPECT_EQ(total_tiles(second.stats()), 0u);

  second.eps_join(request);
  const std::uint64_t second_tiles = total_tiles(second.stats());
  EXPECT_GT(second_tiles, 0u);
  // The first service's window covers both joins; the tallies must add up
  // exactly (same pool counters, different baselines).
  EXPECT_EQ(total_tiles(first.stats()), first_tiles + second_tiles);
}

TEST(JoinService, PhaseLatenciesPopulateWithNonZeroQuantiles) {
  const auto corpus = data::uniform(200, 8, 72);
  const auto queries = data::uniform(50, 8, 73);
  JoinService svc(make_corpus(corpus));

  EpsQuery eq;
  eq.points = queries;
  eq.eps = 0.7f;
  svc.eps_join(eq);
  KnnQuery kq;
  kq.points = queries;
  kq.k = 3;
  svc.knn(kq);

  const auto stats = svc.stats();
  const auto find = [&](const char* phase) -> const PhaseLatency* {
    for (const auto& p : stats.phase_latencies) {
      if (std::strcmp(p.phase, phase) == 0) return &p;
    }
    return nullptr;
  };

  const PhaseLatency* drain = find("eps_drain");
  ASSERT_NE(drain, nullptr);
  EXPECT_GE(drain->count, 1u);
  EXPECT_GT(drain->p50_ns, 0u);
  EXPECT_GE(drain->p95_ns, drain->p50_ns);
  EXPECT_GE(drain->p99_ns, drain->p95_ns);
  EXPECT_GE(drain->max_ns, drain->p99_ns);

  const PhaseLatency* round = find("knn_round");
  ASSERT_NE(round, nullptr);
  EXPECT_GE(round->count, 1u);
  EXPECT_GT(round->p50_ns, 0u);

  const PhaseLatency* wait = find("admission_wait");
  ASSERT_NE(wait, nullptr);
  EXPECT_GE(wait->count, 2u);  // one eps batch + one knn batch

  // Phases this service never exercised are omitted, not zero-filled.
  EXPECT_EQ(find("stream_deliver"), nullptr);

  // The JSON export carries the same phases.
  const std::string json = svc.stats_json();
  EXPECT_NE(json.find("\"eps_drain\""), std::string::npos);
  EXPECT_NE(json.find("\"p95_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"domain_loads\""), std::string::npos);
}

// Regime retune: a corpus-size drift past the configured factor swaps the
// engine for the model-predicted best schedule at the new scale — inline,
// model-only, results unchanged, counted in stats.
TEST(JoinService, RegimeRetuneFiresOnCorpusGrowthOnly) {
  const auto seed_rows = data::uniform(200, 8, 71);
  const auto growth = data::uniform(800, 8, 72);
  const auto queries = data::uniform(40, 8, 73);

  ShardedCorpusOptions opts;
  opts.shards = 2;
  auto corpus = std::make_shared<ShardedCorpus>(MatrixF32(seed_rows), opts);
  JoinService svc(corpus);
  svc.enable_regime_retune(true, /*factor=*/2.0);

  EpsQuery eq;
  eq.points = queries;
  eq.eps = 0.7f;
  svc.eps_join(eq);
  EXPECT_EQ(svc.stats().schedule_retunes, 0u) << "no drift yet";

  corpus->append(growth);  // 200 -> 1000 rows: 5x > factor 2x
  const std::size_t shards_before = corpus->shard_infos().size();
  const auto retuned = svc.eps_join(eq);
  EXPECT_EQ(svc.stats().schedule_retunes, 1u);
  // The retuned schedule still targets the service's base config and must
  // not have touched the physical sharding (capacity changes need an
  // explicit set_schedule with rechunk).
  EXPECT_TRUE(svc.schedule().valid(FastedConfig::paper_defaults()));
  EXPECT_EQ(corpus->shard_infos().size(), shards_before);

  // Steady state at the new regime: no further retunes.
  svc.eps_join(eq);
  EXPECT_EQ(svc.stats().schedule_retunes, 1u);

  // Results on the retuned engine match a fresh default-schedule service.
  MatrixF32 all(seed_rows.rows() + growth.rows(), seed_rows.dims());
  std::memcpy(all.row(0), seed_rows.row(0),
              seed_rows.rows() * seed_rows.stride() * sizeof(float));
  std::memcpy(all.row(seed_rows.rows()), growth.row(0),
              growth.rows() * growth.stride() * sizeof(float));
  JoinService fresh(make_corpus(all));
  const auto expect = fresh.eps_join(eq);
  ASSERT_EQ(retuned.pair_count, expect.pair_count);
  for (std::size_t q = 0; q < expect.result.num_queries(); ++q) {
    const auto a = expect.result.matches_of(q);
    const auto b = retuned.result.matches_of(q);
    ASSERT_EQ(b.size(), a.size()) << "query " << q;
    for (std::size_t r = 0; r < a.size(); ++r) {
      EXPECT_EQ(b[r].id, a[r].id) << "query " << q;
    }
  }
}

TEST(JoinService, RejectsBadRequests) {
  const auto corpus = data::uniform(50, 8, 64);
  JoinService svc(make_corpus(corpus));

  EpsQuery empty;
  empty.points = MatrixF32(0, 8);
  EXPECT_THROW(svc.eps_join(empty), CheckError);

  EpsQuery mismatch;
  mismatch.points = data::uniform(10, 4, 65);
  mismatch.eps = 0.5f;
  EXPECT_THROW(svc.eps_join(mismatch), CheckError);

  KnnQuery bad_k;
  bad_k.points = data::uniform(10, 8, 66);
  bad_k.k = 51;  // > corpus size
  EXPECT_THROW(svc.knn(bad_k), CheckError);
  bad_k.k = 0;
  EXPECT_THROW(svc.knn(bad_k), CheckError);

  EXPECT_THROW(JoinService(std::shared_ptr<ShardedCorpus>()), CheckError);
}

}  // namespace
}  // namespace fasted::service
