// Corpus lifecycle: snapshot-consistent deletes, compaction (re-chunking +
// physical tombstone drops), and domain migration — all property-tested
// against the merge invariant: per-row artifacts depend only on the row, so
// any re-chunking / renumbering / placement of the SURVIVING rows yields
// eps/knn results bit-identical to the engine-direct references
// (service_reference.hpp) over exactly those rows.
//
// Also here: the append/steal hardening satellites — the exact-capacity
// seal-boundary regression and the concurrent append/erase/serve/stats
// stress (run under the CI sanitize job's FASTED_TOPOLOGY=2x2).

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "../service_reference.hpp"
#include "common/parallel.hpp"
#include "common/topology.hpp"
#include "data/calibrate.hpp"
#include "data/generators.hpp"
#include "service/join_service.hpp"

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

std::vector<std::uint32_t> every_kth(std::size_t n, std::size_t k) {
  std::vector<std::uint32_t> ids;
  for (std::size_t i = 0; i < n; i += k) {
    ids.push_back(static_cast<std::uint32_t>(i));
  }
  return ids;
}

MatrixF32 remove_rows(const MatrixF32& data,
                      const std::vector<std::uint32_t>& dead) {
  std::vector<char> is_dead(data.rows(), 0);
  for (const std::uint32_t id : dead) is_dead[id] = 1;
  MatrixF32 out(data.rows() - dead.size(), data.dims());
  std::size_t w = 0;
  for (std::size_t i = 0; i < data.rows(); ++i) {
    if (is_dead[i]) continue;
    std::copy_n(data.row(i), data.stride(), out.row(w++));
  }
  return out;
}

// Old-id list of the rows surviving `dead` (ascending) — maps post-removal
// (or post-compaction) ids back to pre-delete global ids.
std::vector<std::uint32_t> survivor_ids(std::size_t n,
                                        const std::vector<std::uint32_t>& dead) {
  std::vector<char> is_dead(n, 0);
  for (const std::uint32_t id : dead) is_dead[id] = 1;
  std::vector<std::uint32_t> survivors;
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_dead[i]) survivors.push_back(static_cast<std::uint32_t>(i));
  }
  return survivors;
}

// got (ids in pre-delete global space) must equal expect (ids in the
// survivors-only space), row for row, bit for bit.
void expect_eps_equal_remapped(const QueryJoinOutput& expect,
                               const QueryJoinOutput& got,
                               const std::vector<std::uint32_t>& survivors,
                               const std::string& label) {
  ASSERT_EQ(got.pair_count, expect.pair_count) << label;
  ASSERT_EQ(got.result.num_queries(), expect.result.num_queries()) << label;
  for (std::size_t q = 0; q < expect.result.num_queries(); ++q) {
    const auto a = expect.result.matches_of(q);
    const auto b = got.result.matches_of(q);
    ASSERT_EQ(b.size(), a.size()) << label << " query " << q;
    for (std::size_t r = 0; r < a.size(); ++r) {
      ASSERT_EQ(b[r].id, survivors[a[r].id]) << label << " query " << q;
      ASSERT_EQ(std::bit_cast<std::uint32_t>(b[r].dist2),
                std::bit_cast<std::uint32_t>(a[r].dist2))
          << label << " query " << q;
    }
  }
}

void expect_knn_equal_remapped(const KnnBatchResult& expect,
                               const KnnBatchResult& got, std::size_t nq,
                               std::size_t k,
                               const std::vector<std::uint32_t>& survivors,
                               const std::string& label) {
  for (std::size_t q = 0; q < nq; ++q) {
    for (std::size_t r = 0; r < k; ++r) {
      ASSERT_EQ(got.id(q, r), survivors[expect.id(q, r)])
          << label << " q " << q << " r " << r;
      ASSERT_EQ(std::bit_cast<std::uint32_t>(got.distance(q, r)),
                std::bit_cast<std::uint32_t>(expect.distance(q, r)))
          << label << " q " << q << " r " << r;
    }
  }
}

TEST(CorpusLifecycle, EraseFiltersMatchesBitExactly) {
  const auto data = data::uniform(360, 12, 900);
  const auto queries = data::uniform(70, 12, 901);
  const float eps = data::calibrate_epsilon(data, 24.0).eps;
  const auto dead = every_kth(data.rows(), 6);
  const auto survivors = survivor_ids(data.rows(), dead);

  EpsQuery request;
  request.points = MatrixF32(queries);
  request.eps = eps;

  // Reference: the dead rows physically never existed.
  const MatrixF32 kept = remove_rows(data, dead);
  const QueryJoinOutput expect = reference::eps_reference(kept, queries, eps);

  ShardedCorpusOptions opts;
  opts.shards = 3;
  auto corpus = std::make_shared<ShardedCorpus>(MatrixF32(data), opts);
  EXPECT_EQ(corpus->erase(dead), dead.size());
  EXPECT_EQ(corpus->alive(), survivors.size());
  EXPECT_EQ(corpus->size(), data.rows());  // ids keep their places

  JoinService svc(corpus);
  expect_eps_equal_remapped(expect, svc.eps_join(request), survivors,
                            "tombstoned");

  // The streaming path filters identically (matches delivered per query).
  std::vector<std::vector<QueryMatch>> streamed(queries.rows());
  const auto streaming_out = svc.eps_join(
      request, [&](std::size_t q, std::span<const QueryMatch> matches) {
        streamed[q].assign(matches.begin(), matches.end());
      });
  ASSERT_EQ(streaming_out.pair_count, expect.pair_count);
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    const auto a = expect.result.matches_of(q);
    ASSERT_EQ(streamed[q].size(), a.size()) << q;
    for (std::size_t r = 0; r < a.size(); ++r) {
      ASSERT_EQ(streamed[q][r].id, survivors[a[r].id]) << q;
      ASSERT_EQ(std::bit_cast<std::uint32_t>(streamed[q][r].dist2),
                std::bit_cast<std::uint32_t>(a[r].dist2))
          << q;
    }
  }

  // kNN never returns a dead row either.
  KnnQuery knn_request;
  knn_request.points = MatrixF32(queries);
  knn_request.k = 5;
  const KnnBatchResult knn_expect =
      reference::knn_reference(kept, queries, knn_request.k);
  expect_knn_equal_remapped(knn_expect, svc.knn(knn_request), queries.rows(),
                            knn_request.k, survivors, "tombstoned knn");

  const auto stats = svc.stats();
  EXPECT_GT(stats.pairs_tombstoned, 0u);
}

TEST(CorpusLifecycle, EraseIsSnapshotConsistentAndIdempotent) {
  const auto data = data::uniform(200, 8, 910);
  ShardedCorpusOptions opts;
  opts.shards = 2;
  ShardedCorpus corpus(MatrixF32(data), opts);

  // Pin a snapshot BEFORE the delete: its masks must stay empty.
  const auto pinned = corpus.snapshot();
  EXPECT_FALSE(ShardedCorpus::tombstone_filter(*pinned).any());

  const std::vector<std::uint32_t> dead = {3, 50, 120, 121, 199};
  EXPECT_EQ(corpus.erase(dead), dead.size());
  EXPECT_EQ(corpus.erase(dead), 0u);  // re-erasing is a no-op
  EXPECT_EQ(corpus.alive(), data.rows() - dead.size());

  EXPECT_FALSE(ShardedCorpus::tombstone_filter(*pinned).any());
  EXPECT_EQ(ShardedCorpus::alive_rows(*pinned), data.rows());
  const auto now = corpus.snapshot();
  const auto filter = ShardedCorpus::tombstone_filter(*now);
  EXPECT_TRUE(filter.any());
  EXPECT_EQ(filter.dead_count(), dead.size());
  for (const std::uint32_t id : dead) EXPECT_TRUE(filter.dead(id)) << id;
  EXPECT_FALSE(filter.dead(0));
  EXPECT_FALSE(filter.dead(198));

  // Shard objects themselves are shared between the snapshots: deletes are
  // slot state, not shard state.
  ASSERT_EQ(pinned->size(), now->size());
  for (std::size_t s = 0; s < pinned->size(); ++s) {
    EXPECT_EQ((*pinned)[s].shard.get(), (*now)[s].shard.get()) << s;
  }

  const auto stats = corpus.stats();
  EXPECT_EQ(stats.erases, 1u);
  EXPECT_EQ(stats.rows_erased, dead.size());
}

TEST(CorpusLifecycle, CompactRechunksWithoutDeletesPreservingResults) {
  const auto data = data::uniform(330, 10, 920);
  const auto queries = data::uniform(50, 10, 921);
  const float eps = data::calibrate_epsilon(data, 20.0).eps;

  EpsQuery request;
  request.points = MatrixF32(queries);
  request.eps = eps;

  ShardedCorpusOptions opts;
  opts.shard_capacity = 60;  // 5 sealed shards + a 30-row open tail
  auto corpus = std::make_shared<ShardedCorpus>(MatrixF32(data), opts);
  JoinService svc(corpus);
  const QueryJoinOutput expect = svc.eps_join(request);

  // Same capacity, no tombstones: every chunk aligns — full pointer reuse.
  {
    const auto before = corpus->snapshot();
    const auto report = corpus->compact();
    EXPECT_EQ(report.shards_rebuilt, 0u);
    EXPECT_EQ(report.rows_dropped, 0u);
    EXPECT_EQ(report.shards_before, report.shards_after);
    const auto after = corpus->snapshot();
    ASSERT_EQ(before->size(), after->size());
    for (std::size_t s = 0; s < before->size(); ++s) {
      EXPECT_EQ((*before)[s].shard.get(), (*after)[s].shard.get()) << s;
    }
  }

  // Split to a smaller capacity, then merge to a bigger one: results must
  // be bit-identical both times (pure re-chunking).
  CompactOptions split;
  split.shard_capacity = 25;
  const auto split_report = corpus->compact(split);
  EXPECT_EQ(split_report.shards_after, (data.rows() + 24) / 25);
  EXPECT_EQ(corpus->shard_capacity(), 25u);
  auto got = svc.eps_join(request);
  ASSERT_EQ(got.shard_pairs.size(), split_report.shards_after);
  expect_eps_equal_remapped(expect, got,
                            survivor_ids(data.rows(), {}), "split to 25");

  CompactOptions merge;
  merge.shard_capacity = 150;
  const auto merge_report = corpus->compact(merge);
  EXPECT_EQ(merge_report.shards_after, (data.rows() + 149) / 150);
  expect_eps_equal_remapped(expect, svc.eps_join(request),
                            survivor_ids(data.rows(), {}), "merge to 150");

  EXPECT_EQ(corpus->stats().compactions, 3u);
}

TEST(CorpusLifecycle, CompactDropsTombstonesAndRenumbersSurvivors) {
  const auto data = data::uniform(300, 9, 930);
  const auto queries = data::uniform(40, 9, 931);
  const float eps = data::calibrate_epsilon(data, 18.0).eps;
  const auto dead = every_kth(data.rows(), 4);

  EpsQuery request;
  request.points = MatrixF32(queries);
  request.eps = eps;
  KnnQuery knn_request;
  knn_request.points = MatrixF32(queries);
  knn_request.k = 4;

  // Reference: exactly the surviving rows — after a full-drop compaction
  // the renumbered sharded corpus must MATCH IT DIRECTLY (ids and all), no
  // remap.
  const MatrixF32 kept = remove_rows(data, dead);
  const QueryJoinOutput expect = reference::eps_reference(kept, queries, eps);
  const KnnBatchResult knn_expect =
      reference::knn_reference(kept, queries, knn_request.k);

  ShardedCorpusOptions opts;
  opts.shards = 3;
  auto corpus = std::make_shared<ShardedCorpus>(MatrixF32(data), opts);
  corpus->erase(dead);
  CompactOptions drop_all;
  drop_all.dead_fraction = 0.0;
  const auto report = corpus->compact(drop_all);
  EXPECT_EQ(report.rows_dropped, dead.size());
  EXPECT_EQ(corpus->size(), data.rows() - dead.size());
  EXPECT_EQ(corpus->alive(), corpus->size());
  for (const auto& info : corpus->shard_infos()) EXPECT_EQ(info.dead, 0u);

  JoinService svc(corpus);
  const std::vector<std::uint32_t> identity =
      survivor_ids(corpus->size(), {});
  expect_eps_equal_remapped(expect, svc.eps_join(request), identity,
                            "compacted");
  expect_knn_equal_remapped(knn_expect, svc.knn(knn_request), queries.rows(),
                            knn_request.k, identity, "compacted knn");
}

TEST(CorpusLifecycle, CompactDeadFractionThresholdKeepsLightShardsMasked) {
  const auto data = data::uniform(200, 8, 940);
  ShardedCorpusOptions opts;
  opts.shard_capacity = 100;  // shards [0,100) and [100,200)
  ShardedCorpus corpus(MatrixF32(data), opts);

  // Shard 0: 50% dead (over threshold).  Shard 1: one dead row (under).
  std::vector<std::uint32_t> dead;
  for (std::uint32_t i = 0; i < 100; i += 2) dead.push_back(i);
  dead.push_back(150);
  corpus.erase(dead);

  CompactOptions copts;
  copts.dead_fraction = 0.3;
  const auto report = corpus.compact(copts);
  EXPECT_EQ(report.rows_dropped, 50u);
  EXPECT_EQ(corpus.size(), 150u);        // shard 0 halved, shard 1 intact
  EXPECT_EQ(corpus.alive(), 149u);       // row 150's tombstone survives

  // The kept tombstone moved with its row: old id 150 is now 100.
  const auto filter = ShardedCorpus::tombstone_filter(*corpus.snapshot());
  EXPECT_EQ(filter.dead_count(), 1u);
  EXPECT_TRUE(filter.dead(100));
}

TEST(CorpusLifecycle, AppendAtExactCapacitySealsCleanly) {
  // Seal-boundary regression: an append whose LAST chunk lands exactly on
  // shard_capacity must seal that shard and not create an empty open shard
  // or extend the freshly sealed one on the next append.
  const auto data = data::uniform(260, 8, 950);
  ShardedCorpusOptions opts;
  opts.shard_capacity = 100;
  ShardedCorpus corpus(row_slice(data, 0, 50), opts);

  corpus.append(row_slice(data, 50, 100));  // have + take == capacity
  {
    const auto infos = corpus.shard_infos();
    ASSERT_EQ(infos.size(), 1u);
    EXPECT_EQ(infos[0].rows, 100u);
    EXPECT_TRUE(infos[0].sealed);
    EXPECT_EQ(corpus.size(), 100u);
  }

  const auto sealed_shard = (*corpus.snapshot())[0].shard;
  corpus.append(row_slice(data, 100, 110));  // must OPEN, not extend
  {
    const auto snap = corpus.snapshot();
    ASSERT_EQ(snap->size(), 2u);
    EXPECT_EQ((*snap)[0].shard.get(), sealed_shard.get());  // untouched
    EXPECT_EQ((*snap)[1].shard->base, 100u);
    EXPECT_EQ((*snap)[1].shard->rows(), 10u);
    EXPECT_FALSE((*snap)[1].shard->sealed);
  }

  // Multi-chunk append crossing two boundaries exactly: 90 to seal shard 1,
  // 100 more to fill and seal shard 2, nothing left over.
  corpus.append(row_slice(data, 110, 260));
  {
    const auto infos = corpus.shard_infos();
    ASSERT_EQ(infos.size(), 3u);
    for (const auto& info : infos) {
      EXPECT_GT(info.rows, 0u);  // never an empty shard
    }
    EXPECT_TRUE(infos[1].sealed);
    EXPECT_EQ(infos[2].rows, 60u);
    EXPECT_FALSE(infos[2].sealed);
    EXPECT_EQ(corpus.size(), 260u);
  }

  const auto stats = corpus.stats();
  EXPECT_EQ(stats.shards_sealed, 2u);
  // Row content stayed ingestion-ordered across all the boundary cases.
  const auto snap = corpus.snapshot();
  for (const auto& slot : *snap) {
    for (std::size_t i = 0; i < slot.shard->rows(); ++i) {
      ASSERT_EQ(slot.shard->points.at(i, 0),
                data.at(slot.shard->base + i, 0));
    }
  }
}

TEST(CorpusLifecycle, MigratePreservesResultsGenerationAndCalibration) {
  ScopedTopology topo(2);
  const auto data = data::uniform(240, 10, 960);
  const auto queries = data::uniform(40, 10, 961);
  const float eps = data::calibrate_epsilon(data, 16.0).eps;

  EpsQuery request;
  request.points = MatrixF32(queries);
  request.eps = eps;

  ShardedCorpusOptions opts;
  opts.shards = 3;
  auto corpus = std::make_shared<ShardedCorpus>(MatrixF32(data), opts);
  JoinService svc(corpus);
  const QueryJoinOutput expect = svc.eps_join(request);
  const float calibrated = corpus->eps_for_selectivity(12.0);
  const auto blocks_before = corpus->stats().calibration_blocks_built;
  const auto gen_before = corpus->shard_infos()[0].generation;

  corpus->migrate(0, 1);

  const auto infos = corpus->shard_infos();
  EXPECT_EQ(infos[0].domain, 1u);
  EXPECT_EQ(infos[0].generation, gen_before);  // same logical build
  expect_eps_equal_remapped(expect, svc.eps_join(request),
                            survivor_ids(data.rows(), {}), "migrated");
  // Calibration blocks survived the move: a fresh target reuses them all.
  EXPECT_EQ(corpus->eps_for_selectivity(12.0), calibrated);
  corpus->eps_for_selectivity(24.0);
  EXPECT_EQ(corpus->stats().calibration_blocks_built, blocks_before);
  EXPECT_EQ(corpus->stats().shards_migrated, 1u);
}

TEST(CorpusLifecycle, RebalanceMovesLoadOffTheHotDomain) {
  ScopedTopology topo(2);
  const auto data = data::uniform(300, 10, 970);
  const auto queries = data::uniform(60, 10, 971);
  const float eps = data::calibrate_epsilon(data, 20.0).eps;

  EpsQuery request;
  request.points = MatrixF32(queries);
  request.eps = eps;

  ShardedCorpusOptions opts;
  opts.shards = 4;
  auto corpus = std::make_shared<ShardedCorpus>(MatrixF32(data), opts);
  JoinService svc(corpus);

  // Baseline the counters, generate load, then force a pass (threshold 1.0
  // accepts any imbalance — tiny test joins cannot guarantee magnitude).
  corpus->rebalance();
  const QueryJoinOutput expect = svc.eps_join(request);
  RebalanceOptions ropts;
  ropts.min_imbalance = 1.0;
  const auto report = corpus->rebalance(ropts);
  ASSERT_EQ(report.moved, 1u);
  EXPECT_NE(report.from_domain, report.to_domain);

  // The moved shard now reports the target domain, and results are
  // untouched — placement is never a results decision.
  std::size_t on_target = 0;
  for (const auto& info : corpus->shard_infos()) {
    if (info.domain == report.to_domain) ++on_target;
  }
  EXPECT_GE(on_target, 3u);  // round-robin gave it 2 of 4; the move added 1
  expect_eps_equal_remapped(expect, svc.eps_join(request),
                            survivor_ids(data.rows(), {}), "rebalanced");
  EXPECT_EQ(corpus->stats().rebalances, 1u);

  // Per-domain drain/steal counters are visible through ServiceStats.
  const auto stats = svc.stats();
  ASSERT_EQ(stats.domain_loads.size(), 2u);
  std::uint64_t tiles = 0;
  for (const auto& load : stats.domain_loads) {
    tiles += load.tiles_drained + load.tiles_stolen;
  }
  EXPECT_GT(tiles, 0u);
}

TEST(CorpusLifecycle, SingleDomainRebalanceIsANoOp) {
  const auto data = data::uniform(120, 8, 980);
  ScopedTopology topo(1);
  ShardedCorpusOptions opts;
  opts.shards = 2;
  ShardedCorpus corpus(MatrixF32(data), opts);
  const auto report = corpus.rebalance();
  EXPECT_EQ(report.moved, 0u);
  EXPECT_EQ(corpus.stats().rebalances, 0u);
}

TEST(CorpusLifecycle, SelfJoinHonorsTombstonesThroughTheEngine) {
  // Engine-level: a sharded self-join with a tombstone filter equals the
  // self-join of the physically removed dataset, id-remapped.
  const auto data = data::uniform(220, 8, 990);
  const float eps = data::calibrate_epsilon(data, 14.0).eps;
  const auto dead = every_kth(data.rows(), 5);
  const auto survivors = survivor_ids(data.rows(), dead);
  FastedEngine engine;

  const JoinOutput expect = engine.self_join(remove_rows(data, dead), eps);

  ShardedCorpusOptions opts;
  opts.shards = 3;
  ShardedCorpus corpus(MatrixF32(data), opts);
  corpus.erase(dead);
  const auto snap = corpus.snapshot();
  const auto views = ShardedCorpus::shard_views(*snap);
  const auto filter = ShardedCorpus::tombstone_filter(*snap);
  JoinOptions options;
  options.tombstones = &filter;
  const JoinOutput got = engine.self_join(
      std::span<const CorpusShardView>(views), eps, options);

  ASSERT_EQ(got.pair_count, expect.pair_count);
  // Count-only mode must agree: the count sink drops either-endpoint-dead
  // pairs exactly like the CSR sink does.
  JoinOptions count_only = options;
  count_only.build_result = false;
  const JoinOutput counted = engine.self_join(
      std::span<const CorpusShardView>(views), eps, count_only);
  ASSERT_EQ(counted.pair_count, expect.pair_count);
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    const auto a = expect.result.neighbors_of(i);
    const auto b = got.result.neighbors_of(survivors[i]);
    ASSERT_EQ(b.size(), a.size()) << i;
    for (std::size_t r = 0; r < a.size(); ++r) {
      ASSERT_EQ(b[r], survivors[a[r]]) << i;
    }
  }
  for (const std::uint32_t id : dead) {
    EXPECT_TRUE(got.result.neighbors_of(id).empty()) << id;
  }
}

TEST(CorpusLifecycle, ConcurrentMutatorsAndReadersStaySane) {
  // The append-vs-snapshot race audit, widened to the full mutator set:
  // one thread appends, one erases, one compacts periodically, readers
  // serve eps joins and poll stats/infos throughout.  Correctness here is
  // (a) no sanitizer findings in the CI ASan/UBSan + FASTED_TOPOLOGY=2x2
  // job, (b) every pinned snapshot stays internally consistent, and
  // (c) served matches never include a row dead in the serving snapshot.
  const auto data = data::uniform(900, 8, 995);
  const auto queries = data::uniform(24, 8, 996);
  const float eps = data::calibrate_epsilon(data, 12.0).eps;

  ShardedCorpusOptions opts;
  opts.shard_capacity = 96;
  auto corpus = std::make_shared<ShardedCorpus>(row_slice(data, 0, 300),
                                                opts);
  JoinService svc(corpus);
  std::atomic<bool> stop{false};

  std::thread appender([&] {
    for (std::size_t begin = 300; begin < 900; begin += 60) {
      corpus->append(row_slice(data, begin, begin + 60));
    }
  });
  std::thread eraser([&] {
    for (std::uint32_t round = 0; round < 20; ++round) {
      // Stay well under any size the racing compactor could shrink to
      // (erase() checks ids against the size at ITS lock acquisition).
      std::vector<std::uint32_t> ids;
      for (std::uint32_t i = round; i < 150; i += 29) ids.push_back(i);
      corpus->erase(ids);
    }
  });
  std::thread compactor([&] {
    for (int i = 0; i < 3; ++i) {
      CompactOptions copts;
      copts.dead_fraction = 0.05;
      corpus->compact(copts);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      EpsQuery request;
      request.points = MatrixF32(queries);
      request.eps = eps;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = corpus->snapshot();
        // Snapshot invariants: contiguous bases, masks sized to shards.
        std::size_t rows = 0;
        for (const auto& slot : *snap) {
          ASSERT_EQ(slot.shard->base, rows);
          rows += slot.shard->rows();
          if (slot.dead != nullptr) {
            ASSERT_EQ(slot.dead->size(), (slot.shard->rows() + 63) / 64);
          }
        }
        const auto filter = ShardedCorpus::tombstone_filter(*snap);
        const auto out = svc.eps_join(request);
        (void)out;
        (void)filter;
        (void)corpus->stats();
        (void)corpus->shard_infos();
        (void)corpus->alive();
      }
    });
  }

  appender.join();
  eraser.join();
  compactor.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();

  // Quiesced end state: the final snapshot serves exactly like the
  // engine-direct reference over its surviving rows.
  const auto snap = corpus->snapshot();
  std::vector<std::uint32_t> dead_now;
  std::size_t base = 0;
  MatrixF32 all(corpus->size(), data.dims());
  for (const auto& slot : *snap) {
    std::copy_n(slot.shard->points.row(0),
                slot.shard->rows() * slot.shard->points.stride(),
                all.row(base));
    for (std::size_t r = 0; r < slot.shard->rows(); ++r) {
      if (slot.dead != nullptr &&
          ((*slot.dead)[r >> 6] >> (r & 63)) & 1u) {
        dead_now.push_back(static_cast<std::uint32_t>(base + r));
      }
    }
    base += slot.shard->rows();
  }
  const auto survivors = survivor_ids(corpus->size(), dead_now);
  EpsQuery request;
  request.points = MatrixF32(queries);
  request.eps = eps;
  expect_eps_equal_remapped(
      reference::eps_reference(remove_rows(all, dead_now), queries, eps),
      svc.eps_join(request), survivors, "post-stress");
}

}  // namespace
}  // namespace fasted::service
