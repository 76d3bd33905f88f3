// ShardedCorpus lifecycle contracts: bulk split geometry, append/seal
// mechanics, and — the property that makes incremental ingest worth having
// — sealed shards' caches SURVIVING appends (pointer identity for prepared
// data, stat identity for calibration blocks).

#include "service/sharded_corpus.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "common/check.hpp"
#include "data/calibrate.hpp"
#include "data/generators.hpp"

namespace fasted::service {
namespace {

TEST(ShardedCorpus, BulkSplitIsContiguousAndSealsFullShards) {
  const auto data = data::uniform(1000, 8, 71);
  ShardedCorpusOptions opts;
  opts.shards = 3;
  ShardedCorpus corpus{MatrixF32(data), opts};

  EXPECT_EQ(corpus.size(), 1000u);
  EXPECT_EQ(corpus.dims(), 8u);
  EXPECT_EQ(corpus.shard_count(), 3u);
  EXPECT_EQ(corpus.shard_capacity(), 334u);  // ceil(1000 / 3)

  const auto infos = corpus.shard_infos();
  ASSERT_EQ(infos.size(), 3u);
  EXPECT_EQ(infos[0].base, 0u);
  EXPECT_EQ(infos[0].rows, 334u);
  EXPECT_TRUE(infos[0].sealed);
  EXPECT_EQ(infos[1].base, 334u);
  EXPECT_TRUE(infos[1].sealed);
  EXPECT_EQ(infos[2].base, 668u);
  EXPECT_EQ(infos[2].rows, 332u);
  EXPECT_FALSE(infos[2].sealed);  // below capacity -> open

  // Shard rows are exact slices of the logical corpus, and the prepared
  // data is the per-row pipeline preparation of exactly those rows.
  const auto snap = corpus.snapshot();
  for (const auto& slot : *snap) {
    const auto& shard = slot.shard;
    for (std::size_t i = 0; i < shard->rows(); ++i) {
      for (std::size_t k = 0; k < data.dims(); ++k) {
        ASSERT_EQ(shard->points.at(i, k), data.at(shard->base + i, k));
      }
    }
  }
}

TEST(ShardedCorpus, AppendFillsSealsAndOpensShards) {
  const auto data = data::uniform(250, 8, 72);
  ShardedCorpusOptions opts;
  opts.shard_capacity = 100;
  ShardedCorpus corpus{row_slice(data, 0, 130), opts};
  EXPECT_EQ(corpus.shard_count(), 2u);  // 100 sealed + 30 open

  corpus.append(row_slice(data, 130, 250));  // 30 fills + seals, 90 opens
  EXPECT_EQ(corpus.size(), 250u);
  EXPECT_EQ(corpus.shard_count(), 3u);
  const auto infos = corpus.shard_infos();
  EXPECT_TRUE(infos[0].sealed);
  EXPECT_TRUE(infos[1].sealed);
  EXPECT_EQ(infos[1].rows, 100u);
  EXPECT_FALSE(infos[2].sealed);
  EXPECT_EQ(infos[2].rows, 50u);

  const auto stats = corpus.stats();
  EXPECT_EQ(stats.appends, 1u);
  EXPECT_EQ(stats.rows_appended, 120u);
  EXPECT_EQ(stats.shards_sealed, 1u);
  EXPECT_EQ(stats.open_rebuilds, 1u);  // only the 30-row open shard rebuilt

  // Global row order equals ingestion order regardless of shard boundaries.
  const auto snap = corpus.snapshot();
  for (const auto& slot : *snap) {
    const auto& shard = slot.shard;
    for (std::size_t i = 0; i < shard->rows(); ++i) {
      for (std::size_t k = 0; k < data.dims(); ++k) {
        ASSERT_EQ(shard->points.at(i, k), data.at(shard->base + i, k));
      }
    }
  }
}

TEST(ShardedCorpus, SealedShardCachesSurviveAppendByPointerIdentity) {
  const auto data = data::uniform(300, 8, 73);
  ShardedCorpusOptions opts;
  opts.shard_capacity = 100;
  ShardedCorpus corpus{row_slice(data, 0, 250), opts};
  ASSERT_EQ(corpus.shard_count(), 3u);  // 100, 100, open 50

  // Touch artifacts on every shard; pin the pre-append snapshot so the
  // old open shard cannot be freed (and its address reused) under us.
  const auto pre_append = corpus.snapshot();
  const PreparedDataset* prep0 = &corpus.prepared(0);
  const PreparedDataset* prep1 = &corpus.prepared(1);
  const PreparedDataset* prep_open = &corpus.prepared(2);
  corpus.eps_for_selectivity(32.0);
  const std::uint64_t blocks = corpus.stats().calibration_blocks_built;
  EXPECT_EQ(blocks, 9u);  // 3 sample shards x 3 target shards

  corpus.append(row_slice(data, 250, 300));  // open shard rebuilt (50 -> 100)

  // Sealed shards: the SAME objects — no re-preparation.  The open shard
  // was replaced.
  EXPECT_EQ(&corpus.prepared(0), prep0);
  EXPECT_EQ(&corpus.prepared(1), prep1);
  EXPECT_NE(&corpus.prepared(2), prep_open);

  // Recalibration reuses the 4 sealed x sealed blocks and rebuilds only
  // the 5 that involve the replaced shard.
  corpus.eps_for_selectivity(32.0);
  EXPECT_EQ(corpus.stats().calibration_blocks_built, blocks + 5);
}

TEST(ShardedCorpus, CalibrationBlocksAreReusedAcrossAppends) {
  const auto data = data::uniform(300, 8, 74);
  ShardedCorpusOptions opts;
  opts.shard_capacity = 100;
  ShardedCorpus corpus{row_slice(data, 0, 250), opts};
  const std::size_t k = 3;  // shards: sealed, sealed, open

  // First calibration builds every (sample shard x target shard) block.
  const float eps1 = corpus.eps_for_selectivity(32.0);
  EXPECT_GT(eps1, 0.0f);
  EXPECT_EQ(corpus.stats().calibration_blocks_built, k * k);
  EXPECT_EQ(corpus.stats().calibration_misses, 1u);

  // Cached target: no new blocks, a hit.
  EXPECT_EQ(corpus.eps_for_selectivity(32.0), eps1);
  EXPECT_EQ(corpus.stats().calibration_hits, 1u);
  EXPECT_EQ(corpus.stats().calibration_blocks_built, k * k);

  // Append replaces only the open shard; recalibration must rebuild ONLY
  // the blocks involving it: (k-1) sealed->new + new->(k-1) sealed + 1
  // new->new = 2k - 1.  Blocks between sealed shards are stat-identical.
  corpus.append(row_slice(data, 250, 300));
  const float eps2 = corpus.eps_for_selectivity(32.0);
  EXPECT_GT(eps2, 0.0f);
  EXPECT_EQ(corpus.stats().calibration_blocks_built, k * k + 2 * k - 1);
  EXPECT_EQ(corpus.stats().calibration_misses, 2u);

  // The calibrated radius lands near the requested selectivity (it is a
  // sampled estimate) — verify against the exact count.
  const MatrixF32 whole = row_slice(data, 0, 300);
  const double achieved = data::exact_selectivity(whole, eps2);
  EXPECT_GT(achieved, 32.0 * 0.5);
  EXPECT_LT(achieved, 32.0 * 2.0);
}

TEST(ShardedCorpus, CalibrationIsDeleteAwareWithoutBlockRebuilds) {
  const auto data = data::uniform(600, 8, 77);
  ShardedCorpusOptions opts;
  opts.shards = 3;
  ShardedCorpus corpus{MatrixF32(data), opts};
  const double target = 24.0;

  const float eps_before = corpus.eps_for_selectivity(target);
  EXPECT_GT(eps_before, 0.0f);
  const auto blocks = corpus.stats().calibration_blocks_built;
  const auto misses = corpus.stats().calibration_misses;

  // Tombstone every even row — half of every shard.  Joins filter those
  // rows, so a radius tuned for `target` over physical candidates would
  // really land ~target/2 surviving matches.
  std::vector<std::uint32_t> dead;
  for (std::uint32_t i = 0; i < data.rows(); i += 2) dead.push_back(i);
  ASSERT_EQ(corpus.erase(dead), dead.size());

  // erase() invalidates the cached target -> eps entry, and recalibration
  // re-pools the UNCHANGED cached distance blocks under the new alive
  // fractions: a miss, zero block rebuilds.
  const float eps_after = corpus.eps_for_selectivity(target);
  EXPECT_EQ(corpus.stats().calibration_misses, misses + 1);
  EXPECT_EQ(corpus.stats().calibration_blocks_built, blocks);

  // Holding `target` SURVIVING neighbors with half the candidates dead
  // needs a strictly larger radius...
  EXPECT_GT(eps_after, eps_before);

  // ...and that radius lands near the target over the surviving rows
  // alone (same estimate tolerance as the physical-row test above).
  MatrixF32 survivors(data.rows() / 2, data.dims());
  for (std::size_t i = 0; i < survivors.rows(); ++i) {
    for (std::size_t k = 0; k < data.dims(); ++k) {
      survivors.at(i, k) = data.at(2 * i + 1, k);
    }
  }
  const double achieved = data::exact_selectivity(survivors, eps_after);
  EXPECT_GT(achieved, target * 0.5);
  EXPECT_LT(achieved, target * 2.0);
}

TEST(ShardedCorpus, ConcurrentReadersDuringAppendAreSafe) {
  const auto data = data::uniform(600, 8, 77);
  ShardedCorpusOptions opts;
  opts.shard_capacity = 100;
  ShardedCorpus corpus{row_slice(data, 0, 150), opts};

  // Readers hold snapshots and hammer the calibration cache while appends
  // grow the corpus.
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 20; ++i) {
        const auto snap = corpus.snapshot();
        std::size_t rows = 0;
        for (const auto& slot : *snap) {
          const auto& shard = slot.shard;
          ASSERT_EQ(shard->base, rows);
          rows += shard->rows();
          ASSERT_EQ(shard->prepared.rows(), shard->rows());
        }
        ASSERT_GT(corpus.eps_for_selectivity(8.0 + t), 0.0f);
      }
    });
  }
  std::thread appender([&] {
    for (std::size_t begin = 150; begin < 600; begin += 50) {
      corpus.append(row_slice(data, begin, begin + 50));
    }
  });
  for (auto& th : threads) th.join();
  appender.join();
  EXPECT_EQ(corpus.size(), 600u);
  EXPECT_EQ(corpus.shard_count(), 6u);
}

TEST(ShardedCorpus, RejectsBadInputs) {
  EXPECT_THROW(ShardedCorpus{MatrixF32(0, 4)}, CheckError);
  const auto data = data::uniform(50, 8, 78);
  ShardedCorpus corpus{MatrixF32(data)};
  EXPECT_THROW(corpus.append(MatrixF32(0, 8)), CheckError);
  EXPECT_THROW(corpus.append(MatrixF32(5, 4)), CheckError);  // dims mismatch
  EXPECT_THROW(corpus.prepared(3), CheckError);
}

}  // namespace
}  // namespace fasted::service
