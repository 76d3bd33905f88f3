// ShardedCorpus lifecycle contracts: bulk split geometry, append/seal
// mechanics, and — the property that makes incremental ingest worth having
// — sealed shards' caches SURVIVING appends (pointer identity for prepared
// data, stat identity for calibration blocks).

#include "service/sharded_corpus.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <thread>

#include "../service_reference.hpp"
#include "common/check.hpp"
#include "data/calibrate.hpp"
#include "data/generators.hpp"
#include "obs/metrics.hpp"

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
  // Misses also land in the process-global lifecycle.calibrate histogram;
  // hits do not.
  const obs::ConcurrentHistogram& misses =
      obs::Registry::global().histogram("lifecycle.calibrate");
  const std::uint64_t recorded = misses.snapshot().count();

  // First calibration builds every (sample shard x target shard) block.
  const float eps1 = corpus.eps_for_selectivity(32.0);
  EXPECT_GT(eps1, 0.0f);
  EXPECT_EQ(corpus.stats().calibration_blocks_built, k * k);
  EXPECT_EQ(corpus.stats().calibration_misses, 1u);
  EXPECT_EQ(misses.snapshot().count(), recorded + 1);

  // Cached target: no new blocks, a hit.
  EXPECT_EQ(corpus.eps_for_selectivity(32.0), eps1);
  EXPECT_EQ(corpus.stats().calibration_hits, 1u);
  EXPECT_EQ(corpus.stats().calibration_blocks_built, k * k);
  EXPECT_EQ(misses.snapshot().count(), recorded + 1);

  // Append replaces only the open shard; recalibration must rebuild ONLY
  // the blocks involving it: (k-1) sealed->new + new->(k-1) sealed + 1
  // new->new = 2k - 1.  Blocks between sealed shards are stat-identical.
  corpus.append(row_slice(data, 250, 300));
  const float eps2 = corpus.eps_for_selectivity(32.0);
  EXPECT_GT(eps2, 0.0f);
  EXPECT_EQ(corpus.stats().calibration_blocks_built, k * k + 2 * k - 1);
  EXPECT_EQ(corpus.stats().calibration_misses, 2u);
  EXPECT_EQ(misses.snapshot().count(), recorded + 2);

  // The calibrated radius lands near the requested selectivity (it is a
  // sampled estimate) — verify against the exact count.
  const MatrixF32 whole = row_slice(data, 0, 300);
  const double achieved = data::exact_selectivity(whole, eps2);
  EXPECT_GT(achieved, 32.0 * 0.5);
  EXPECT_LT(achieved, 32.0 * 2.0);
}

// Every block build lands in lifecycle.calibrate_block, beside the miss
// that needed it in lifecycle.calibrate: across one miss after an append,
// the block histogram grows by exactly the blocks built, and a miss that
// builds none (after an erase) leaves it as it was.
TEST(ShardedCorpus, BlockBuildsAreTimedOnePerBlock) {
  const auto data = data::uniform(500, 8, 75);
  ShardedCorpusOptions opts;
  opts.shard_capacity = 128;
  ShardedCorpus corpus{row_slice(data, 0, 400), opts};  // 128 x 3, open 16
  const obs::ConcurrentHistogram& builds =
      obs::Registry::global().histogram("lifecycle.calibrate_block");
  const obs::ConcurrentHistogram& misses =
      obs::Registry::global().histogram("lifecycle.calibrate");
  corpus.eps_for_selectivity(16.0);

  corpus.append(row_slice(data, 400, 500));
  const std::uint64_t built = corpus.stats().calibration_blocks_built;
  const std::uint64_t timed = builds.snapshot().count();
  const std::uint64_t missed = misses.snapshot().count();
  corpus.eps_for_selectivity(16.0);
  const std::uint64_t delta = corpus.stats().calibration_blocks_built - built;
  EXPECT_EQ(delta, 2 * corpus.shard_count() - 1);
  EXPECT_EQ(builds.snapshot().count(), timed + delta);
  EXPECT_EQ(misses.snapshot().count(), missed + 1);

  const std::vector<std::uint32_t> dead = {1, 200, 450};
  corpus.erase(dead);
  corpus.eps_for_selectivity(16.0);
  EXPECT_EQ(builds.snapshot().count(), timed + delta);
  EXPECT_EQ(misses.snapshot().count(), missed + 2);
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

// The merge walk over sorted runs sums the same weights in the same
// (d2, block) order as one sort of the whole pool, so eps_for_selectivity
// equals the pooled reference bit for bit: on uniform rows (few tied
// distances) and integer-valued sift_like rows (many), across appends that
// seal and open shards, erases and a compaction that drops rows.
TEST(ShardedCorpus, CalibrationMatchesPooledReference) {
  for (const bool ties : {false, true}) {
    const MatrixF32 data =
        ties ? data::sift_like(900, 83) : data::uniform(900, 8, 83);
    ShardedCorpusOptions opts;
    opts.shard_capacity = 256;
    ShardedCorpus corpus{row_slice(data, 0, 600), opts};  // 256, 256, 88
    const auto check = [&](const char* step) {
      const auto snap = corpus.snapshot();
      const double all = static_cast<double>(corpus.size());  // >= n - 1
      for (const double target : {4.0, 64.0, 300.0, all}) {
        EXPECT_EQ(corpus.eps_for_selectivity(target),
                  reference::calibration_reference(*snap, target))
            << (ties ? "sift_like " : "uniform ") << step << ", target "
            << target;
      }
    };
    check("bulk split");
    corpus.append(row_slice(data, 600, 800));  // seals 256, opens 32
    check("append");
    std::vector<std::uint32_t> dead;
    for (std::uint32_t id = 3; id < 800; id += 5) dead.push_back(id);
    corpus.erase(dead);
    check("erase");
    corpus.append(row_slice(data, 800, 900));
    check("append after erase");
    CompactOptions compact;
    compact.shard_capacity = 200;
    compact.dead_fraction = 0.1;
    ASSERT_GT(corpus.compact(compact).rows_dropped, 0u);
    check("compaction");
  }
}

// A crossing inside a tie group whose distances carry different weights,
// derived by hand.  Shard 0 holds 16 copies of A = (0, 0), shard 1 eight
// copies of B = (3, 4), so |A - B|^2 = 25.  Each shard samples one row;
// with n = 24 a distance from shard 0's sample weighs w0 = (16/24)/23 =
// 2/69 and one from shard 1's w1 = (8/24)/23 = 1/69, and the total weight
// is 23 w0 + 23 w1 = 1.  In (d2, block) order the walk sums
//   d2 = 0:  block (0,0) 15 x w0 = 30/69, block (1,1) 7 x w1 = 7/69
//   d2 = 25: block (0,1)  8 x w0 = 16/69, block (1,0) 16 x w1 = 16/69
// against cut = target / 23 = 3 target / 69.
TEST(ShardedCorpus, CalibrationCrossesInsideWeightedTieGroup) {
  MatrixF32 rows(24, 2);
  for (std::size_t i = 16; i < 24; ++i) {
    rows.at(i, 0) = 3.0f;
    rows.at(i, 1) = 4.0f;
  }
  ShardedCorpusOptions opts;
  opts.shard_capacity = 16;
  ShardedCorpus corpus{MatrixF32(rows), opts};
  ASSERT_EQ(corpus.shard_count(), 2u);
  const auto expect = [&](double target, float eps) {
    EXPECT_EQ(corpus.eps_for_selectivity(target), eps) << "target " << target;
    EXPECT_EQ(reference::calibration_reference(*corpus.snapshot(), target),
              eps)
        << "target " << target;
  };
  // No cut below sits on a partial sum.
  expect(6.2, 0.0f);   // cut 18.6/69: inside block (0,0)
  expect(11.8, 0.0f);  // cut 35.4/69: inside block (1,1)
  expect(14.0, 5.0f);  // cut 42/69: inside block (0,1), d2 = 25
  expect(19.8, 5.0f);  // cut 59.4/69: inside block (1,0), d2 = 25

  // Erasing half of shard 1 halves the cumulative weight of its candidates
  // (the normalizer keeps it): d2 = 0 now sums 30/69 + 3.5/69 = 33.5/69,
  // and d2 = 25 adds 8/69 + 16/69 to end at 57.5/69.
  const std::uint32_t half[] = {16, 17, 18, 19};
  ASSERT_EQ(corpus.erase(half), 4u);
  expect(10.4, 0.0f);  // cut 31.2/69: inside block (1,1)
  expect(11.8, 5.0f);  // cut 35.4/69: moves into block (0,1)
  expect(20.0, 5.0f);  // cut 60/69 is never reached: the largest distance
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

  // A NaN target fails on a warm cache too: std::map::find(NaN) would
  // match the first cached entry.
  corpus.eps_for_selectivity(8.0);
  corpus.eps_for_selectivity(32.0);
  const auto hits = corpus.stats().calibration_hits;
  EXPECT_THROW(
      corpus.eps_for_selectivity(std::numeric_limits<double>::quiet_NaN()),
      CheckError);
  EXPECT_THROW(corpus.eps_for_selectivity(0.0), CheckError);
  EXPECT_EQ(corpus.stats().calibration_hits, hits);
}

}  // namespace
}  // namespace fasted::service
