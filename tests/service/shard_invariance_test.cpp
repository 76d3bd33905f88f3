// The sharding safety invariant, tested as properties over randomized
// corpora and query batches: a ShardedCorpus with ANY shard count — and
// ANY append history producing the same global row order — serves eps-join
// and kNN results BIT-identical to the engine-direct references in
// service_reference.hpp.  Streaming delivery (merged across shards) must
// agree with the batched CSR pair-for-pair.

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "../service_reference.hpp"
#include "common/rng.hpp"
#include "data/calibrate.hpp"
#include "data/generators.hpp"
#include "service/join_service.hpp"

namespace fasted::service {
namespace {

constexpr std::size_t kShardCounts[] = {1, 2, 3, 7};

std::shared_ptr<ShardedCorpus> bulk_corpus(const MatrixF32& data,
                                           std::size_t shards) {
  ShardedCorpusOptions opts;
  opts.shards = shards;
  return std::make_shared<ShardedCorpus>(MatrixF32(data), opts);
}

// Build the same logical corpus by incremental appends: start with a
// prefix, append the rest in `pieces` uneven slices.
std::shared_ptr<ShardedCorpus> appended_corpus(const MatrixF32& data,
                                               std::size_t capacity,
                                               std::size_t pieces,
                                               Rng& rng) {
  const std::size_t n = data.rows();
  const std::size_t first = 1 + rng.next_below(n - 1);
  ShardedCorpusOptions opts;
  opts.shard_capacity = capacity;
  auto corpus =
      std::make_shared<ShardedCorpus>(row_slice(data, 0, first), opts);
  std::size_t at = first;
  for (std::size_t p = 0; p < pieces && at < n; ++p) {
    const std::size_t remaining = n - at;
    const std::size_t take = p + 1 == pieces
                                 ? remaining
                                 : 1 + rng.next_below(remaining);
    corpus->append(row_slice(data, at, at + take));
    at += take;
  }
  if (at < n) corpus->append(row_slice(data, at, n));
  return corpus;
}

void expect_same_eps_results(const QueryJoinOutput& expect,
                             const QueryJoinOutput& got,
                             const char* label) {
  ASSERT_EQ(got.pair_count, expect.pair_count) << label;
  ASSERT_EQ(got.result.num_queries(), expect.result.num_queries()) << label;
  std::uint64_t shard_sum = 0;
  for (const std::uint64_t p : got.shard_pairs) shard_sum += p;
  EXPECT_EQ(shard_sum, got.pair_count) << label;
  for (std::size_t q = 0; q < expect.result.num_queries(); ++q) {
    const auto a = expect.result.matches_of(q);
    const auto b = got.result.matches_of(q);
    ASSERT_EQ(b.size(), a.size()) << label << " query " << q;
    for (std::size_t r = 0; r < a.size(); ++r) {
      ASSERT_EQ(b[r].id, a[r].id) << label << " query " << q;
      // Bit-identical pipeline distances, not approximately equal ones.
      ASSERT_EQ(std::bit_cast<std::uint32_t>(b[r].dist2),
                std::bit_cast<std::uint32_t>(a[r].dist2))
          << label << " query " << q;
    }
  }
}

TEST(ShardInvariance, EpsJoinBitIdenticalAcrossShardCounts) {
  Rng rng(0x5a4d2026);
  for (int trial = 0; trial < 3; ++trial) {
    const std::size_t n = 200 + rng.next_below(400);
    const std::size_t d = 4 + rng.next_below(28);
    const auto data = data::uniform(n, d, 100 + static_cast<std::uint64_t>(trial));
    const auto queries =
        data::uniform(40 + rng.next_below(100), d,
                      900 + static_cast<std::uint64_t>(trial));
    const float eps = data::calibrate_epsilon(data, 24.0).eps;

    EpsQuery request;
    request.points = MatrixF32(queries);
    request.eps = eps;
    const auto expect = reference::eps_reference(data, queries, eps);

    for (const std::size_t shards : kShardCounts) {
      JoinService svc(bulk_corpus(data, shards));
      const auto got = svc.eps_join(request);
      expect_same_eps_results(expect, got,
                              ("shards=" + std::to_string(shards)).c_str());
    }
  }
}

TEST(ShardInvariance, EpsJoinBitIdenticalAcrossAppendOrderings) {
  Rng rng(0xa99e2026);
  const std::size_t n = 500;
  const std::size_t d = 12;
  const auto data = data::uniform(n, d, 131);
  const auto queries = data::uniform(90, d, 132);
  const float eps = data::calibrate_epsilon(data, 24.0).eps;

  EpsQuery request;
  request.points = MatrixF32(queries);
  request.eps = eps;
  const auto expect = reference::eps_reference(data, queries, eps);

  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t capacity = 64 + rng.next_below(200);
    auto corpus = appended_corpus(data, capacity, 1 + rng.next_below(5), rng);
    ASSERT_EQ(corpus->size(), n);
    JoinService svc(corpus);
    const auto got = svc.eps_join(request);
    expect_same_eps_results(
        expect, got, ("append capacity=" + std::to_string(capacity)).c_str());
  }
}

TEST(ShardInvariance, KnnBitIdenticalAcrossShardCountsAndAppends) {
  Rng rng(0x6e2026);
  const std::size_t n = 350;
  const std::size_t d = 10;
  const auto data = data::uniform(n, d, 141);
  const auto queries = data::uniform(60, d, 142);

  KnnQuery request;
  request.points = MatrixF32(queries);
  request.k = 5;
  const auto expect = reference::knn_reference(data, queries, request.k);

  const auto check = [&](JoinService& svc, const char* label) {
    const auto got = svc.knn(request);
    ASSERT_EQ(got.k, expect.k) << label;
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      for (std::size_t r = 0; r < request.k; ++r) {
        ASSERT_EQ(got.id(q, r), expect.id(q, r)) << label << " q " << q;
        ASSERT_EQ(std::bit_cast<std::uint32_t>(got.distance(q, r)),
                  std::bit_cast<std::uint32_t>(expect.distance(q, r)))
            << label << " q " << q;
      }
    }
  };

  for (const std::size_t shards : kShardCounts) {
    JoinService svc(bulk_corpus(data, shards));
    check(svc, ("shards=" + std::to_string(shards)).c_str());
  }
  for (int trial = 0; trial < 2; ++trial) {
    auto corpus = appended_corpus(data, 80 + rng.next_below(120),
                                  2 + rng.next_below(3), rng);
    JoinService svc(corpus);
    check(svc, "appended");
  }
}

TEST(ShardInvariance, KnnCorpusBitIdenticalAcrossShardCounts) {
  const auto data = data::uniform(300, 8, 151);
  const auto expect = reference::knn_reference(data, data, 4);

  for (const std::size_t shards : kShardCounts) {
    JoinService svc(bulk_corpus(data, shards));
    const auto got = svc.knn_corpus(4);
    for (std::size_t q = 0; q < data.rows(); ++q) {
      for (std::size_t r = 0; r < 4u; ++r) {
        ASSERT_EQ(got.id(q, r), expect.id(q, r)) << "shards=" << shards;
        ASSERT_EQ(std::bit_cast<std::uint32_t>(got.distance(q, r)),
                  std::bit_cast<std::uint32_t>(expect.distance(q, r)))
            << "shards=" << shards;
      }
    }
  }
}

TEST(ShardInvariance, StreamingMergeMatchesBatchedCsrBothDeliveries) {
  const auto data = data::uniform(400, 12, 161);
  const auto queries = data::uniform(150, 12, 162);
  const float eps = data::calibrate_epsilon(data, 16.0).eps;

  for (const std::size_t shards : kShardCounts) {
    JoinService svc(bulk_corpus(data, shards));
    EpsQuery request;
    request.points = MatrixF32(queries);
    request.eps = eps;
    const auto batched = svc.eps_join(request);

    std::vector<std::vector<QueryMatch>> rows(queries.rows());
    std::vector<int> deliveries(queries.rows(), 0);
    const auto out = svc.eps_join(
        request, [&](std::size_t q, std::span<const QueryMatch> matches) {
          rows[q].assign(matches.begin(), matches.end());
          ++deliveries[q];
        });
    ASSERT_EQ(out.pair_count, batched.pair_count);
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      ASSERT_EQ(deliveries[q], 1) << "shards=" << shards << " q " << q;
      const auto expect = batched.result.matches_of(q);
      ASSERT_EQ(rows[q].size(), expect.size())
          << "shards=" << shards << " q " << q;
      for (std::size_t r = 0; r < expect.size(); ++r) {
        ASSERT_EQ(rows[q][r].id, expect[r].id)
            << "shards=" << shards << " q " << q;
        ASSERT_EQ(std::bit_cast<std::uint32_t>(rows[q][r].dist2),
                  std::bit_cast<std::uint32_t>(expect[r].dist2))
            << "shards=" << shards << " q " << q;
      }
    }
  }
}

TEST(ShardInvariance, EmulatedPathAgreesOnShardedBackends) {
  const auto data = data::uniform(250, 8, 171);
  const auto queries = data::uniform(60, 8, 172);
  JoinService svc(bulk_corpus(data, 3));

  EpsQuery fast;
  fast.points = MatrixF32(queries);
  fast.eps = 0.6f;
  EpsQuery emulated = fast;
  emulated.points = MatrixF32(queries);
  emulated.path = ExecutionPath::kEmulated;

  const auto a = svc.eps_join(fast);
  const auto b = svc.eps_join(emulated);
  expect_same_eps_results(a, b, "emulated vs fast, shards=3");
}

}  // namespace
}  // namespace fasted::service
