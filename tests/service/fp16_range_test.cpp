// Coordinates at the edge of FP16 and past it, at every entry point.
//
// FP16 rounds to nearest, so a coordinate with |x| >= 65520 quantizes to
// +-inf, and inf and NaN stay non-finite; every pipeline distance of such a
// row would be NaN, which no radius admits.  Preparation is the door every
// self-join, query batch, shard build and append passes through, so each
// such case must throw CheckError there.  Every other value must give the
// reference result: FP16's largest magnitude 65504 (and +-65519, which
// round to it), -0.0, the smallest FP16 subnormal 2^-24, and values that
// round to it or to zero.  Each case plants its value at several seeded
// coordinates, and the planted rows are the query batch.  The gateway
// checks at submission, so a bad request never reaches its window.  Run on
// a flat pool and on a 2-domain pool, where shard builds run as pool jobs
// on their owning domain.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "../service_reference.hpp"
#include "apps/knn.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/topology.hpp"
#include "data/calibrate.hpp"
#include "data/generators.hpp"
#include "serve/batch_gateway.hpp"
#include "service/join_service.hpp"

namespace fasted::service {
namespace {

constexpr std::size_t kRow = 7;
constexpr std::size_t kCol = 3;
constexpr std::size_t kK = 3;
constexpr std::size_t kPlants = 3;  // seeded coordinates per case
constexpr float kEps = 0.5f;

class ScopedTopology {
 public:
  explicit ScopedTopology(std::size_t domains) {
    const Topology topo = Topology::synthetic(domains);
    ThreadPool::reset_global(4, &topo);
  }
  ~ScopedTopology() { ThreadPool::reset_global(); }
};

const float kInf = std::numeric_limits<float>::infinity();
const float kValues[] = {
    // FP16's largest finite magnitude, and values that round to it.
    65504.0f, -65504.0f, 65519.0f, -65519.0f,
    // A signed zero, the smallest FP16 subnormal, a value that rounds up
    // to it, and values that round to zero (2^-25 is a tie to even).
    -0.0f, 0x1p-24f, 0x1.8p-25f, 0x1p-25f, 1e-9f,
    // No finite FP16 image.
    65520.0f, -65520.0f, 1e5f, kInf, -kInf,
    std::numeric_limits<float>::quiet_NaN()};

MatrixF32 clean_rows() { return data::uniform(256, 16, 808); }

// One case: clean rows with `v` planted at kPlants seeded coordinates; the
// planted rows, in planting order, form `queries`.
struct Case {
  MatrixF32 data;
  MatrixF32 queries;
  std::vector<std::size_t> rows;  // the planted rows
};

Case plant(float v, std::uint64_t seed) {
  Case c{clean_rows(), {}, {}};
  c.queries = MatrixF32(kPlants, c.data.dims());
  Rng rng(seed);
  for (std::size_t p = 0; p < kPlants; ++p) {
    const std::size_t r = rng.next_below(c.data.rows());
    c.data.at(r, rng.next_below(c.data.dims())) = v;
    c.rows.push_back(r);
  }
  for (std::size_t p = 0; p < kPlants; ++p) {
    std::copy_n(c.data.row(c.rows[p]), c.data.stride(), c.queries.row(p));
  }
  return c;
}

// Whether FP16 round-to-nearest keeps `v` finite (false for NaN).
bool holdable(float v) { return std::fabs(v) < 65520.0f; }

void expect_same_eps(const QueryJoinOutput& expect, const QueryJoinOutput& got,
                     const std::string& label) {
  ASSERT_EQ(got.pair_count, expect.pair_count) << label;
  for (std::size_t q = 0; q < expect.result.num_queries(); ++q) {
    const auto a = expect.result.matches_of(q);
    const auto b = got.result.matches_of(q);
    ASSERT_EQ(b.size(), a.size()) << label << " query " << q;
    for (std::size_t r = 0; r < a.size(); ++r) {
      ASSERT_EQ(b[r].id, a[r].id) << label;
      ASSERT_EQ(std::bit_cast<std::uint32_t>(b[r].dist2),
                std::bit_cast<std::uint32_t>(a[r].dist2))
          << label;
    }
  }
}

void expect_same_knn(const KnnBatchResult& expect, const KnnBatchResult& got,
                     std::size_t rows, const std::string& label) {
  for (std::size_t q = 0; q < rows; ++q) {
    for (std::size_t r = 0; r < expect.k; ++r) {
      ASSERT_EQ(got.id(q, r), expect.id(q, r)) << label << " q " << q;
      ASSERT_EQ(std::bit_cast<std::uint32_t>(got.distance(q, r)),
                std::bit_cast<std::uint32_t>(expect.distance(q, r)))
          << label << " q " << q;
    }
  }
}

std::shared_ptr<ShardedCorpus> two_shards(const MatrixF32& rows) {
  ShardedCorpusOptions opts;
  opts.shards = 2;
  return std::make_shared<ShardedCorpus>(MatrixF32(rows), opts);
}

EpsQuery eps_request(const MatrixF32& queries, float eps) {
  EpsQuery r;
  r.points = MatrixF32(queries);
  r.eps = eps;
  return r;
}

KnnQuery knn_request(const MatrixF32& queries) {
  KnnQuery r;
  r.points = MatrixF32(queries);
  r.k = kK;
  return r;
}

// A bad value: every entry throws CheckError, and a rejected request or
// append changes nothing it could have touched.
void expect_rejected(const Case& c, const std::string& label) {
  const FastedEngine engine;

  EXPECT_THROW(engine.self_join(c.data, kEps), CheckError) << label;
  EXPECT_THROW(engine.query_join(PreparedDataset(c.queries),
                                 PreparedDataset(clean_rows()), kEps),
               CheckError)
      << label;
  EXPECT_THROW(two_shards(c.data), CheckError) << label;  // so knn_corpus too
  EXPECT_THROW(apps::knn_all(engine, c.data, kK), CheckError) << label;

  // The planted rows as queries against a clean corpus: both eps_join
  // shapes, a coalesced window (alone and beside a clean request), and knn.
  const auto corpus = two_shards(clean_rows());
  auto svc = std::make_shared<JoinService>(corpus);
  const EpsQuery eps_req = eps_request(c.queries, kEps);
  const KnnQuery knn_req = knn_request(c.queries);
  const EpsQuery good = eps_request(row_slice(clean_rows(), kRow, kRow + 1),
                                    kEps);
  EXPECT_THROW(svc->eps_join(eps_req), CheckError) << label;
  EXPECT_THROW(
      svc->eps_join(eps_req, [](std::size_t, std::span<const QueryMatch>) {}),
      CheckError)
      << label;
  const EpsQuery window[] = {good, eps_req};
  EXPECT_THROW(svc->eps_join_coalesced(std::span<const EpsQuery>(window, 2)),
               CheckError)
      << label;
  EXPECT_THROW(
      svc->eps_join_coalesced(std::span<const EpsQuery>(&window[1], 1)),
      CheckError)
      << label;
  EXPECT_EQ(svc->eps_join_coalesced(std::span<const EpsQuery>(window, 1))
                .front()
                .pair_count,
            svc->eps_join(good).pair_count)
      << label;
  EXPECT_THROW(svc->knn(knn_req), CheckError) << label;

  // The gateway refuses at submission; a clean request is still served.
  {
    serve::BatchGateway gateway(svc);
    EXPECT_THROW(gateway.try_submit(eps_req), CheckError) << label;
    EXPECT_THROW(gateway.try_submit(knn_req), CheckError) << label;
    const auto ticket = gateway.try_submit(good);
    ASSERT_NE(ticket, nullptr) << label;
    EXPECT_EQ(ticket->wait().state, serve::RequestState::kDone) << label;
  }

  // A rejected append publishes nothing: same snapshot, and the cached
  // radius is still a cache hit.
  const float eps16 = corpus->eps_for_selectivity(16.0);
  const auto snap = corpus->snapshot();
  const ShardedStats before = corpus->stats();
  EXPECT_THROW(corpus->append(c.data), CheckError) << label;
  EXPECT_EQ(corpus->snapshot(), snap) << label;
  EXPECT_EQ(corpus->size(), clean_rows().rows()) << label;
  EXPECT_EQ(corpus->eps_for_selectivity(16.0), eps16) << label;
  const ShardedStats after = corpus->stats();
  EXPECT_EQ(after.calibration_misses, before.calibration_misses) << label;
  EXPECT_EQ(after.calibration_hits, before.calibration_hits + 1) << label;
  EXPECT_EQ(after.appends, before.appends) << label;
}

// Every entry gives the reference result, each planted row's self pair
// included.
void expect_reference(const Case& c, const std::string& label) {
  const MatrixF32& data = c.data;
  const FastedEngine engine;

  const JoinOutput self = engine.self_join(data, kEps);
  for (const std::size_t r : c.rows) {
    const auto row = self.result.neighbors_of(r);
    EXPECT_NE(std::find(row.begin(), row.end(), r), row.end())
        << label << " row " << r;
  }

  // query_join, called directly: a batch equal to the corpus reproduces
  // self_join pair for pair, with the pipeline distance of every pair, on
  // one prepared corpus and on three shards.
  const PreparedDataset prepared(data);
  const PreparedShards shards = prepare_shards(data, 3);
  for (const QueryJoinOutput& q :
       {engine.query_join(prepared, prepared, kEps),
        engine.query_join(prepared, shards.span(), kEps)}) {
    ASSERT_EQ(q.pair_count, self.pair_count) << label;
    for (std::size_t i = 0; i < data.rows(); ++i) {
      const auto got = q.result.matches_of(i);
      const auto want = self.result.neighbors_of(i);
      ASSERT_EQ(got.size(), want.size()) << label << " row " << i;
      for (std::size_t r = 0; r < got.size(); ++r) {
        ASSERT_EQ(got[r].id, want[r]) << label << " row " << i;
        ASSERT_EQ(std::bit_cast<std::uint32_t>(got[r].dist2),
                  std::bit_cast<std::uint32_t>(prepared.pair_dist2(i, want[r])))
            << label << " row " << i;
      }
    }
  }

  const QueryJoinOutput eps_expect =
      reference::eps_reference(data, c.queries, kEps);
  const QueryJoinOutput wide_expect =
      reference::eps_reference(data, c.queries, 2 * kEps);
  for (std::size_t p = 0; p < kPlants; ++p) {
    const auto m = eps_expect.result.matches_of(p);
    EXPECT_TRUE(std::any_of(m.begin(), m.end(),
                            [&](const QueryMatch& x) {
                              return x.id == c.rows[p];
                            }))
        << label << " query " << p;
  }
  const KnnBatchResult knn_expect =
      reference::knn_reference(data, c.queries, kK);
  const KnnBatchResult all_expect =
      reference::knn_reference(data, data, kK + 1);

  // The rows arrive in the bulk split on one corpus and by append on the
  // other.
  const auto bulk = two_shards(data);
  const auto grown = two_shards(row_slice(data, 0, 200));
  grown->append(row_slice(data, 200, data.rows()));
  for (const auto& corpus : {bulk, grown}) {
    EXPECT_EQ(corpus->eps_for_selectivity(16.0),
              reference::calibration_reference(*corpus->snapshot(), 16.0))
        << label;
    auto svc = std::make_shared<JoinService>(corpus);
    const EpsQuery eps_req = eps_request(c.queries, kEps);
    const EpsQuery wide_req = eps_request(c.queries, 2 * kEps);
    const KnnQuery knn_req = knn_request(c.queries);
    expect_same_eps(eps_expect, svc->eps_join(eps_req), label + " csr");
    std::vector<std::vector<QueryMatch>> streamed(kPlants);
    svc->eps_join(eps_req,
                  [&](std::size_t q, std::span<const QueryMatch> m) {
                    streamed[q].assign(m.begin(), m.end());
                  });
    for (std::size_t p = 0; p < kPlants; ++p) {
      const auto want = eps_expect.result.matches_of(p);
      ASSERT_EQ(streamed[p].size(), want.size()) << label << " query " << p;
      for (std::size_t r = 0; r < want.size(); ++r) {
        ASSERT_EQ(streamed[p][r].id, want[r].id) << label << " query " << p;
        ASSERT_EQ(std::bit_cast<std::uint32_t>(streamed[p][r].dist2),
                  std::bit_cast<std::uint32_t>(want[r].dist2))
            << label << " query " << p;
      }
    }
    const EpsQuery window[] = {eps_req, wide_req};
    const std::vector<QueryJoinOutput> coalesced =
        svc->eps_join_coalesced(std::span<const EpsQuery>(window, 2));
    ASSERT_EQ(coalesced.size(), 2u) << label;
    expect_same_eps(eps_expect, coalesced[0], label + " coalesced");
    expect_same_eps(wide_expect, coalesced[1], label + " coalesced wide");
    expect_same_knn(knn_expect, svc->knn(knn_req), kPlants, label + " knn");
    expect_same_knn(all_expect, svc->knn_corpus(kK + 1), data.rows(),
                    label + " knn_corpus");
    serve::BatchGateway gateway(svc);
    const auto eps_ticket = gateway.try_submit(eps_req);
    const auto knn_ticket = gateway.try_submit(knn_req);
    ASSERT_NE(eps_ticket, nullptr);
    ASSERT_NE(knn_ticket, nullptr);
    expect_same_eps(eps_expect, eps_ticket->wait().eps, label + " gateway");
    expect_same_knn(knn_expect, knn_ticket->wait().knn, kPlants,
                    label + " gateway knn");
  }

  // knn_all: the reference's k + 1 nearest with the point itself removed.
  const apps::KnnResult all = apps::knn_all(engine, data, kK);
  for (std::size_t i = 0; i < data.rows(); ++i) {
    std::size_t w = 0;
    for (std::size_t r = 0; r < kK + 1 && w < kK; ++r) {
      if (all_expect.id(i, r) == i) continue;
      ASSERT_EQ(all.id(i, w), all_expect.id(i, r)) << label << " row " << i;
      ++w;
    }
  }
}

void check_every_value(const std::string& pool) {
  std::uint64_t seed = 0xf16;
  for (const float v : kValues) {
    const std::string label = pool + " value " + std::to_string(v) + " (" +
                              std::to_string(std::bit_cast<std::uint32_t>(v)) +
                              ")";
    const Case c = plant(v, seed++);
    if (holdable(v)) {
      expect_reference(c, label);
    } else {
      expect_rejected(c, label);
    }
    // Calibration reads the original FP32 rows: only NaN and inf are
    // refused there.
    if (std::isfinite(v)) {
      EXPECT_NO_THROW(data::calibrate_epsilon(c.data, 16.0)) << label;
    } else {
      EXPECT_THROW(data::calibrate_epsilon(c.data, 16.0), CheckError)
          << label;
    }
  }
}

TEST(Fp16Range, EveryEntryRejectsOrMatchesReferenceOnFlatPool) {
  ScopedTopology flat(1);
  check_every_value("flat");
}

TEST(Fp16Range, EveryEntryRejectsOrMatchesReferenceOnTwoDomains) {
  ScopedTopology two(2);
  check_every_value("2 domains");
}

TEST(Fp16Range, ErrorNamesRowAndColumn) {
  MatrixF32 rows = clean_rows();
  rows.at(kRow, kCol) = 65520.0f;
  try {
    const PreparedDataset prep(rows);
    FAIL() << "65520 was accepted";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("row 7"), std::string::npos) << what;
    EXPECT_NE(what.find("column 3"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace fasted::service
