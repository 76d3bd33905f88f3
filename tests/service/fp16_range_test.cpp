// Coordinates FP16 cannot hold, at every entry point.
//
// FP16 rounds to nearest, so a coordinate with |x| >= 65520 quantizes to
// +-inf, and inf and NaN stay non-finite; every pipeline distance of such a
// row would be NaN, which no radius admits.  Preparation is the door every
// self-join, query batch, shard build and append passes through, so each
// case must throw CheckError there — or, for 65519 (FP16 65504), give the
// reference result.  The gateway checks at submission, so a bad request
// never reaches its window.  Run on a flat pool and on a 2-domain pool,
// where shard builds run as pool jobs on their owning domain.

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
const float kValues[] = {65519.0f, 65520.0f,  -65520.0f,
                         1e5f,     kInf,      -kInf,
                         std::numeric_limits<float>::quiet_NaN()};

MatrixF32 clean_rows() { return data::uniform(256, 16, 808); }

MatrixF32 with_value(float v) {
  MatrixF32 m = clean_rows();
  m.at(kRow, kCol) = v;
  return m;
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

// A bad value: every entry throws CheckError, and a rejected request or
// append changes nothing it could have touched.
void expect_rejected(float v, const std::string& label) {
  const MatrixF32 bad = with_value(v);
  const MatrixF32 query = row_slice(bad, kRow, kRow + 1);
  const FastedEngine engine;

  EXPECT_THROW(engine.self_join(bad, kEps), CheckError) << label;
  EXPECT_THROW(two_shards(bad), CheckError) << label;  // so knn_corpus too
  EXPECT_THROW(apps::knn_all(engine, bad, kK), CheckError) << label;

  // The bad row as a query against a clean corpus: both eps_join shapes
  // and knn.
  const auto corpus = two_shards(clean_rows());
  auto svc = std::make_shared<JoinService>(corpus);
  EpsQuery eps_req;
  eps_req.points = MatrixF32(query);
  eps_req.eps = kEps;
  KnnQuery knn_req;
  knn_req.points = MatrixF32(query);
  knn_req.k = kK;
  EXPECT_THROW(svc->eps_join(eps_req), CheckError) << label;
  EXPECT_THROW(
      svc->eps_join(eps_req, [](std::size_t, std::span<const QueryMatch>) {}),
      CheckError)
      << label;
  EXPECT_THROW(svc->knn(knn_req), CheckError) << label;

  // The gateway refuses at submission; a clean request is still served.
  {
    serve::BatchGateway gateway(svc);
    EXPECT_THROW(gateway.try_submit(eps_req), CheckError) << label;
    EXPECT_THROW(gateway.try_submit(knn_req), CheckError) << label;
    EpsQuery good = eps_req;
    good.points = row_slice(clean_rows(), kRow, kRow + 1);
    const auto ticket = gateway.try_submit(good);
    ASSERT_NE(ticket, nullptr) << label;
    EXPECT_EQ(ticket->wait().state, serve::RequestState::kDone) << label;
  }

  // A rejected append publishes nothing: same snapshot, and the cached
  // radius is still a cache hit.
  const float eps16 = corpus->eps_for_selectivity(16.0);
  const auto snap = corpus->snapshot();
  const ShardedStats before = corpus->stats();
  EXPECT_THROW(corpus->append(row_slice(bad, 0, 40)), CheckError) << label;
  EXPECT_EQ(corpus->snapshot(), snap) << label;
  EXPECT_EQ(corpus->size(), clean_rows().rows()) << label;
  EXPECT_EQ(corpus->eps_for_selectivity(16.0), eps16) << label;
  const ShardedStats after = corpus->stats();
  EXPECT_EQ(after.calibration_misses, before.calibration_misses) << label;
  EXPECT_EQ(after.calibration_hits, before.calibration_hits + 1) << label;
  EXPECT_EQ(after.appends, before.appends) << label;
}

// 65519 quantizes to FP16 65504: every entry gives the reference result,
// the row's self pair included.
void expect_reference(float v, const std::string& label) {
  const MatrixF32 data = with_value(v);
  const MatrixF32 query = row_slice(data, kRow, kRow + 1);
  const FastedEngine engine;

  const JoinOutput self = engine.self_join(data, kEps);
  const auto row = self.result.neighbors_of(kRow);
  EXPECT_NE(std::find(row.begin(), row.end(), kRow), row.end()) << label;

  const QueryJoinOutput eps_expect =
      reference::eps_reference(data, query, kEps);
  ASSERT_EQ(eps_expect.result.matches_of(0).size(), 1u) << label;
  const KnnBatchResult knn_expect = reference::knn_reference(data, query, kK);
  const KnnBatchResult all_expect =
      reference::knn_reference(data, data, kK + 1);

  // The row arrives in the bulk split on one corpus and by append on the
  // other.
  const auto bulk = two_shards(data);
  const auto grown = two_shards(row_slice(data, 0, 200));
  grown->append(row_slice(data, 200, data.rows()));
  for (const auto& corpus : {bulk, grown}) {
    auto svc = std::make_shared<JoinService>(corpus);
    EpsQuery eps_req;
    eps_req.points = MatrixF32(query);
    eps_req.eps = kEps;
    KnnQuery knn_req;
    knn_req.points = MatrixF32(query);
    knn_req.k = kK;
    expect_same_eps(eps_expect, svc->eps_join(eps_req), label + " csr");
    std::vector<QueryMatch> streamed;
    svc->eps_join(eps_req, [&](std::size_t, std::span<const QueryMatch> m) {
      streamed.assign(m.begin(), m.end());
    });
    ASSERT_EQ(streamed.size(), 1u) << label;
    EXPECT_EQ(streamed[0].id, kRow) << label;
    expect_same_knn(knn_expect, svc->knn(knn_req), 1, label + " knn");
    expect_same_knn(all_expect, svc->knn_corpus(kK + 1), data.rows(),
                    label + " knn_corpus");
    serve::BatchGateway gateway(svc);
    const auto eps_ticket = gateway.try_submit(eps_req);
    const auto knn_ticket = gateway.try_submit(knn_req);
    ASSERT_NE(eps_ticket, nullptr);
    ASSERT_NE(knn_ticket, nullptr);
    expect_same_eps(eps_expect, eps_ticket->wait().eps, label + " gateway");
    expect_same_knn(knn_expect, knn_ticket->wait().knn, 1,
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
  for (const float v : kValues) {
    const std::string label = pool + " value " + std::to_string(v);
    if (holdable(v)) {
      expect_reference(v, label);
    } else {
      expect_rejected(v, label);
    }
    // Calibration reads the original FP32 rows: only NaN and inf are
    // refused there.
    if (std::isfinite(v)) {
      EXPECT_NO_THROW(data::calibrate_epsilon(with_value(v), 16.0)) << label;
    } else {
      EXPECT_THROW(data::calibrate_epsilon(with_value(v), 16.0), CheckError)
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
  try {
    const PreparedDataset prep(with_value(65520.0f));
    FAIL() << "65520 was accepted";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("row 7"), std::string::npos) << what;
    EXPECT_NE(what.find("column 3"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace fasted::service
