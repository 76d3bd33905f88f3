// The unified execution layer's contracts:
//  * every rz_dot variant (scalar, AVX2, AVX512 — whichever this CPU runs)
//    is bit-identical to the sequential add_rz chain on randomized
//    dims/strides/tail widths/query counts,
//  * pack_panel zero-fills tail lanes, and every variant's widening of a
//    PreparedDataset's resident FP16 panels equals pack_panel of its rows,
//  * the three ResultSinks (count-only, CSR, streaming) agree pair-for-pair
//    through the public join APIs, on both kernel paths.

#include "core/kernels/rz_dot.hpp"

#include <gtest/gtest.h>

#include "core/kernels/kernel_context.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <span>
#include <thread>
#include <vector>

#include "../hw_rz.hpp"
#include "common/check.hpp"
#include "common/fp16.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/fasted.hpp"
#include "core/kernels/demux_sink.hpp"
#include "core/kernels/merging_sink.hpp"
#include "core/kernels/mpsc_ring.hpp"
#include "core/kernels/result_sink.hpp"
#include "data/calibrate.hpp"
#include "data/generators.hpp"

namespace fasted {
namespace {

using kernels::kPanelWidth;
using kernels::kQueryBlock;

// FP16-exact value streams, like every input the pipeline ever sees.
std::vector<float> fp16_exact_values(Rng& rng, std::size_t count,
                                     double magnitude) {
  std::vector<float> out(count);
  for (auto& v : out) {
    v = quantize_fp16(static_cast<float>(rng.uniform(-magnitude, magnitude)));
  }
  return out;
}

TEST(RzDotKernels, AllVariantsMatchScalarChainOnRandomizedShapes) {
  Rng rng(2025);
  const auto& kernels_list = kernels::KernelRegistry::global().supported();
  ASSERT_GE(kernels_list.size(), 1u);

  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t dims = 1 + rng.next_u64() % 130;
    const std::size_t stride = dims + rng.next_u64() % 9;  // padded rows
    const std::size_t nrows = 1 + rng.next_u64() % kPanelWidth;
    const std::size_t nq = 1 + rng.next_u64() % kQueryBlock;
    // Mostly unit-scale data; occasionally large magnitudes so the RZ
    // overshoot/overflow repair path is exercised in every lane.
    const double mag = trial % 7 == 0 ? 6.0e4 : 2.0;

    const auto corpus = fp16_exact_values(rng, nrows * stride, mag);
    const auto queries = fp16_exact_values(rng, nq * stride, mag);

    std::vector<float> panel(dims * kPanelWidth);
    kernels::pack_panel(corpus.data(), stride, nrows, dims, panel.data());

    for (const kernels::RzDotKernel* kern : kernels_list) {
      std::vector<float> acc(nq * kPanelWidth, -1.0f);
      kern->dot_panel(queries.data(), stride, nq, panel.data(), dims,
                      acc.data());
      for (std::size_t qi = 0; qi < nq; ++qi) {
        for (std::size_t r = 0; r < kPanelWidth; ++r) {
          const float expect =
              r < nrows ? kernels::rz_dot_pair(queries.data() + qi * stride,
                                               corpus.data() + r * stride, dims)
                        : 0.0f;
          const float got = acc[qi * kPanelWidth + r];
          ASSERT_EQ(std::bit_cast<std::uint32_t>(expect),
                    std::bit_cast<std::uint32_t>(got))
              << kern->name << " trial " << trial << " dims " << dims
              << " stride " << stride << " nrows " << nrows << " q " << qi
              << " lane " << r << " expect " << expect << " got " << got;
        }
      }
    }
  }
}

// FP16 coordinates built to stress the RZ chain: ordinary values grow
// accumulators to ~2^15, then subnormal and tiny-normal factors add
// products down to 2^-48 of either sign — exponent spreads past the 53
// bits of a double sum.
float adversarial_fp16(Rng& rng) {
  const float frac = static_cast<float>(rng.next_u64() % 1024) / 1024.0f;
  float v = 0.0f;
  switch (rng.next_u64() % 4) {
    case 0: {  // subnormal: k * 2^-24, often tiny k
      const std::uint64_t kmax = rng.next_u64() % 2 == 0 ? 1023 : 7;
      v = static_cast<float>(1 + rng.next_u64() % kmax) * 0x1p-24f;
      break;
    }
    case 1:  // tiny normal
      v = std::ldexp(1.0f + frac, -14 + static_cast<int>(rng.next_u64() % 5));
      break;
    default:  // ordinary, up to 2^7
      v = std::ldexp(1.0f + frac, -2 + static_cast<int>(rng.next_u64() % 9));
      break;
  }
  return rng.next_u64() % 2 == 0 ? v : -v;
}

std::vector<float> adversarial_rows(Rng& rng, std::size_t count) {
  std::vector<float> out(count);
  for (auto& v : out) v = adversarial_fp16(rng);
  return out;
}

TEST(RzDotKernels, EveryVariantMatchesHardwareRzOracle) {
  // The reference itself is checked: rz_dot_pair and every supported
  // kernel's dot_panel must equal a chain of per-step hardware RZ FMAs
  // (FE_TOWARDZERO + fmaf) bit for bit.
  Rng rng(1303);
  const auto& kernels_list = kernels::KernelRegistry::global().supported();
  for (int trial = 0; trial < 150; ++trial) {
    const std::size_t dims = 1 + rng.next_u64() % 130;
    const std::size_t nrows = 1 + rng.next_u64() % kPanelWidth;
    const std::size_t nq = 1 + rng.next_u64() % kQueryBlock;
    const auto corpus = adversarial_rows(rng, nrows * dims);
    const auto queries = adversarial_rows(rng, nq * dims);
    std::vector<float> packed(dims * kPanelWidth);
    kernels::pack_panel(corpus.data(), dims, nrows, dims, packed.data());
    // The same rows as a prepared corpus: its resident FP16 panel 0, widened
    // by each variant, must drive the chains to the same bits.
    MatrixF32 corpus_rows(nrows, dims);
    for (std::size_t r = 0; r < nrows; ++r) {
      std::copy_n(corpus.data() + r * dims, dims, corpus_rows.row(r));
    }
    const PreparedDataset resident(corpus_rows);
    std::vector<float> widened(resident.values().stride() * kPanelWidth);

    std::vector<float> expect(nq * kPanelWidth, 0.0f);
    for (std::size_t qi = 0; qi < nq; ++qi) {
      for (std::size_t r = 0; r < nrows; ++r) {
        const float* a = queries.data() + qi * dims;
        const float* b = corpus.data() + r * dims;
        const float ref = hw::rz_dot(a, b, dims);
        expect[qi * kPanelWidth + r] = ref;
        ASSERT_EQ(std::bit_cast<std::uint32_t>(ref),
                  std::bit_cast<std::uint32_t>(kernels::rz_dot_pair(a, b, dims)))
            << "rz_dot_pair trial " << trial << " q " << qi << " row " << r;
      }
    }
    for (const kernels::RzDotKernel* kern : kernels_list) {
      kern->widen_panel(resident.panel(0), resident.values().stride(),
                        widened.data());
      for (const std::vector<float>* panel : {&packed, &widened}) {
        std::vector<float> acc(nq * kPanelWidth, -1.0f);
        kern->dot_panel(queries.data(), dims, nq, panel->data(), dims,
                        acc.data());
        for (std::size_t i = 0; i < acc.size(); ++i) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(expect[i]),
                    std::bit_cast<std::uint32_t>(acc[i]))
              << kern->name << (panel == &packed ? " packed" : " resident")
              << " trial " << trial << " dims " << dims << " cell " << i
              << " expect " << expect[i] << " got " << acc[i];
        }
      }
    }
  }
}

TEST(RzDotKernels, WidenedResidentPanelsEqualPackedRows) {
  // Every variant's widen of resident panel p reproduces pack_panel of the
  // same values() rows bit for bit — signed zeros and FP16 subnormals
  // included — and tail lanes past rows() read +0.
  Rng rng(2207);
  const auto& kernels_list = kernels::KernelRegistry::global().supported();
  for (const std::size_t dims : {8u, 128u, 960u}) {
    for (const std::size_t rows : {1u, 15u, 16u, 17u, 1000u}) {
      MatrixF32 data(rows, dims);
      for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t k = 0; k < dims; ++k) {
          // Signed zeros, FP16 subnormals and tiny normals, and values up
          // to half the FP16 range.
          const std::uint64_t pick = rng.next_u64() % 4;
          if (pick == 0) {
            data.at(i, k) = rng.next_u64() % 2 == 0 ? 0.0f : -0.0f;
          } else if (pick == 1) {
            data.at(i, k) = adversarial_fp16(rng);
          } else {
            data.at(i, k) = static_cast<float>(rng.uniform(-3e4, 3e4));
          }
        }
      }
      const PreparedDataset prep(data);
      const MatrixF32& v = prep.values();
      const std::size_t stride = v.stride();
      ASSERT_EQ(prep.panel_count(), (rows + kPanelWidth - 1) / kPanelWidth);
      std::vector<float> packed(stride * kPanelWidth);
      std::vector<float> widened(stride * kPanelWidth);
      for (std::size_t p = 0; p < prep.panel_count(); ++p) {
        const std::size_t r0 = p * kPanelWidth;
        kernels::pack_panel(v.row(r0), stride,
                            std::min(kPanelWidth, rows - r0), stride,
                            packed.data());
        for (const kernels::RzDotKernel* kern : kernels_list) {
          std::fill(widened.begin(), widened.end(), -1.0f);
          kern->widen_panel(prep.panel(p), stride, widened.data());
          for (std::size_t i = 0; i < widened.size(); ++i) {
            ASSERT_EQ(std::bit_cast<std::uint32_t>(packed[i]),
                      std::bit_cast<std::uint32_t>(widened[i]))
                << kern->name << " dims " << dims << " rows " << rows
                << " panel " << p << " k " << i / kPanelWidth << " lane "
                << i % kPanelWidth;
          }
        }
      }
    }
  }
}

TEST(RzDotKernels, EmulatedAndFastPathsMatchHardwareRzOracle) {
  // End to end on adversarial FP16 data: the squared norms, and every
  // pair's distance from both the fast kernel path and the emulated
  // tensor-core data path, equal the epilogue over hardware-RZ chains.
  Rng rng(1717);
  const std::size_t n = 40, dims = 37;
  MatrixF32 data(n, dims);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < dims; ++k) data.at(i, k) = adversarial_fp16(rng);
  }
  const PreparedDataset prep(data);
  const MatrixF32& v = prep.values();
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(prep.norms()[i], hw::rz_dot(v.row(i), v.row(i), v.stride()))
        << i;
  }
  FastedEngine engine;
  for (const ExecutionPath path :
       {ExecutionPath::kFast, ExecutionPath::kEmulated}) {
    JoinOptions opts;
    opts.path = path;
    const auto out = engine.query_join(prep, prep, 1e18f, opts);
    ASSERT_EQ(out.pair_count, n * n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto row = out.result.matches_of(i);
      ASSERT_EQ(row.size(), n);
      for (const QueryMatch& m : row) {
        const float ref = kernels::epilogue_dist2(
            hw::rz_dot(v.row(i), v.row(m.id), v.stride()), prep.norms()[i],
            prep.norms()[m.id]);
        ASSERT_EQ(std::bit_cast<std::uint32_t>(ref),
                  std::bit_cast<std::uint32_t>(m.dist2))
            << (path == ExecutionPath::kFast ? "fast" : "emulated") << " "
            << i << " x " << m.id;
      }
    }
  }
}

TEST(RzDotKernels, HitMasksMatchScalarEpilogueLaneByLane) {
  // dot_panel_hits: bit r of row qi is set iff r < width and
  // epilogue_dist2 <= eps2, for every variant; diagonal tiles keep only
  // lanes_above.  eps2 is sometimes exactly one lane's d2 (a hit).
  Rng rng(3001);
  const auto& kernels_list = kernels::KernelRegistry::global().supported();
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t dims = 1 + rng.next_u64() % 130;
    const std::size_t width = 1 + rng.next_u64() % kPanelWidth;
    const std::size_t nq = 1 + rng.next_u64() % kQueryBlock;
    const auto corpus = fp16_exact_values(rng, width * dims, 2.0);
    const auto queries = fp16_exact_values(rng, nq * dims, 2.0);
    std::vector<float> panel(dims * kPanelWidth);
    kernels::pack_panel(corpus.data(), dims, width, dims, panel.data());
    // Exact-size norm arrays, so any read past `width` trips ASan.
    std::vector<float> sq(nq), sc(width);
    for (std::size_t qi = 0; qi < nq; ++qi) {
      sq[qi] = kernels::rz_dot_pair(queries.data() + qi * dims,
                                    queries.data() + qi * dims, dims);
    }
    for (std::size_t r = 0; r < width; ++r) {
      sc[r] = kernels::rz_dot_pair(corpus.data() + r * dims,
                                   corpus.data() + r * dims, dims);
    }
    std::vector<float> d2(nq * width);
    for (std::size_t qi = 0; qi < nq; ++qi) {
      for (std::size_t r = 0; r < width; ++r) {
        d2[qi * width + r] = kernels::epilogue_dist2(
            kernels::rz_dot_pair(queries.data() + qi * dims,
                                 corpus.data() + r * dims, dims),
            sq[qi], sc[r]);
      }
    }
    // Half the trials put eps2 exactly on a lane's distance.
    const float eps2 =
        trial % 2 == 0
            ? d2[rng.next_u64() % d2.size()]
            : static_cast<float>(rng.uniform(0.0, 4.0 * static_cast<double>(dims)));
    // A diagonal tile places the panel's first row at c0 relative to the
    // block's first query row 0, so some lanes fall on or below i.
    const std::size_t c0 = rng.next_u64() % (kQueryBlock + 2);

    for (const kernels::RzDotKernel* kern : kernels_list) {
      std::vector<float> acc(kQueryBlock * kPanelWidth, -1.0f);
      std::vector<std::uint32_t> masks(kQueryBlock, 0xdeadbeef);
      const kernels::PanelEpilogue ep{sq.data(), sc.data(), width, eps2};
      kern->dot_panel_hits(queries.data(), dims, nq, panel.data(), dims, ep,
                           acc.data(), masks.data());
      for (std::size_t qi = 0; qi < nq; ++qi) {
        std::uint32_t want = 0;
        std::uint32_t want_diag = 0;
        for (std::size_t r = 0; r < width; ++r) {
          if (d2[qi * width + r] <= eps2) {
            want |= 1u << r;
            if (c0 + r > qi) want_diag |= 1u << r;
          }
        }
        ASSERT_EQ(masks[qi], want)
            << kern->name << " trial " << trial << " q " << qi << " width "
            << width << " dims " << dims;
        ASSERT_EQ(masks[qi] & kernels::lanes_above(qi, c0), want_diag)
            << kern->name << " trial " << trial << " q " << qi << " c0 "
            << c0;
        ASSERT_EQ(masks[qi] >> width, 0u) << kern->name << " tail lanes set";
        // The accumulators are dot_panel's, so hit distances can be read
        // back exactly.
        for (std::size_t r = 0; r < width; ++r) {
          ASSERT_EQ(kernels::epilogue_dist2(acc[qi * kPanelWidth + r], sq[qi],
                                            sc[r]),
                    d2[qi * width + r]);
        }
      }
      if (trial % 2 == 0) {
        // The lane eps2 was taken from is a hit in every variant.
        std::uint32_t any = 0;
        for (std::size_t qi = 0; qi < nq; ++qi) any |= masks[qi];
        ASSERT_NE(any, 0u) << kern->name;
      }
    }
  }
}

TEST(RzDotKernels, PackPanelZeroFillsTailLanes) {
  const std::size_t dims = 5;
  std::vector<float> rows(3 * dims);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i] = static_cast<float>(i + 1);
  }
  std::vector<float> panel(dims * kPanelWidth, -7.0f);
  kernels::pack_panel(rows.data(), dims, 3, dims, panel.data());
  for (std::size_t k = 0; k < dims; ++k) {
    for (std::size_t r = 0; r < kPanelWidth; ++r) {
      const float v = panel[k * kPanelWidth + r];
      if (r < 3) {
        EXPECT_EQ(v, rows[r * dims + k]);
      } else {
        EXPECT_EQ(v, 0.0f);
      }
    }
  }
}

TEST(RzDotKernels, RegistryResolvesKnownVariantsOnly) {
  const kernels::KernelRegistry& reg = kernels::KernelRegistry::global();
  // best() is a member of the supported list and every supported name
  // resolves back to its own kernel through find().
  bool best_found = false;
  for (const kernels::RzDotKernel* s : reg.supported()) {
    EXPECT_EQ(reg.find(s->name), s) << s->name;
    if (s == &reg.best()) best_found = true;
  }
  EXPECT_TRUE(best_found) << reg.best().name;
  EXPECT_EQ(reg.find("no-such-kernel"), nullptr);
  // Every compiled-in name is a valid selection; resolve() gives the named
  // kernel when this CPU runs it and best() otherwise (FASTED_RZ_KERNEL,
  // when it pins a kernel, wins over both).
  for (const char* name : {"scalar", "avx2", "avx512"}) {
    EXPECT_TRUE(kernels::kernel_selection_known(name)) << name;
    const kernels::RzDotKernel* named = reg.find(name);
    const kernels::RzDotKernel& want =
        reg.env_pin() != nullptr ? *reg.env_pin()
        : named != nullptr       ? *named
                                 : reg.best();
    EXPECT_EQ(&reg.resolve(name), &want) << name;
    FastedConfig cfg = FastedConfig::paper_defaults();
    cfg.rz_kernel = name;
    EXPECT_EQ(&FastedEngine(cfg).kernel(), &want) << name;
  }
  const kernels::RzDotKernel& auto_want =
      reg.env_pin() != nullptr ? *reg.env_pin() : reg.best();
  EXPECT_EQ(&reg.resolve("auto"), &auto_want);
  EXPECT_EQ(&reg.resolve(""), &auto_want);
  EXPECT_EQ(&FastedEngine().kernel(), &auto_want);
  // Selections are "", "auto" or exactly one name: comma lists, unknown
  // names and the retired avx512fp16 fail validate().
  EXPECT_TRUE(kernels::kernel_selection_known("auto"));
  EXPECT_TRUE(kernels::kernel_selection_known(""));
  for (const char* bad : {"scalar,avx2", "scalar,auto", "avx512fp16",
                          "no-such-kernel", " scalar"}) {
    EXPECT_FALSE(kernels::kernel_selection_known(bad)) << bad;
    FastedConfig cfg = FastedConfig::paper_defaults();
    cfg.rz_kernel = bad;
    EXPECT_THROW(cfg.validate(), CheckError) << bad;
  }
}

TEST(RzDotKernels, ScalarConfigReproducesAutoSelectedJoinExactly) {
  // End-to-end scalar-vs-SIMD equivalence: the whole self-join result set
  // must be identical whichever variant runs.  The pin goes through the
  // config (no ambient override exists anymore).
  const auto data = data::uniform(400, 40, 77);
  FastedEngine engine;
  const auto dispatched = engine.self_join(data, 1.1f);
  FastedConfig scalar_cfg = FastedConfig::paper_defaults();
  scalar_cfg.rz_kernel = "scalar";
  FastedEngine scalar_engine(scalar_cfg);
  const auto scalar = scalar_engine.self_join(data, 1.1f);
  ASSERT_EQ(dispatched.pair_count, scalar.pair_count);
  EXPECT_EQ(dispatched.result.offsets(), scalar.result.offsets());
  EXPECT_EQ(dispatched.result.neighbors(), scalar.result.neighbors());
}

TEST(ResultSinks, CountCsrAndStreamingAgreePairForPair) {
  const auto corpus_data = data::uniform(700, 24, 91);
  const auto query_data = data::uniform(233, 24, 92);
  const float eps = data::calibrate_epsilon(corpus_data, 24.0).eps;
  FastedEngine engine;
  const PreparedDataset corpus(corpus_data);
  const PreparedDataset queries(query_data);

  // CSR sink (build_result) vs count-only sink.
  JoinOptions count_only;
  count_only.build_result = false;
  const auto csr = engine.query_join(queries, corpus, eps);
  const auto counted = engine.query_join(queries, corpus, eps, count_only);
  EXPECT_EQ(csr.pair_count, counted.pair_count);
  EXPECT_EQ(counted.result.num_queries(), 0u);

  // Streaming sink: every query delivered exactly once, matches identical
  // to the CSR rows (ids and distances).
  std::map<std::size_t, std::vector<QueryMatch>> streamed;
  kernels::StreamingSink sink(
      [&](std::size_t q, std::span<const QueryMatch> matches) {
        ASSERT_EQ(streamed.count(q), 0u) << "query delivered twice";
        streamed[q].assign(matches.begin(), matches.end());
      },
      /*num_shards=*/1);
  const CorpusShardView whole{&corpus, 0};
  const std::uint64_t stream_pairs = engine.query_join_into(
      queries, std::span<const CorpusShardView>(&whole, 1), eps, sink);
  sink.finish();
  EXPECT_EQ(stream_pairs, csr.pair_count);
  ASSERT_EQ(streamed.size(), queries.rows());
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    const auto expect = csr.result.matches_of(q);
    const auto& got = streamed[q];
    ASSERT_EQ(got.size(), expect.size()) << q;
    for (std::size_t r = 0; r < expect.size(); ++r) {
      EXPECT_EQ(got[r].id, expect[r].id) << q;
      EXPECT_EQ(got[r].dist2, expect[r].dist2) << q;
    }
  }
}

TEST(ResultSinks, SelfJoinCountMatchesCsrOnBothPaths) {
  const auto data = data::uniform(300, 32, 93);
  FastedEngine engine;
  for (const ExecutionPath path :
       {ExecutionPath::kFast, ExecutionPath::kEmulated}) {
    JoinOptions with_result;
    with_result.path = path;
    JoinOptions count_only = with_result;
    count_only.build_result = false;
    const auto a = engine.self_join(data, 1.0f, with_result);
    const auto b = engine.self_join(data, 1.0f, count_only);
    EXPECT_EQ(a.pair_count, b.pair_count);
    EXPECT_EQ(a.result.pair_count(), a.pair_count);
    EXPECT_EQ(b.result.num_points(), 0u);
  }
}

// --- sharded executor + merging sinks ---------------------------------------

TEST(ShardedExecutor, SelfJoinBitIdenticalForAnyShardCount) {
  const auto data = data::uniform(431, 24, 94);  // prime-ish: uneven splits
  const float eps = data::calibrate_epsilon(data, 24.0).eps;
  FastedEngine engine;
  const PreparedDataset whole(data);
  const auto expect = engine.self_join(whole, eps);

  for (const std::size_t shards : {2u, 3u, 7u}) {
    const PreparedShards split = prepare_shards(data, shards);
    const auto got = engine.self_join(
        split.span(), eps);
    ASSERT_EQ(got.pair_count, expect.pair_count) << shards;
    EXPECT_EQ(got.result.offsets(), expect.result.offsets()) << shards;
    EXPECT_EQ(got.result.neighbors(), expect.result.neighbors()) << shards;
  }
}

TEST(ShardedExecutor, SelfJoinEmulatedPathMatchesFastWhenSharded) {
  const auto data = data::uniform(150, 8, 95);
  FastedEngine engine;
  const PreparedShards split = prepare_shards(data, 3);
  const std::span<const CorpusShardView> views(split.views);

  JoinOptions emulated;
  emulated.path = ExecutionPath::kEmulated;
  const auto fast = engine.self_join(views, 0.8f);
  const auto emu = engine.self_join(views, 0.8f, emulated);
  ASSERT_EQ(fast.pair_count, emu.pair_count);
  EXPECT_EQ(fast.result.offsets(), emu.result.offsets());
  EXPECT_EQ(fast.result.neighbors(), emu.result.neighbors());
}

TEST(ShardedExecutor, QueryJoinBitIdenticalWithPerShardCounts) {
  const auto corpus_data = data::uniform(500, 16, 96);
  const auto query_data = data::uniform(170, 16, 97);
  const float eps = data::calibrate_epsilon(corpus_data, 16.0).eps;
  FastedEngine engine;
  const PreparedDataset corpus(corpus_data);
  const PreparedDataset queries(query_data);
  const auto expect = engine.query_join(queries, corpus, eps);

  for (const std::size_t shards : {2u, 3u, 7u}) {
    const PreparedShards split = prepare_shards(corpus_data, shards);
    const auto got = engine.query_join(
        queries, split.span(), eps);
    ASSERT_EQ(got.pair_count, expect.pair_count) << shards;
    ASSERT_EQ(got.shard_pairs.size(), split.views.size()) << shards;
    std::uint64_t sum = 0;
    for (const std::uint64_t p : got.shard_pairs) sum += p;
    EXPECT_EQ(sum, got.pair_count) << shards;
    ASSERT_EQ(got.result.offsets(), expect.result.offsets()) << shards;
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      const auto a = expect.result.matches_of(q);
      const auto b = got.result.matches_of(q);
      for (std::size_t r = 0; r < a.size(); ++r) {
        ASSERT_EQ(b[r].id, a[r].id) << shards << " q " << q;
        ASSERT_EQ(b[r].dist2, a[r].dist2) << shards << " q " << q;
      }
    }
  }
}

TEST(ShardedExecutor, RejectsNonContiguousShards) {
  const auto data = data::uniform(100, 8, 98);
  FastedEngine engine;
  const PreparedShards split = prepare_shards(data, 2);
  std::vector<CorpusShardView> bad = split.views;
  bad[1].base += 3;  // hole in the global row space
  EXPECT_THROW(engine.self_join(std::span<const CorpusShardView>(bad), 0.5f),
               CheckError);
}

// --- streaming delivery: bounded MPSC ring ----------------------------------

TEST(MpscRing, StressedProducersDeliverEveryItemExactlyOnce) {
  kernels::BoundedMpscRing<std::uint64_t> ring(16);
  ASSERT_EQ(ring.capacity(), 16u);
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 20000;

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        ring.push(p * kPerProducer + i + 1);  // 0 is the empty payload
      }
    });
  }
  std::vector<std::uint32_t> seen(kProducers * kPerProducer, 0);
  std::size_t received = 0;
  std::uint64_t item = 0;
  while (received < kProducers * kPerProducer) {
    if (ring.try_pop(item)) {
      ASSERT_GE(item, 1u);
      ASSERT_LE(item, seen.size());
      ++seen[item - 1];
      ++received;
    } else {
      std::this_thread::yield();
    }
  }
  for (auto& t : producers) t.join();
  EXPECT_FALSE(ring.try_pop(item));  // drained
  for (std::size_t i = 0; i < seen.size(); ++i) {
    ASSERT_EQ(seen[i], 1u) << i;
  }
}

TEST(ResultSinks, MergingStreamingSinkReassemblesShardsPerQuery) {
  const auto corpus_data = data::uniform(450, 12, 101);
  const auto query_data = data::uniform(130, 12, 102);
  const float eps = data::calibrate_epsilon(corpus_data, 16.0).eps;
  FastedEngine engine;
  const PreparedDataset corpus(corpus_data);
  const PreparedDataset queries(query_data);
  const auto expect = engine.query_join(queries, corpus, eps);

  for (const std::size_t shards : {1u, 2u, 5u}) {
    const PreparedShards split = prepare_shards(corpus_data, shards);
    // Small ring (4 strips) so the workers actually hit backpressure.
    std::map<std::size_t, std::vector<QueryMatch>> rows;
    kernels::StreamingSink sink(
        [&](std::size_t q, std::span<const QueryMatch> matches) {
          ASSERT_EQ(rows.count(q), 0u) << "query delivered twice";
          rows[q].assign(matches.begin(), matches.end());
        },
        split.views.size(), /*ring_capacity=*/4);
    const std::uint64_t pairs =
        engine.query_join_into(queries, split.span(), eps, sink);
    sink.finish();

    EXPECT_EQ(pairs, expect.pair_count) << shards;
    ASSERT_EQ(rows.size(), queries.rows()) << shards;
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      const auto want = expect.result.matches_of(q);
      const auto& got = rows[q];
      ASSERT_EQ(got.size(), want.size()) << shards << " q " << q;
      for (std::size_t r = 0; r < want.size(); ++r) {
        ASSERT_EQ(got[r].id, want[r].id) << shards << " q " << q;
        ASSERT_EQ(got[r].dist2, want[r].dist2) << shards << " q " << q;
      }
    }
  }
}

// A throwing callback must not escape the consumer thread (that ends the
// process): the consumer stops calling it, keeps draining so producers
// never block on the full ring, and finish() rethrows on the caller.
TEST(ResultSinks, StreamingSinkRethrowsCallbackErrorFromFinish) {
  struct CallbackFailure {};
  const auto corpus_data = data::uniform(120, 8, 107);
  // Far more query strips than the 4-slot ring holds.
  const PreparedDataset queries(data::uniform(
      16 * static_cast<std::size_t>(
               FastedConfig::paper_defaults().block_tile_m),
      8, 108));
  FastedEngine engine;
  for (const std::size_t shards : {1u, 3u}) {
    const PreparedShards split = prepare_shards(corpus_data, shards);
    bool thrown = false;
    bool called_after_throw = false;
    kernels::StreamingSink sink(
        [&](std::size_t q, std::span<const QueryMatch>) {
          if (thrown) called_after_throw = true;
          if (q == 3) {
            thrown = true;
            throw CallbackFailure{};
          }
        },
        split.views.size(), /*ring_capacity=*/4);
    engine.query_join_into(queries, split.span(), 0.8f, sink);
    EXPECT_THROW(sink.finish(), CallbackFailure) << shards;
    EXPECT_TRUE(thrown) << shards;
    EXPECT_FALSE(called_after_throw) << shards;
  }
}

// DemuxSink sizes its per-shard tallies by num_shards; a tile from a shard
// past that count is rejected instead of written out of bounds.
TEST(ResultSinks, DemuxSinkRejectsTilesFromUnknownShards) {
  const auto data = data::uniform(100, 8, 103);
  FastedEngine engine;
  const PreparedDataset queries(data::uniform(20, 8, 104));
  const PreparedShards split = prepare_shards(data, 2);
  kernels::DemuxSink sink({kernels::DemuxRoute{0, queries.rows(), 0.25f}},
                          /*num_shards=*/1);
  EXPECT_THROW(engine.query_join_into(queries, split.span(), 0.5f, sink),
               CheckError);
}

}  // namespace
}  // namespace fasted
