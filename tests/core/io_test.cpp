#include "core/io.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/fasted.hpp"
#include "data/generators.hpp"

namespace fasted::io {
namespace {

constexpr std::uint32_t kMatrixMagic = 0xfa57ed01;
constexpr std::uint32_t kResultMagic = 0xfa57ed02;

class IoTest : public ::testing::Test {
 protected:
  std::string temp_path(const std::string& name) {
    const auto dir = std::filesystem::temp_directory_path() / "fasted_io";
    std::filesystem::create_directories(dir);
    const auto p = dir / name;
    paths_.push_back(p.string());
    return p.string();
  }
  // A hand-made file in the io.hpp layout: magic, version 1, u64 header
  // and offset words, then u32 neighbor ids — with whatever values a
  // hostile writer chooses.
  std::string raw_file(const std::string& name, std::uint32_t magic,
                       const std::vector<std::uint64_t>& words,
                       const std::vector<std::uint32_t>& ids = {}) {
    const std::string path = temp_path(name);
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    const std::uint32_t version = 1;
    os.write(reinterpret_cast<const char*>(&magic), sizeof magic);
    os.write(reinterpret_cast<const char*>(&version), sizeof version);
    os.write(reinterpret_cast<const char*>(words.data()),
             static_cast<std::streamsize>(words.size() * sizeof(words[0])));
    os.write(reinterpret_cast<const char*>(ids.data()),
             static_cast<std::streamsize>(ids.size() * sizeof(ids[0])));
    return path;
  }
  void TearDown() override {
    for (const auto& p : paths_) std::filesystem::remove(p);
  }
  std::vector<std::string> paths_;
};

TEST_F(IoTest, MatrixRoundTripsExactly) {
  const auto m = data::uniform(123, 37, 5);
  const auto path = temp_path("matrix.bin");
  save_matrix(m, path);
  const auto back = load_matrix(path);
  ASSERT_EQ(back.rows(), m.rows());
  ASSERT_EQ(back.dims(), m.dims());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t k = 0; k < m.dims(); ++k) {
      ASSERT_EQ(back.at(i, k), m.at(i, k));
    }
  }
}

TEST_F(IoTest, MatrixPaddingRestored) {
  // dims=37 pads to 64 in the FP16 layout; loaded matrices must have clean
  // zero padding regardless of what was in memory when saved.
  const auto m = data::uniform(10, 37, 7);
  const auto path = temp_path("padded.bin");
  save_matrix(m, path);
  const auto back = load_matrix(path);
  for (std::size_t i = 0; i < back.rows(); ++i) {
    for (std::size_t k = back.dims(); k < back.stride(); ++k) {
      ASSERT_EQ(back.at(i, k), 0.0f);
    }
  }
}

TEST_F(IoTest, ResultRoundTripsExactly) {
  const auto m = data::uniform(300, 12, 9);
  FastedEngine engine;
  const auto out = engine.self_join(m, 0.6f);
  const auto path = temp_path("result.bin");
  save_result(out.result, path);
  const auto back = load_result(path);
  ASSERT_EQ(back.num_points(), out.result.num_points());
  ASSERT_EQ(back.pair_count(), out.result.pair_count());
  for (std::size_t i = 0; i < back.num_points(); ++i) {
    const auto a = back.neighbors_of(i);
    const auto b = out.result.neighbors_of(i);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) ASSERT_EQ(a[k], b[k]);
  }
}

TEST_F(IoTest, RejectsWrongMagic) {
  const auto m = data::uniform(5, 4, 11);
  const auto mpath = temp_path("m.bin");
  save_matrix(m, mpath);
  EXPECT_THROW(load_result(mpath), CheckError);  // matrix file as result
}

TEST_F(IoTest, RejectsMissingFile) {
  EXPECT_THROW(load_matrix(temp_path("does_not_exist.bin")), CheckError);
}

TEST_F(IoTest, RejectsTruncatedFile) {
  const auto m = data::uniform(50, 16, 13);
  const auto path = temp_path("trunc.bin");
  save_matrix(m, path);
  std::filesystem::resize_file(path, 64);
  EXPECT_THROW(load_matrix(path), CheckError);
}

TEST_F(IoTest, ResultRejectsDecreasingOffsets) {
  // n = 2, one pair, offsets {0, 5, 1}: row 0 would read ids [0, 5).
  const auto path =
      raw_file("decreasing.bin", kResultMagic, {2, 1, 0, 5, 1}, {0});
  EXPECT_THROW(load_result(path), CheckError);
}

TEST_F(IoTest, ResultRejectsRowCountThatWraps) {
  // n = 2^64 - 1: n + 1 offsets wraps to zero.
  const auto path = raw_file("wraps.bin", kResultMagic, {~0ull, 0});
  EXPECT_THROW(load_result(path), CheckError);
}

TEST_F(IoTest, ResultRejectsPairsPastEndOfFile) {
  // A 48-byte file declaring 2^40 pairs (4 TiB of ids).
  const std::uint64_t pairs = 1ull << 40;
  const auto path =
      raw_file("pairs.bin", kResultMagic, {2, pairs, 0, 0, pairs});
  ASSERT_EQ(std::filesystem::file_size(path), 48u);
  EXPECT_THROW(load_result(path), CheckError);
}

TEST_F(IoTest, ResultRejectsIdOutOfRange) {
  // n = 2, one pair, offsets {0, 1, 1}, and the id 1000000: a consumer
  // indexing its n labels by id would write far past them.
  const auto path =
      raw_file("id_range.bin", kResultMagic, {2, 1, 0, 1, 1}, {1000000});
  EXPECT_THROW(load_result(path), CheckError);
}

TEST_F(IoTest, MatrixRejectsSizePastEndOfFile) {
  // A 24-byte file declaring 2^20 x 2^20 floats (4 TiB).
  const auto path =
      raw_file("huge.bin", kMatrixMagic, {1ull << 20, 1ull << 20});
  ASSERT_EQ(std::filesystem::file_size(path), 24u);
  EXPECT_THROW(load_matrix(path), CheckError);
}

// --- Seeded mutation sweep over valid saved files ---------------------
//
// Both loaders parse untrusted files.  Starting from a valid matrix file
// and a valid result file, every mutation below must either throw
// CheckError or load something consistent with the bytes on disk:
//   - truncation at every header byte and at a seeded sample of body
//     offsets (these must throw: every declared size then overruns the
//     file);
//   - seeded single-byte flips anywhere in the file;
//   - each u64 size field set to 0, 2^32 - 1 and 2^64 - 1.

using Bytes = std::vector<char>;

constexpr std::size_t kHeaderBytes = 24;  // magic, version, two u64 sizes
constexpr std::size_t kBodyCuts = 32;
constexpr std::size_t kByteFlips = 256;
constexpr std::uint64_t kSizeValues[] = {0, 0xffffffffull, ~0ull};
constexpr std::size_t kSizeFields[] = {8, 16};  // byte offsets in the header

Bytes read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(is), {});
}

template <typename T>
T word_at(const Bytes& bytes, std::size_t at) {
  T value{};
  std::memcpy(&value, bytes.data() + at, sizeof value);
  return value;
}

// A matrix load is consistent when its shape is the header's and every
// value is the float stored at its place in the body.
void expect_matrix_matches(const MatrixF32& m, const Bytes& bytes,
                           const std::string& label) {
  ASSERT_GE(bytes.size(), kHeaderBytes) << label;
  const auto rows = word_at<std::uint64_t>(bytes, 8);
  const auto dims = word_at<std::uint64_t>(bytes, 16);
  ASSERT_EQ(m.rows(), rows) << label;
  ASSERT_EQ(m.dims(), dims) << label;
  ASSERT_LE(kHeaderBytes + rows * dims * sizeof(float), bytes.size()) << label;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t k = 0; k < m.dims(); ++k) {
      const auto stored = word_at<std::uint32_t>(
          bytes, kHeaderBytes + (i * m.dims() + k) * sizeof(float));
      ASSERT_EQ(std::bit_cast<std::uint32_t>(m.at(i, k)), stored)
          << label << " at " << i << "," << k;
    }
  }
}

// A result load is consistent when it has the header's n and pairs, its
// offsets run from 0 to pairs without decreasing, and every id is < n.
void expect_result_consistent(const SelfJoinResult& r, const Bytes& bytes,
                              const std::string& label) {
  ASSERT_GE(bytes.size(), kHeaderBytes) << label;
  const auto n = word_at<std::uint64_t>(bytes, 8);
  const auto pairs = word_at<std::uint64_t>(bytes, 16);
  ASSERT_EQ(r.num_points(), n) << label;
  ASSERT_EQ(r.pair_count(), pairs) << label;
  const auto& offsets = r.offsets();
  ASSERT_EQ(offsets.size(), n + 1) << label;
  ASSERT_EQ(offsets.front(), 0u) << label;
  ASSERT_EQ(offsets.back(), pairs) << label;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_LE(offsets[i], offsets[i + 1]) << label << " row " << i;
  }
  for (const std::uint32_t id : r.neighbors()) {
    ASSERT_LT(id, n) << label;
  }
}

class IoMutationTest : public IoTest {
 protected:
  // Writes `bytes` to a scratch file and loads it with `load`: a load that
  // returns must pass `check`, a CheckError counts as a rejection, and any
  // other exception fails the test.
  template <typename Load, typename Check>
  void expect_throw_or_consistent(const Bytes& bytes, const Load& load,
                                  const Check& check,
                                  const std::string& label) {
    {
      std::ofstream os(scratch_, std::ios::binary | std::ios::trunc);
      os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    try {
      const auto loaded = load(scratch_);
      ++loaded_;
      check(loaded, bytes, label);
    } catch (const CheckError&) {
      ++rejected_;
    }
  }

  template <typename Load, typename Check>
  void sweep(const Bytes& valid, const Load& load, const Check& check,
             std::uint64_t seed) {
    Rng rng(seed);
    // Truncations: every header byte, then a sample of body offsets.
    std::vector<std::size_t> cuts;
    for (std::size_t at = 0; at < kHeaderBytes; ++at) cuts.push_back(at);
    for (std::size_t c = 0; c < kBodyCuts; ++c) {
      cuts.push_back(kHeaderBytes +
                     rng.next_below(valid.size() - kHeaderBytes));
    }
    for (const std::size_t at : cuts) {
      const std::size_t rejected = rejected_;
      expect_throw_or_consistent(Bytes(valid.begin(), valid.begin() + at),
                                 load, check, "cut " + std::to_string(at));
      EXPECT_EQ(rejected_, rejected + 1) << "cut " << at << " loaded";
    }
    // Byte flips.
    for (std::size_t f = 0; f < kByteFlips; ++f) {
      Bytes bytes = valid;
      const std::size_t at = rng.next_below(bytes.size());
      bytes[at] = static_cast<char>(bytes[at] ^ (1 + rng.next_below(255)));
      expect_throw_or_consistent(bytes, load, check,
                                 "flip at " + std::to_string(at));
    }
    // Size fields at the edges of 0, u32 and u64.
    for (const std::size_t field : kSizeFields) {
      for (const std::uint64_t value : kSizeValues) {
        Bytes bytes = valid;
        std::memcpy(bytes.data() + field, &value, sizeof value);
        expect_throw_or_consistent(
            bytes, load, check,
            "field " + std::to_string(field) + " = " + std::to_string(value));
      }
    }
  }

  // One scratch file per test: ctest runs the cases as parallel processes.
  void SetUp() override {
    scratch_ = temp_path(
        std::string(
            ::testing::UnitTest::GetInstance()->current_test_info()->name()) +
        ".bin");
  }

  std::string scratch_;
  std::size_t loaded_ = 0;
  std::size_t rejected_ = 0;
};

TEST_F(IoMutationTest, MatrixFilesThrowOrLoadConsistently) {
  const auto path = temp_path("valid_matrix.bin");
  save_matrix(data::uniform(13, 7, 21), path);
  const Bytes valid = read_bytes(path);
  ASSERT_EQ(valid.size(), kHeaderBytes + 13 * 7 * sizeof(float));
  sweep(valid, load_matrix, expect_matrix_matches, 0x10a7e1);
  // Flips inside the float payload leave a loadable matrix; flips in the
  // magic, version or sizes do not.
  EXPECT_GT(loaded_, 0u);
  EXPECT_GT(rejected_, 0u);
}

TEST_F(IoMutationTest, ResultFilesThrowOrLoadConsistently) {
  const auto points = data::uniform(40, 6, 22);
  const auto out = FastedEngine().self_join(points, 0.6f);
  ASSERT_GT(out.pair_count, out.result.num_points());  // some real pairs
  const auto path = temp_path("valid_result.bin");
  save_result(out.result, path);
  const Bytes valid = read_bytes(path);
  sweep(valid, load_result, expect_result_consistent, 0x5e1f);
  EXPECT_GT(loaded_, 0u);
  EXPECT_GT(rejected_, 0u);
}

}  // namespace
}  // namespace fasted::io
