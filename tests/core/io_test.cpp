#include "core/io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "common/check.hpp"
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

TEST_F(IoTest, MatrixRejectsSizePastEndOfFile) {
  // A 24-byte file declaring 2^20 x 2^20 floats (4 TiB).
  const auto path =
      raw_file("huge.bin", kMatrixMagic, {1ull << 20, 1ull << 20});
  ASSERT_EQ(std::filesystem::file_size(path), 24u);
  EXPECT_THROW(load_matrix(path), CheckError);
}

}  // namespace
}  // namespace fasted::io
