#include "core/io.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <vector>

#include "common/check.hpp"

namespace fasted::io {

namespace {

constexpr std::uint32_t kMatrixMagic = 0xfa57ed01;
constexpr std::uint32_t kResultMagic = 0xfa57ed02;
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ofstream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
T read_pod(std::ifstream& is) {
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof value);
  FASTED_CHECK_MSG(static_cast<bool>(is), "truncated file");
  return value;
}

std::ofstream open_out(const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  FASTED_CHECK_MSG(os.is_open(), "cannot open for writing: " + path);
  return os;
}

std::ifstream open_in(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  FASTED_CHECK_MSG(is.is_open(), "cannot open for reading: " + path);
  return is;
}

// Bytes from the read position to the end of the file: every size a header
// declares is checked against this before anything is allocated.
std::uint64_t bytes_left(std::ifstream& is) {
  const std::streampos pos = is.tellg();
  is.seekg(0, std::ios::end);
  const std::streampos end = is.tellg();
  is.seekg(pos);
  FASTED_CHECK_MSG(static_cast<bool>(is) && pos >= 0 && end >= pos,
                   "unseekable file");
  return static_cast<std::uint64_t>(end - pos);
}

}  // namespace

void save_matrix(const MatrixF32& m, const std::string& path) {
  auto os = open_out(path);
  write_pod(os, kMatrixMagic);
  write_pod(os, kVersion);
  write_pod(os, static_cast<std::uint64_t>(m.rows()));
  write_pod(os, static_cast<std::uint64_t>(m.dims()));
  for (std::size_t i = 0; i < m.rows(); ++i) {
    os.write(reinterpret_cast<const char*>(m.row(i)),
             static_cast<std::streamsize>(m.dims() * sizeof(float)));
  }
  FASTED_CHECK_MSG(static_cast<bool>(os), "write failed: " + path);
}

MatrixF32 load_matrix(const std::string& path) {
  auto is = open_in(path);
  FASTED_CHECK_MSG(read_pod<std::uint32_t>(is) == kMatrixMagic,
                   "not a fasted matrix file: " + path);
  FASTED_CHECK_MSG(read_pod<std::uint32_t>(is) == kVersion,
                   "unsupported version: " + path);
  const auto rows = read_pod<std::uint64_t>(is);
  const auto dims = read_pod<std::uint64_t>(is);
  FASTED_CHECK_MSG(rows > 0 && dims > 0, "empty matrix file: " + path);
  // rows x dims floats must fit in the rest of the file; dividing instead
  // of multiplying keeps the comparison from wrapping.
  FASTED_CHECK_MSG(dims <= bytes_left(is) / sizeof(float) / rows,
                   "matrix size past end of file: " + path);
  MatrixF32 m(rows, dims);
  for (std::size_t i = 0; i < rows; ++i) {
    is.read(reinterpret_cast<char*>(m.row(i)),
            static_cast<std::streamsize>(dims * sizeof(float)));
  }
  FASTED_CHECK_MSG(static_cast<bool>(is), "truncated matrix file: " + path);
  return m;
}

void save_result(const SelfJoinResult& r, const std::string& path) {
  auto os = open_out(path);
  write_pod(os, kResultMagic);
  write_pod(os, kVersion);
  write_pod(os, static_cast<std::uint64_t>(r.num_points()));
  write_pod(os, static_cast<std::uint64_t>(r.pair_count()));
  os.write(reinterpret_cast<const char*>(r.offsets().data()),
           static_cast<std::streamsize>(r.offsets().size() *
                                        sizeof(std::uint64_t)));
  os.write(reinterpret_cast<const char*>(r.neighbors().data()),
           static_cast<std::streamsize>(r.neighbors().size() *
                                        sizeof(std::uint32_t)));
  FASTED_CHECK_MSG(static_cast<bool>(os), "write failed: " + path);
}

SelfJoinResult load_result(const std::string& path) {
  auto is = open_in(path);
  FASTED_CHECK_MSG(read_pod<std::uint32_t>(is) == kResultMagic,
                   "not a fasted result file: " + path);
  FASTED_CHECK_MSG(read_pod<std::uint32_t>(is) == kVersion,
                   "unsupported version: " + path);
  const auto n = read_pod<std::uint64_t>(is);
  const auto pairs = read_pod<std::uint64_t>(is);
  // n + 1 offsets, then `pairs` ids, must fit in the rest of the file.  The
  // comparisons divide instead of multiplying, and n < left / 8 also keeps
  // n + 1 from wrapping.
  std::uint64_t left = bytes_left(is);
  FASTED_CHECK_MSG(n < left / sizeof(std::uint64_t),
                   "result offsets past end of file: " + path);
  left -= (n + 1) * sizeof(std::uint64_t);
  FASTED_CHECK_MSG(pairs <= left / sizeof(std::uint32_t),
                   "result ids past end of file: " + path);
  std::vector<std::uint64_t> offsets(n + 1);
  is.read(reinterpret_cast<char*>(offsets.data()),
          static_cast<std::streamsize>(offsets.size() * sizeof(std::uint64_t)));
  std::vector<std::uint32_t> neighbors(pairs);
  is.read(reinterpret_cast<char*>(neighbors.data()),
          static_cast<std::streamsize>(neighbors.size() *
                                       sizeof(std::uint32_t)));
  FASTED_CHECK_MSG(static_cast<bool>(is), "truncated result file: " + path);
  // Offsets run from 0 to `pairs` and never decrease, so every row's
  // [offsets[i], offsets[i + 1]) lies inside the id array.
  FASTED_CHECK_MSG(offsets.front() == 0 && offsets.back() == pairs &&
                       std::is_sorted(offsets.begin(), offsets.end()),
                   "corrupt CSR offsets: " + path);
  // Ids index the n points; consumers (dbscan_from_join) index by them.
  FASTED_CHECK_MSG(std::all_of(neighbors.begin(), neighbors.end(),
                               [n](std::uint32_t id) { return id < n; }),
                   "result neighbor id out of range: " + path);

  std::vector<std::vector<std::uint32_t>> rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    rows[i].assign(neighbors.begin() + static_cast<std::ptrdiff_t>(offsets[i]),
                   neighbors.begin() +
                       static_cast<std::ptrdiff_t>(offsets[i + 1]));
  }
  return SelfJoinResult::from_rows(std::move(rows));
}

}  // namespace fasted::io
