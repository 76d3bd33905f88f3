// Correctness oracles for the benchmark program.
//
// Responses are sampled during the timed window (copying the few rows
// needed) and checked after it, so verification never counts in a timing.
// Every check brute-forces the FP16-32 pipeline distance with the scalar
// reference chain (fasted_pair_dist2) — independent of whichever SIMD
// kernel served the request — and compares ids and distances exactly.
// Eps checks and self-join rows can also be scored against FP64 distances
// on the original rows: the paper's Eq. 3 overlap.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "core/fasted.hpp"
#include "core/result.hpp"
#include "service/sharded_corpus.hpp"

namespace bench {

using Snapshot = fasted::service::ShardedCorpus::Snapshot;

// True when local row `local` of the slot's shard is tombstoned.
inline bool row_dead(const fasted::service::ShardedCorpus::ShardSlot& slot,
                     std::size_t local) {
  return slot.dead != nullptr &&
         (((*slot.dead)[local >> 6] >> (local & 63)) & 1u);
}

class Oracle {
 public:
  // Registers one attempted operation and returns its index.
  std::size_t begin_op() { return attempted_++; }

  // The operation failed without a result to check: it threw, was rejected
  // or expired.  `incorrect` marks a wrong result (e.g. an eps batch that
  // returned no pairs).
  void fail(std::size_t op, bool incorrect);

  // One query of an eps response over the snapshot it was served from.
  void check_eps(std::size_t op, std::shared_ptr<const Snapshot> snap,
                 const float* raw_query, std::size_t dims, float eps,
                 std::span<const fasted::QueryMatch> observed,
                 bool score_overlap);

  // One query of a kNN response (distances as the service returns them:
  // the square root of the pipeline squared distance).
  void check_knn(std::size_t op, std::shared_ptr<const Snapshot> snap,
                 const float* raw_query, std::size_t dims, std::size_t k,
                 std::span<const std::uint32_t> ids,
                 std::span<const float> distances);

  // One CSR row of a self-join over `prep` (prepared from `raw`).  Both
  // must outlive verify().
  void check_self_row(std::size_t op, const fasted::MatrixF32& raw,
                      const fasted::PreparedDataset& prep, std::size_t row,
                      float eps, std::span<const std::uint32_t> observed,
                      bool score_overlap);

  // Runs the checks queued since the last call on the thread pool, then
  // drops their snapshots.  Without that, a workload that rebuilds its
  // corpus would keep every old corpus resident until the end of the run,
  // and peak RSS would grow with the number of operations.
  void verify();

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const;
  std::uint64_t incorrect() const;
  std::size_t checks() const { return checks_.size(); }
  // Mean Eq. 3 overlap with FP64 over the scored checks; n = their count.
  double overlap_mean() const;
  std::size_t overlap_n() const;

 private:
  enum class Kind { kEps, kKnn, kSelfRow };
  struct Check {
    Kind kind = Kind::kEps;
    std::size_t op = 0;
    std::shared_ptr<const Snapshot> snap;
    fasted::MatrixF32 query;  // one raw row (eps, knn)
    const fasted::MatrixF32* raw = nullptr;         // self rows
    const fasted::PreparedDataset* prep = nullptr;  // self rows
    std::size_t row = 0;
    float eps = 0;
    std::size_t k = 0;
    std::vector<std::uint32_t> ids;
    std::vector<float> dist2;
    bool score_overlap = false;
    // Filled by verify().
    bool ok = false;
    double overlap = 0;
  };

  void run(Check& c) const;
  // Distinct operations among `ops` and those with a failed check.
  std::uint64_t with_failed_checks(const std::vector<std::size_t>& ops) const;
  static fasted::MatrixF32 copy_row(const float* row, std::size_t dims);

  std::uint64_t attempted_ = 0;
  std::vector<Check> checks_;
  std::size_t verified_ = 0;  // checks_[0, verified_) have run
  std::vector<std::size_t> failed_ops_;
  std::vector<std::size_t> incorrect_ops_;
};

}  // namespace bench
