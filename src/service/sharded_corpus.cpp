#include "service/sharded_corpus.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/topology.hpp"
#include "data/calibrate.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fasted::service {

namespace {

// Lifecycle ops record into the process-global registry (unlike serve
// phases, which are per-service): the corpus is the shared resource, and
// the autotuner wants maintenance cost wherever it was paid.
obs::ConcurrentHistogram& lifecycle_histogram(const char* op) {
  return obs::Registry::global().histogram(std::string("lifecycle.") + op);
}

constexpr std::uint64_t kSampleSeed = 0x5ca1ab1e5e1ec7ull;

// Per-shard calibration sample size: a fixed 1/16 sampling *rate* (so the
// pooled estimate stays unbiased without reweighting games across evenly
// sized shards), floored at 1 and capped so one huge shard cannot make
// calibration quadratic.  The cap skews the per-shard rate, which is why
// the pooled quantile is weight-corrected (see calibrate_over).
std::size_t sample_size(std::size_t rows) {
  return std::clamp<std::size_t>(rows / 16, 1, 256);
}

std::vector<std::uint32_t> pick_sample(std::size_t rows, std::size_t base) {
  const std::size_t m = sample_size(rows);
  Rng rng(kSampleSeed ^ (static_cast<std::uint64_t>(base) * 0x9e3779b97f4a7c15ull) ^
          rows);
  std::vector<std::uint32_t> ids(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    ids[i] = static_cast<std::uint32_t>(i);
  }
  for (std::size_t i = 0; i < m; ++i) {
    std::swap(ids[i], ids[i + rng.next_below(rows - i)]);
  }
  ids.resize(m);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::size_t div_up(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

std::size_t mask_words(std::size_t rows) { return div_up(rows, 64); }

bool mask_bit(const std::vector<std::uint64_t>& mask, std::size_t local) {
  return (mask[local >> 6] >> (local & 63)) & 1u;
}

// The snapshot's slot holding global row `id` (bases ascend, contiguous).
std::size_t slot_of(const ShardedCorpus::Snapshot& snap, std::uint32_t id) {
  const auto it = std::upper_bound(
      snap.begin(), snap.end(), id,
      [](std::uint32_t v, const ShardedCorpus::ShardSlot& s) {
        return v < s.shard->base;
      });
  return static_cast<std::size_t>(it - snap.begin()) - 1;
}

}  // namespace

ShardedCorpus::Shard::Shard(MatrixF32 pts, std::size_t base_row, bool seal,
                            std::uint64_t gen, std::size_t owning_domain)
    : points(std::move(pts)),
      prepared(points),
      base(base_row),
      sealed(seal),
      generation(gen),
      domain(owning_domain),
      sample_ids(pick_sample(points.rows(), base_row)) {}

ShardedCorpus::ShardedCorpus(MatrixF32 corpus, ShardedCorpusOptions options)
    : dims_(corpus.dims()) {
  FASTED_CHECK_MSG(corpus.rows() > 0, "empty corpus");
  FASTED_CHECK_MSG(options.shards >= 1, "need at least one shard");
  capacity_.store(options.shard_capacity != 0
                      ? options.shard_capacity
                      : div_up(corpus.rows(), options.shards),
                  std::memory_order_relaxed);
  domains_ = options.placement_domains != 0
                 ? options.placement_domains
                 : ThreadPool::global().domain_count();

  // Greedy bulk split: full (sealed) shards of `capacity_` rows, the last
  // one open iff it is below capacity.
  const std::size_t cap = capacity_.load(std::memory_order_relaxed);
  auto snap = std::make_shared<Snapshot>();
  const std::size_t n = corpus.rows();
  for (std::size_t base = 0; base < n; base += cap) {
    const std::size_t rows = std::min(cap, n - base);
    // The copy happens inside make_shard's build closure, on the shard's
    // owning domain.
    snap->push_back(ShardSlot{make_shard(
                                  [&] {
                                    MatrixF32 pts(rows, dims_);
                                    std::copy_n(corpus.row(base),
                                                rows * corpus.stride(),
                                                pts.row(0));
                                    return pts;
                                  },
                                  base, rows == cap),
                              nullptr, 0});
  }
  snapshot_ = std::move(snap);
}

std::shared_ptr<const ShardedCorpus::Shard> ShardedCorpus::build_shard(
    const std::function<MatrixF32()>& build_points, std::size_t base,
    bool sealed, std::size_t domain,
    std::optional<std::uint64_t> generation) {
  const std::uint64_t gen = generation ? *generation : next_generation_++;
  ThreadPool& pool = ThreadPool::global();
  if (pool.domain_count() <= 1) {
    return std::make_shared<const Shard>(build_points(), base, sealed, gen,
                                         domain);
  }
  // Build the shard ON its owning domain: the row copy and every
  // allocation and fill loop of the prepared panels run on a worker pinned
  // there, so the pages are first-touched — physically placed — where the
  // shard's joins will drain.  Nested parallel_fors inside the build
  // inline onto that worker: the build is one-worker-serial, a deliberate
  // trade — placement must follow the ALLOCATING thread (vector zero-fill
  // is the first touch), and a rebuild is bounded by shard_capacity while
  // the joins it accelerates are not.
  std::shared_ptr<const Shard> shard;
  pool.run_on_domain(domain, 0, 1, [&](std::size_t, std::size_t) {
    shard = std::make_shared<const Shard>(build_points(), base, sealed, gen,
                                          domain);
  });
  return shard;
}

std::shared_ptr<const ShardedCorpus::Shard> ShardedCorpus::make_shard(
    const std::function<MatrixF32()>& build_points, std::size_t base,
    bool sealed) {
  // Round-robin placement by shard ordinal (shards are capacity-sized and
  // contiguous, so base / capacity IS the ordinal — append rebuilds of the
  // open shard land back on the same domain).
  const std::size_t domain =
      (base / capacity_.load(std::memory_order_relaxed)) % domains_;
  return build_shard(build_points, base, sealed, domain);
}

void ShardedCorpus::publish(Snapshot next, bool invalidate_calibration) {
  auto snap = std::make_shared<const Snapshot>(std::move(next));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot_ = snap;
    ++epoch_;
    if (invalidate_calibration) calibration_.clear();
  }
  // Prune calibration blocks aimed at shard builds that no longer exist
  // (replaced open shards, compacted-away chunks); blocks between surviving
  // shards are kept.  Migration reuses generations, so its blocks survive.
  std::vector<std::uint64_t> live;
  live.reserve(snap->size());
  for (const ShardSlot& slot : *snap) live.push_back(slot.shard->generation);
  for (const ShardSlot& slot : *snap) {
    std::lock_guard<std::mutex> lock(slot.shard->cache_mutex);
    std::erase_if(slot.shard->calib_blocks, [&](const auto& entry) {
      return std::find(live.begin(), live.end(), entry.first) == live.end();
    });
  }
}

std::shared_ptr<const ShardedCorpus::Snapshot> ShardedCorpus::snapshot()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_;
}

std::size_t ShardedCorpus::size() const {
  const auto snap = snapshot();
  return snap->back().shard->base + snap->back().shard->rows();
}

std::size_t ShardedCorpus::alive() const { return alive_rows(*snapshot()); }

std::size_t ShardedCorpus::shard_count() const { return snapshot()->size(); }

std::vector<CorpusShardView> ShardedCorpus::shard_views(const Snapshot& snap) {
  std::vector<CorpusShardView> views;
  views.reserve(snap.size());
  for (const ShardSlot& slot : snap) {
    views.push_back(CorpusShardView{&slot.shard->prepared, slot.shard->base,
                                    slot.shard->domain});
  }
  return views;
}

kernels::TombstoneFilter ShardedCorpus::tombstone_filter(const Snapshot& snap) {
  std::vector<kernels::TombstoneSpan> spans;
  spans.reserve(snap.size());
  for (const ShardSlot& slot : snap) {
    spans.push_back(kernels::TombstoneSpan{
        slot.shard->base, slot.shard->rows(),
        slot.dead != nullptr ? slot.dead->data() : nullptr});
  }
  return kernels::TombstoneFilter(std::move(spans));
}

std::size_t ShardedCorpus::alive_rows(const Snapshot& snap) {
  std::size_t alive = 0;
  for (const ShardSlot& slot : snap) {
    alive += slot.shard->rows() - slot.dead_count;
  }
  return alive;
}

const PreparedDataset& ShardedCorpus::prepared(std::size_t shard) const {
  const auto snap = snapshot();
  FASTED_CHECK_MSG(shard < snap->size(), "shard index out of range");
  return (*snap)[shard].shard->prepared;
}

std::shared_ptr<const std::vector<double>> ShardedCorpus::block_of(
    const Shard& s, const Shard& t) {
  {
    std::lock_guard<std::mutex> lock(s.cache_mutex);
    const auto it = s.calib_blocks.find(t.generation);
    if (it != s.calib_blocks.end()) return it->second;
  }
  // FP64 distances from s's sample rows to every row of t, self-pairs
  // excluded when s and t are the same shard build.  The scan streams every
  // row of t, so the guard routes it to t's owning domain — the existing
  // parallel_for becomes domain-resident without changing its shape.
  const bool self = s.generation == t.generation;
  const std::size_t nt = t.rows();
  const std::size_t per_sample = nt - (self ? 1 : 0);
  auto block = std::make_shared<std::vector<double>>(s.sample_ids.size() *
                                                     per_sample);
  {
    ThreadPool::DomainGuard route(t.domain);
    parallel_for(0, s.sample_ids.size(), [&](std::size_t lo, std::size_t hi) {
      for (std::size_t a = lo; a < hi; ++a) {
        const std::uint32_t sid = s.sample_ids[a];
        const float* p = s.points.row(sid);
        std::size_t w = a * per_sample;
        for (std::size_t j = 0; j < nt; ++j) {
          if (self && j == sid) continue;
          (*block)[w++] = data::dist2_f64(p, t.points.row(j), t.points.dims());
        }
      }
    });
  }
  bool inserted;
  std::shared_ptr<const std::vector<double>> out;
  {
    std::lock_guard<std::mutex> lock(s.cache_mutex);
    const auto [it, fresh] = s.calib_blocks.emplace(t.generation, block);
    inserted = fresh;
    out = it->second;
  }
  if (inserted) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.calibration_blocks_built;
  }
  return out;
}

float ShardedCorpus::calibrate_over(const Snapshot& snap, double target) {
  const std::size_t n = snap.back().shard->base + snap.back().shard->rows();
  FASTED_CHECK_MSG(n >= 2, "calibration needs at least two points");
  FASTED_CHECK_MSG(target > 0, "selectivity must be positive");

  // Pool every shard's sample blocks under per-shard weights that undo the
  // (capped) sampling rates: shard s contributes P(dist <= eps | q in s)
  // estimated from m_s sample rows x (n - 1) candidates, weighted by its
  // population share n_s / n.  The weighted `frac` quantile of the pooled
  // distances is then the radius whose mean neighbor count hits `target`,
  // exactly as in data::calibrate_epsilon.
  //
  // Deletes: joins filter tombstoned corpus rows, so a radius calibrated
  // over physical rows OVER-matches on a tombstoned corpus (a target of 64
  // with half the corpus dead would really land ~32 surviving neighbors).
  // The cached blocks stay delete-independent — sealed shards cache them
  // forever and a rebuild per erase would be O(sample x n x d) — so the
  // correction is applied at pooling time instead: each candidate shard t's
  // distances keep their full weight in the quantile NORMALIZER (`total`,
  // physical candidates) but count toward the cumulative sum scaled by t's
  // alive fraction, making the crossing radius the one whose expected
  // SURVIVING neighbor count hits `target`.  With no deletes every alive
  // fraction is 1 and the quantile is bit-identical to the uncorrected one.
  struct Weighted {
    double d2;
    double w;  // per-distance weight scaled by the candidate shard's
               // alive fraction (the cumulative-sum side)
  };
  // Blocks first (building any that are missing), so the pool is sized
  // once instead of reallocating for every block.
  std::vector<std::shared_ptr<const std::vector<double>>> blocks;
  blocks.reserve(snap.size() * snap.size());
  std::size_t pooled = 0;
  for (const ShardSlot& sslot : snap) {
    for (const ShardSlot& tslot : snap) {
      blocks.push_back(block_of(*sslot.shard, *tslot.shard));
      pooled += blocks.back()->size();
    }
  }
  std::vector<Weighted> pool;
  pool.reserve(pooled);
  double total = 0;  // unscaled pool weight (the normalizer side)
  auto block = blocks.begin();
  for (const ShardSlot& sslot : snap) {
    const Shard& s = *sslot.shard;
    const double share = static_cast<double>(s.rows()) / static_cast<double>(n);
    const double per_dist =
        share / (static_cast<double>(s.sample_ids.size()) *
                 static_cast<double>(n - 1));
    for (const ShardSlot& tslot : snap) {
      const std::size_t t_rows = tslot.shard->rows();
      const double alive_frac =
          t_rows == 0 ? 1.0
                      : static_cast<double>(t_rows - tslot.dead_count) /
                            static_cast<double>(t_rows);
      const double alive_dist = per_dist * alive_frac;
      for (const double d2 : **block) {
        pool.push_back(Weighted{d2, alive_dist});
      }
      total += per_dist * static_cast<double>((*block)->size());
      ++block;
    }
  }
  std::sort(pool.begin(), pool.end(),
            [](const Weighted& a, const Weighted& b) { return a.d2 < b.d2; });

  const double frac =
      std::min(1.0, target / static_cast<double>(n - 1));
  const double cut = frac * total;
  double cum = 0;
  for (const Weighted& x : pool) {
    cum += x.w;
    if (cum >= cut) return static_cast<float>(std::sqrt(x.d2));
  }
  return static_cast<float>(std::sqrt(pool.back().d2));
}

float ShardedCorpus::eps_for_selectivity(double target) {
  std::shared_ptr<const Snapshot> snap;
  std::uint64_t epoch;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = calibration_.find(target);
    if (it != calibration_.end()) {
      ++stats_.calibration_hits;
      return it->second;
    }
    snap = snapshot_;
    epoch = epoch_;
  }
  // Estimate outside the lock: block builds are O(sample * n * d) and must
  // not serialize concurrent requests for already-cached targets.
  const float eps = calibrate_over(*snap, target);
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.calibration_misses;
  // Only cache if no mutation invalidated the snapshot we calibrated on.
  if (epoch_ == epoch) calibration_.emplace(target, eps);
  return eps;
}

void ShardedCorpus::append(const MatrixF32& rows) {
  FASTED_CHECK_MSG(rows.rows() > 0, "empty append");
  FASTED_CHECK_MSG(rows.dims() == dims_,
                   "append dimensionality mismatch");
  static obs::ConcurrentHistogram& hist = lifecycle_histogram("append");
  obs::PhaseTimer timer(hist);
  obs::TraceSpan span("append", "lifecycle");
  std::lock_guard<std::mutex> append_lock(append_mutex_);
  const std::size_t cap = capacity_.load(std::memory_order_relaxed);

  Snapshot next = *snapshot();
  std::size_t consumed = 0;
  std::uint64_t sealed_events = 0;
  std::uint64_t rebuilds = 0;
  while (consumed < rows.rows()) {
    ShardSlot& back = next.back();
    const bool extend = !back.shard->sealed;
    const Shard& open = *back.shard;
    const std::size_t have = extend ? open.rows() : 0;
    const std::size_t base = extend ? open.base : open.base + open.rows();
    const std::size_t take =
        std::min(cap - have, rows.rows() - consumed);

    // Rebuild (or open) the newest shard with the extra rows.  Sealed
    // shards are untouched: their Shard objects — and therefore their
    // prepared data and calibration blocks — carry over by pointer.
    // Both copies run inside the build closure, on the owning domain.
    if (extend) ++rebuilds;
    const bool seal = have + take == cap;
    if (seal) ++sealed_events;
    const auto build = [&] {
      MatrixF32 pts(have + take, dims_);
      if (extend) {
        std::copy_n(open.points.row(0), have * open.points.stride(),
                    pts.row(0));
      }
      std::copy_n(rows.row(consumed), take * rows.stride(),
                  pts.row(have));
      return pts;
    };
    // Extension keeps the open shard's CURRENT domain (it may have been
    // migrated off its round-robin slot); fresh shards place by formula.
    auto shard = extend ? build_shard(build, base, seal, open.domain)
                        : make_shard(build, base, seal);
    if (extend) {
      // The open shard's tombstones carry over — local ids are stable
      // under extension — into a mask resized for the grown row count.
      if (back.dead != nullptr) {
        auto mask = std::make_shared<std::vector<std::uint64_t>>(
            mask_words(have + take), 0);
        std::copy(back.dead->begin(), back.dead->end(), mask->begin());
        back.dead = std::move(mask);
      }
      back.shard = std::move(shard);
    } else {
      next.push_back(ShardSlot{std::move(shard), nullptr, 0});
    }
    consumed += take;
  }

  publish(std::move(next), /*invalidate_calibration=*/true);
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.appends;
  stats_.rows_appended += rows.rows();
  stats_.shards_sealed += sealed_events;
  stats_.open_rebuilds += rebuilds;
}

std::size_t ShardedCorpus::erase(std::span<const std::uint32_t> ids) {
  if (ids.empty()) return 0;
  static obs::ConcurrentHistogram& hist = lifecycle_histogram("erase");
  obs::PhaseTimer timer(hist);
  obs::TraceSpan span("erase", "lifecycle");
  std::lock_guard<std::mutex> append_lock(append_mutex_);
  Snapshot next = *snapshot();
  const std::size_t total = next.back().shard->base + next.back().shard->rows();

  // Copy-on-write per touched shard mask: pinned snapshots keep the masks
  // they were taken with, so a delete never changes an in-flight query.
  std::vector<std::shared_ptr<std::vector<std::uint64_t>>> fresh(next.size());
  std::size_t newly = 0;
  for (const std::uint32_t id : ids) {
    FASTED_CHECK_MSG(id < total, "erase id out of range");
    const std::size_t si = slot_of(next, id);
    ShardSlot& slot = next[si];
    const std::size_t local = id - slot.shard->base;
    if (fresh[si] == nullptr) {
      fresh[si] = slot.dead != nullptr
                      ? std::make_shared<std::vector<std::uint64_t>>(
                            *slot.dead)
                      : std::make_shared<std::vector<std::uint64_t>>(
                            mask_words(slot.shard->rows()), 0);
    }
    std::uint64_t& word = (*fresh[si])[local >> 6];
    const std::uint64_t bit = 1ull << (local & 63);
    if ((word & bit) == 0) {
      word |= bit;
      ++slot.dead_count;
      ++newly;
    }
  }
  if (newly == 0) return 0;
  for (std::size_t si = 0; si < next.size(); ++si) {
    if (fresh[si] != nullptr) next[si].dead = std::move(fresh[si]);
  }

  // Deletes change the alive fractions the calibration quantile is scaled
  // by, so cached target -> eps entries are stale; the FP64 distance blocks
  // themselves are delete-independent and survive (calibrate_over re-pools
  // them under the new fractions — no block rebuilds).
  publish(std::move(next), /*invalidate_calibration=*/true);
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.erases;
  stats_.rows_erased += newly;
  return newly;
}

CompactReport ShardedCorpus::compact(const CompactOptions& options) {
  static obs::ConcurrentHistogram& hist = lifecycle_histogram("compact");
  obs::PhaseTimer timer(hist);
  obs::TraceSpan span("compact", "lifecycle");
  std::lock_guard<std::mutex> append_lock(append_mutex_);
  const auto snap = snapshot();
  const std::size_t cap = options.shard_capacity != 0
                              ? options.shard_capacity
                              : capacity_.load(std::memory_order_relaxed);

  CompactReport report;
  report.shards_before = snap->size();

  // Per-shard drop decision: tombstones become physical when the shard's
  // dead fraction passes the threshold.  Kept tombstones stay masked (and
  // keep occupying global ids); dropped ones renumber every later row.
  std::vector<char> drop(snap->size(), 0);
  std::size_t survivors = 0;
  for (std::size_t i = 0; i < snap->size(); ++i) {
    const ShardSlot& slot = (*snap)[i];
    const std::size_t rows = slot.shard->rows();
    if (slot.dead_count > 0 &&
        static_cast<double>(slot.dead_count) >=
            options.dead_fraction * static_cast<double>(rows)) {
      drop[i] = 1;
      report.rows_dropped += slot.dead_count;
      survivors += rows - slot.dead_count;
    } else {
      survivors += rows;
    }
  }
  FASTED_CHECK_MSG(survivors > 0, "compaction would empty the corpus");

  // The surviving row stream in global order, as (slot, local) coordinates.
  struct SrcRow {
    std::uint32_t slot;
    std::uint32_t local;
  };
  std::vector<SrcRow> stream;
  stream.reserve(survivors);
  for (std::size_t i = 0; i < snap->size(); ++i) {
    const ShardSlot& slot = (*snap)[i];
    for (std::size_t r = 0; r < slot.shard->rows(); ++r) {
      if (drop[i] && mask_bit(*slot.dead, r)) continue;
      stream.push_back(SrcRow{static_cast<std::uint32_t>(i),
                              static_cast<std::uint32_t>(r)});
    }
  }

  // Re-chunk into `cap`-row shards.  A chunk that is exactly one existing
  // shard — same base, same rows, nothing dropped, seal state agreeing
  // with its position — is carried over by pointer (mask and caches
  // included); every other chunk rebuilds on its round-robin domain
  // through the same build path appends use.
  Snapshot next;
  next.reserve(div_up(survivors, cap));
  for (std::size_t c0 = 0; c0 < survivors; c0 += cap) {
    const std::size_t c1 = std::min(c0 + cap, survivors);
    const bool seal = c1 - c0 == cap;
    const SrcRow& first = stream[c0];
    const ShardSlot& src = (*snap)[first.slot];
    if (first.local == 0 && !drop[first.slot] &&
        src.shard->base == c0 && src.shard->rows() == c1 - c0 &&
        src.shard->sealed == seal) {
      next.push_back(src);
      continue;
    }
    ++report.shards_rebuilt;
    const std::size_t domain = (c0 / cap) % domains_;
    auto shard = build_shard(
        [&] {
          MatrixF32 pts(c1 - c0, dims_);
          for (std::size_t r = c0; r < c1; ++r) {
            const SrcRow& sr = stream[r];
            const MatrixF32& pts_src = (*snap)[sr.slot].shard->points;
            std::copy_n(pts_src.row(sr.local), pts_src.stride(),
                        pts.row(r - c0));
          }
          return pts;
        },
        c0, seal, domain);
    // Tombstones kept (below-threshold shards) re-slice into the chunk.
    std::shared_ptr<std::vector<std::uint64_t>> mask;
    std::size_t dead = 0;
    for (std::size_t r = c0; r < c1; ++r) {
      const SrcRow& sr = stream[r];
      const ShardSlot& s = (*snap)[sr.slot];
      if (s.dead == nullptr || drop[sr.slot] || !mask_bit(*s.dead, sr.local)) {
        continue;
      }
      if (mask == nullptr) {
        mask = std::make_shared<std::vector<std::uint64_t>>(
            mask_words(c1 - c0), 0);
      }
      (*mask)[(r - c0) >> 6] |= 1ull << ((r - c0) & 63);
      ++dead;
    }
    next.push_back(ShardSlot{std::move(shard), std::move(mask), dead});
  }
  report.shards_after = next.size();

  capacity_.store(cap, std::memory_order_relaxed);
  publish(std::move(next), /*invalidate_calibration=*/true);
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.compactions;
  stats_.compaction_rows_dropped += report.rows_dropped;
  stats_.compaction_shards_rebuilt += report.shards_rebuilt;
  return report;
}

bool ShardedCorpus::migrate_in(Snapshot& next, std::size_t ordinal,
                               std::size_t target_domain) {
  FASTED_CHECK_MSG(ordinal < next.size(), "shard ordinal out of range");
  ShardSlot& slot = next[ordinal];
  const std::shared_ptr<const Shard> old = slot.shard;
  if (old->domain == target_domain) return false;

  // The append rebuild path pointed at a different domain: rows, base,
  // seal state, and GENERATION are preserved (same logical build, new
  // pages), so every calibration block keyed on this shard stays valid;
  // its own block cache is carried across.
  auto moved = build_shard(
      [&] {
        MatrixF32 pts(old->rows(), dims_);
        std::copy_n(old->points.row(0), old->rows() * old->points.stride(),
                    pts.row(0));
        return pts;
      },
      old->base, old->sealed, target_domain, old->generation);
  {
    std::scoped_lock locks(old->cache_mutex, moved->cache_mutex);
    moved->calib_blocks = old->calib_blocks;
  }
  slot.shard = std::move(moved);  // the tombstone mask rides along
  return true;
}

void ShardedCorpus::migrate(std::size_t ordinal, std::size_t target_domain) {
  static obs::ConcurrentHistogram& hist = lifecycle_histogram("migrate");
  obs::PhaseTimer timer(hist);
  obs::TraceSpan span("migrate", "lifecycle", static_cast<int>(target_domain),
                      static_cast<int>(ordinal));
  std::lock_guard<std::mutex> append_lock(append_mutex_);
  Snapshot next = *snapshot();
  if (!migrate_in(next, ordinal, target_domain)) return;
  publish(std::move(next), /*invalidate_calibration=*/false);
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.shards_migrated;
}

RebalanceReport ShardedCorpus::rebalance(const RebalanceOptions& options) {
  static obs::ConcurrentHistogram& hist = lifecycle_histogram("rebalance");
  obs::PhaseTimer timer(hist);
  obs::TraceSpan span("rebalance", "lifecycle");
  RebalanceReport report;
  ThreadPool& pool = ThreadPool::global();

  // One mutator hold for the whole pass — selection and migration must see
  // the same snapshot, or a concurrent compact() could renumber the
  // ordinals out from under the moves.
  std::lock_guard<std::mutex> append_lock(append_mutex_);
  // Load generated per domain since OUR last pass, via the pool's
  // instance-aware delta helper (a baseline from before a reset_global is
  // detected and the new pool's cumulative reading used as-is).
  const std::vector<DomainLoad> since =
      pool.domain_loads_since(rebalance_baseline_);
  rebalance_baseline_ = pool.domain_load_snapshot();
  std::vector<std::uint64_t> delta(since.size(), 0);
  for (std::size_t d = 0; d < since.size(); ++d) {
    delta[d] = since[d].total();
  }
  if (since.size() <= 1) return report;

  const std::size_t from = static_cast<std::size_t>(
      std::max_element(delta.begin(), delta.end()) - delta.begin());
  // Lightest domain OTHER than the source (ties on equal load must still
  // pick a distinct target).
  std::size_t target = from == 0 ? 1 : 0;
  for (std::size_t d = 0; d < delta.size(); ++d) {
    if (d != from && delta[d] < delta[target]) target = d;
  }
  report.from_domain = from;
  report.to_domain = target;
  if (delta[from] == 0) return report;
  if (static_cast<double>(delta[from]) <
      options.min_imbalance *
          static_cast<double>(std::max<std::uint64_t>(1, delta[target]))) {
    return report;
  }

  // Largest shards routed to the overloaded domain move first (domains
  // are compared modulo the pool's domain count, like the executor
  // routes them).
  Snapshot next = *snapshot();
  std::vector<std::size_t> owned;
  for (std::size_t i = 0; i < next.size(); ++i) {
    if (next[i].shard->domain % since.size() == from) owned.push_back(i);
  }
  std::sort(owned.begin(), owned.end(), [&](std::size_t a, std::size_t b) {
    return next[a].shard->rows() > next[b].shard->rows();
  });
  owned.resize(std::min(owned.size(), options.max_moves));
  for (const std::size_t ordinal : owned) {
    if (migrate_in(next, ordinal, target)) ++report.moved;
  }
  if (report.moved != 0) {
    publish(std::move(next), /*invalidate_calibration=*/false);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.rebalances;
    stats_.shards_migrated += report.moved;
  }
  return report;
}

ShardedStats ShardedCorpus::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::vector<ShardInfo> ShardedCorpus::shard_infos() const {
  const auto snap = snapshot();
  std::vector<ShardInfo> infos;
  infos.reserve(snap->size());
  for (const ShardSlot& slot : *snap) {
    const Shard& shard = *slot.shard;
    ShardInfo info;
    info.base = shard.base;
    info.rows = shard.rows();
    info.dead = slot.dead_count;
    info.sealed = shard.sealed;
    info.generation = shard.generation;
    info.domain = shard.domain;
    {
      std::lock_guard<std::mutex> lock(shard.cache_mutex);
      info.calibration_blocks = shard.calib_blocks.size();
    }
    infos.push_back(info);
  }
  return infos;
}

}  // namespace fasted::service
