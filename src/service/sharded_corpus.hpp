// The resident corpus of a serving session: sharded and mutable.
//
// Production query traffic joins a stream of query batches against the
// same corpus, so the per-corpus work — FP16 quantization, squared-norm
// precompute (Step 1), selectivity calibration — is paid once at ingest and
// amortized across every request.  A service also cannot re-ingest
// everything per update.  ShardedCorpus splits the logical corpus into N
// contiguous shards (N = 1 for an undivided corpus), each owning its
// original rows, PreparedDataset (FP16 + RZ norms) and a calibration
// sample, and makes the corpus mutable:
//
//   append(rows)  ingests into the newest shard.  Only that shard is
//                 re-prepared; once a shard reaches `shard_capacity` rows it
//                 SEALS (its artifacts are immutable from then on) and the
//                 next append opens a fresh shard.  Sealed shards'
//                 calibration blocks survive every append untouched.
//
// Readers never block on growth: the shard list is copy-on-write.  Each
// query takes a snapshot (a shared_ptr'd vector of shared_ptr'd shards) and
// serves from it; append builds a replacement open shard on the side and
// swaps the list pointer.  Sealed shard objects are shared between
// snapshots, which is what makes cache survival a pointer identity, not a
// recomputation.
//
// The merge invariant that makes sharding safe: global row id = shard base
// + local row, and every per-row artifact (FP16 quantization, RZ norm,
// pairwise pipeline distance) depends only on the row itself — so any shard
// count, and any append history producing the same global row order, yields
// eps-join/knn results bit-identical to an engine-direct join on the
// undivided corpus (the engine's sharded entry points and merging sinks
// preserve this end to end).
//
// Shards are also the unit of PLACEMENT (common/topology.hpp): each shard
// is assigned an execution domain round-robin by ordinal, its artifacts are
// built — first-touched — on that domain's pinned workers (append rebuilds
// included), and the engine's join executor routes the shard's drains to
// the same domain.  Placement never changes results; it only decides which
// socket's memory controller serves which tiles.
//
// Calibration is the one corpus-global artifact.  It is decomposed into
// per-shard-pair distance blocks: shard s keeps a deterministic sample of
// its rows, and block (s, t) holds the FP64 distances from s's sample to
// every row of t.  eps_for_selectivity pools the blocks under a weighted
// quantile (weights undo the per-shard sampling rates).  An append replaces
// only the open shard, so exactly the blocks involving that shard (and the
// cached target -> eps map) are invalidated; blocks between sealed shards
// are reused forever.

// Lifecycle beyond growth (the PR 5 additions):
//
//   erase(ids)    tombstones global rows.  The per-shard delete masks ride
//                 in the SNAPSHOT (not the shard), copy-on-write like the
//                 shard list itself, so a pinned snapshot keeps serving the
//                 exact row set it was taken with.  Joins filter dead rows
//                 sink-side (kernels::TombstoneFilter) — surviving rows'
//                 matches stay bit-exact, equal to physically removing the
//                 dead rows and re-running.
//   compact()     re-chunks the corpus: merges undersized sealed shards,
//                 splits oversized ones to a (possibly new) shard_capacity,
//                 and physically drops tombstoned rows from shards whose
//                 dead fraction passes a threshold (renumbering survivors
//                 in order).  Chunks that come out identical to an existing
//                 shard are reused by POINTER — their calibration blocks
//                 survive exactly like sealed shards across appends;
//                 only touched chunks rebuild, through the same
//                 build-on-owning-domain path appends use.
//   rebalance()   domain migration as policy: diffs the pool's per-domain
//                 drain/steal tile counters since the last pass and rebuilds
//                 the heaviest-loaded domain's shards on the least-loaded
//                 domain (migrate() is the policy-free building block).
//                 Migration preserves the shard's generation and calibration
//                 blocks — the rows are unchanged, only their pages move —
//                 so results and calibration stay bit-identical.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/matrix.hpp"
#include "common/parallel.hpp"
#include "core/fasted.hpp"
#include "core/kernels/result_sink.hpp"

namespace fasted::service {

struct ShardedCorpusOptions {
  // Initial bulk split: the constructor fills shards of `shard_capacity`
  // rows greedily.  When shard_capacity is 0 it defaults to
  // ceil(rows / shards), i.e. `shards` says "split the seed corpus N ways"
  // and capacity follows; an explicit capacity overrides `shards`.
  std::size_t shards = 1;
  std::size_t shard_capacity = 0;
  // Shard -> execution-domain placement: shard ordinal k lives on domain
  // k % D (round-robin), where D is `placement_domains` if nonzero, else
  // the global ThreadPool's domain count at construction.  Each shard's
  // rows and prepared panels are built — first-touched — on its owning
  // domain, and the join executor routes the shard's drains there.
  // On flat single-domain machines every shard lands on domain 0 and
  // placement is a no-op.
  std::size_t placement_domains = 0;
};

struct ShardedStats {
  std::uint64_t appends = 0;
  std::uint64_t rows_appended = 0;
  std::uint64_t shards_sealed = 0;   // seal events during appends
  std::uint64_t open_rebuilds = 0;   // open-shard re-preparations
  std::uint64_t calibration_hits = 0;    // target -> eps cache
  std::uint64_t calibration_misses = 0;
  std::uint64_t calibration_blocks_built = 0;  // sample x shard blocks
  std::uint64_t erases = 0;
  std::uint64_t rows_erased = 0;        // newly tombstoned rows
  std::uint64_t compactions = 0;
  std::uint64_t compaction_rows_dropped = 0;   // tombstones made physical
  std::uint64_t compaction_shards_rebuilt = 0;
  std::uint64_t rebalances = 0;         // passes that moved >= 1 shard
  std::uint64_t shards_migrated = 0;
};

// compact(): re-chunk the corpus to `shard_capacity`-row shards (0 keeps
// the current capacity), physically dropping the tombstoned rows of any
// shard whose dead fraction is >= `dead_fraction`.  Shards the re-chunking
// leaves byte-identical (same base, same rows, no drops) carry over by
// pointer; everything else rebuilds on its owning domain.  Dropping rows
// RENUMBERS the survivors (global ids compact in order) — results over the
// survivors stay bit-exact, only their ids shift.
struct CompactOptions {
  std::size_t shard_capacity = 0;  // 0 = keep the current capacity
  double dead_fraction = 0.25;     // drop threshold; > 1 never drops
};

struct CompactReport {
  std::size_t shards_before = 0;
  std::size_t shards_after = 0;
  std::size_t shards_rebuilt = 0;   // chunks that could not reuse a shard
  std::size_t rows_dropped = 0;     // tombstoned rows physically removed
};

// rebalance(): consult the pool's per-domain drain/steal tile counters
// (deltas since this corpus's previous pass), and if the heaviest domain's
// load exceeds `min_imbalance` x the lightest's, migrate up to `max_moves`
// of its largest shards to the lightest domain.
struct RebalanceOptions {
  double min_imbalance = 1.25;
  std::size_t max_moves = 1;
};

struct RebalanceReport {
  std::size_t moved = 0;
  std::size_t from_domain = 0;  // meaningful when moved > 0
  std::size_t to_domain = 0;
};

// Operator view of one shard (the CLI's skew table prints these).
struct ShardInfo {
  std::size_t base = 0;
  std::size_t rows = 0;
  std::size_t dead = 0;           // tombstoned rows awaiting compaction
  bool sealed = false;
  std::uint64_t generation = 0;   // unique id of this shard build
  std::size_t domain = 0;         // owning execution domain (placement)
  std::size_t calibration_blocks = 0;  // cached sample-distance blocks
};

class ShardedCorpus {
 public:
  class Shard;

  // One snapshot entry: the (heavy, shared) shard plus its tombstone mask.
  // The mask lives in the SLOT, not the shard, because deletes must be
  // snapshot-consistent while shard artifacts stay shared: erase() swaps in
  // a new mask vector (copy-on-write) without touching the shard object, so
  // older pinned snapshots keep the row set they started with and sealed
  // shards' caches still survive by pointer identity.
  struct ShardSlot {
    std::shared_ptr<const Shard> shard;
    // Bit r set = local row r tombstoned; null = no dead rows.  Always
    // sized ceil(rows / 64) words for the slot's shard.
    std::shared_ptr<const std::vector<std::uint64_t>> dead;
    std::size_t dead_count = 0;
  };

  // An immutable view of the shard list.  Queries pin one snapshot for
  // their whole execution; shards stay alive as long as any snapshot
  // references them.
  using Snapshot = std::vector<ShardSlot>;

  explicit ShardedCorpus(MatrixF32 corpus, ShardedCorpusOptions options = {});

  ShardedCorpus(const ShardedCorpus&) = delete;
  ShardedCorpus& operator=(const ShardedCorpus&) = delete;

  std::size_t size() const;   // total logical rows incl. tombstoned
  std::size_t alive() const;  // size() minus tombstoned rows
  std::size_t dims() const { return dims_; }
  std::size_t shard_count() const;
  std::size_t shard_capacity() const {
    return capacity_.load(std::memory_order_relaxed);
  }
  std::size_t placement_domains() const { return domains_; }

  std::shared_ptr<const Snapshot> snapshot() const;

  // Engine-facing views of a snapshot, in global row order.
  static std::vector<CorpusShardView> shard_views(const Snapshot& snap);

  // Sink-side delete filter over a snapshot's tombstone masks.  The filter
  // BORROWS the masks: keep the snapshot alive while any join uses it.
  // filter.any() is false when the snapshot has no dead rows.
  static kernels::TombstoneFilter tombstone_filter(const Snapshot& snap);
  static std::size_t alive_rows(const Snapshot& snap);

  // The prepared rows of shard `shard` in the current snapshot.  For sealed
  // shards the reference is stable for the corpus lifetime; for the open
  // shard it is invalidated by the next append (hold a snapshot() to pin).
  const PreparedDataset& prepared(std::size_t shard) const;

  // Search radius whose self-join selectivity over the whole logical corpus
  // hits `target`, estimated from the per-shard calibration samples (see
  // file header) and cached per distinct target until the next append.
  float eps_for_selectivity(double target);

  // Ingest rows at the end of the global row order (ids extend past the
  // current size()).  Re-prepares only the open shard; seals it at
  // capacity and opens fresh shards as needed.  Safe to call concurrently
  // with readers; concurrent mutators (append/erase/compact/rebalance)
  // serialize.
  void append(const MatrixF32& rows);

  // Tombstone global rows (ids must be < size(); re-erasing is a no-op).
  // O(affected shards) — only the masks copy, never shard data.  Returns
  // the number of NEWLY dead rows.  Deleting every row is legal: joins
  // then return no matches (compact() however refuses to produce an empty
  // corpus).  Calibration is delete-aware: the cached target -> eps entries
  // are invalidated (the next eps_for_selectivity re-pools the UNCHANGED
  // cached distance blocks with per-shard alive fractions scaling the
  // quantile), so selectivity targets keep meaning surviving neighbors on
  // a tombstoned corpus.
  std::size_t erase(std::span<const std::uint32_t> ids);

  // See CompactOptions.  Serializes with the other mutators; readers keep
  // serving their pinned snapshots throughout.
  CompactReport compact(const CompactOptions& options = {});

  // Rebuild shard `ordinal`'s artifacts on `target_domain` (the append
  // rebuild path, pointed at a different domain).  Rows, generation,
  // sample, and calibration blocks are preserved — placement never changes
  // results.
  void migrate(std::size_t ordinal, std::size_t target_domain);

  // See RebalanceOptions.  No-op (moved = 0) on single-domain pools or
  // when the load imbalance since the last pass is under the threshold.
  RebalanceReport rebalance(const RebalanceOptions& options = {});

  ShardedStats stats() const;
  std::vector<ShardInfo> shard_infos() const;

 private:
  // `build_points` materializes the shard's FP32 rows; it runs ON the
  // owning domain (multi-domain pools), so the rows are copied exactly once
  // and first-touched in place.  `domain` overrides the round-robin
  // placement formula (compaction chunks, migration targets); `generation`
  // overrides the fresh id (migration keeps the old one so calibration
  // blocks keyed on it stay valid).
  std::shared_ptr<const Shard> build_shard(
      const std::function<MatrixF32()>& build_points, std::size_t base,
      bool sealed, std::size_t domain,
      std::optional<std::uint64_t> generation = std::nullopt);
  std::shared_ptr<const Shard> make_shard(
      const std::function<MatrixF32()>& build_points, std::size_t base,
      bool sealed);
  // Rebuild `next[ordinal]`'s shard on `target_domain` in place (see
  // migrate()); false when it already lives there.  Caller holds
  // append_mutex_ and publishes `next`.
  bool migrate_in(Snapshot& next, std::size_t ordinal,
                  std::size_t target_domain);
  // Swap in a new snapshot and drop calibration blocks keyed to shard
  // generations it no longer contains.  Callers hold append_mutex_.
  void publish(Snapshot next, bool invalidate_calibration);
  // The (sample of s) x (rows of t) squared-distance block, cached on s.
  std::shared_ptr<const std::vector<double>> block_of(const Shard& s,
                                                      const Shard& t);
  float calibrate_over(const Snapshot& snap, double target);

  std::size_t dims_ = 0;
  // Relaxed-atomic: compact() may change the capacity while unsynchronized
  // readers (shard_capacity()) look on.
  std::atomic<std::size_t> capacity_{0};
  std::size_t domains_ = 1;  // placement modulus (see Options)

  mutable std::mutex mutex_;  // guards snapshot_, calibration_, stats_
  std::shared_ptr<const Snapshot> snapshot_;
  std::uint64_t epoch_ = 0;   // bumped per mutation; guards calibration_
  std::map<double, float> calibration_;  // target -> eps for this epoch
  ShardedStats stats_;

  // Serializes mutators — append/erase/compact/migrate/rebalance (readers
  // never wait).
  std::mutex append_mutex_;
  std::uint64_t next_generation_ = 0;  // guarded by append_mutex_
  // Pool reading at our last rebalance pass (instance-aware; guarded by
  // append_mutex_) — rebalance() diffs against it so each pass acts on the
  // load generated since the previous one.
  DomainLoadSnapshot rebalance_baseline_;
};

// One shard: immutable data + artifacts, lazily grown caches.  Created
// sealed or open; an "open" shard is replaced wholesale by append (the
// object itself never mutates its data), a sealed shard is shared by every
// later snapshot.
class ShardedCorpus::Shard {
 public:
  Shard(MatrixF32 pts, std::size_t base_row, bool seal, std::uint64_t gen,
        std::size_t owning_domain);

  const MatrixF32 points;          // original FP32 rows (calibration)
  const PreparedDataset prepared;  // FP16 + dequant + RZ norms
  const std::size_t base;          // global id of local row 0
  const bool sealed;
  const std::uint64_t generation;  // unique per shard build
  const std::size_t domain;        // owning execution domain (placement)
  const std::vector<std::uint32_t> sample_ids;  // calibration sample (local)

  std::size_t rows() const { return points.rows(); }

 private:
  friend class ShardedCorpus;
  mutable std::mutex cache_mutex;  // guards calib_blocks
  // Calibration blocks keyed by the TARGET shard's generation: distances
  // from this shard's sample rows to every row of that shard.  Entries for
  // dead generations are pruned after each append.
  mutable std::unordered_map<std::uint64_t,
                             std::shared_ptr<const std::vector<double>>>
      calib_blocks;
};

}  // namespace fasted::service
