// Batch-processing interface between the simulator and the dispatching
// algorithms (Algorithm 1, line 7). The engine snapshots the platform state
// every Δ seconds and hands the dispatcher a BatchContext; the dispatcher
// returns rider-driver assignments.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "geo/grid.h"
#include "geo/travel.h"
#include "queueing/birth_death.h"
#include "queueing/rates.h"
#include "workload/types.h"

namespace mrvd {

class ThreadPool;
class RegionPartitioner;

namespace telemetry {
class TelemetrySession;
}  // namespace telemetry

/// Parallel-execution context for one batch: a reusable worker pool plus
/// the region sharding. When a BatchContext carries one (see
/// BatchContext::SetExecution), dispatchers shard candidate generation
/// and idle-time evaluation across the pool; without one every dispatcher
/// runs the serial path. Both owned objects must outlive the batch.
struct BatchExecution {
  ThreadPool* pool = nullptr;
  const RegionPartitioner* partitioner = nullptr;

  /// True if this execution can actually fan out work.
  bool Parallel() const;
};

/// A rider waiting in the current batch.
struct WaitingRider {
  OrderId order_id = -1;
  LatLon pickup;
  LatLon dropoff;
  double request_time = 0.0;
  double pickup_deadline = 0.0;
  double revenue = 0.0;        ///< α * cost(s_i, e_i), precomputed
  double trip_seconds = 0.0;   ///< cost(s_i, e_i)
  RegionId pickup_region = kInvalidRegion;
  RegionId dropoff_region = kInvalidRegion;
};

/// An available driver in the current batch.
struct AvailableDriver {
  DriverId driver_id = -1;
  LatLon location;
  RegionId region = kInvalidRegion;
  double available_since = 0.0;
};

/// One selected rider-and-driver dispatching pair; indices refer to the
/// BatchContext's riders()/drivers() arrays.
struct Assignment {
  int rider_index = -1;
  int driver_index = -1;
};

/// How candidate rider-driver pairs are generated.
enum class CandidateMode {
  /// Pairs only within the rider's pickup region (Algorithm 2 lines 3-4:
  /// valid pairs are retrieved from R_k and D_k of the same region a_k).
  /// This keeps the region queue model exact: a rejoining driver competes
  /// only with his region's riders, as §4 assumes.
  kRegionLocal,
  /// Ring-expanding cross-region search bounded by the pickup deadline —
  /// a generalization that admits any Def.-3-valid pair.
  kRingExpand,
};

/// Read-mostly snapshot of one batch. The idle-time estimates are cached
/// per (region, extra-driver count) because IRG/LS/SHORT re-query them as
/// their tentative selections shift future driver supply (§5.1, line 11).
/// The engine keeps one context for the whole run and refills it in place
/// each batch (Reset, then the setup API below), so its vectors and memo
/// rows keep their capacity from batch to batch.
class BatchContext {
 public:
  /// Borrows the run's reneging-growth table (built from the run's β),
  /// which must outlive the context; the engine's BatchBuilder owns it.
  BatchContext(double now, double window_seconds,
               const RenegingGrowthTable& growth, const Grid& grid,
               const TravelCostModel& cost_model,
               CandidateMode candidate_mode = CandidateMode::kRingExpand);

  /// For a context assembled by hand: builds and owns a growth table for
  /// `reneging_beta`.
  BatchContext(double now, double window_seconds, double reneging_beta,
               const Grid& grid, const TravelCostModel& cost_model,
               CandidateMode candidate_mode = CandidateMode::kRingExpand);

  CandidateMode candidate_mode() const { return candidate_mode_; }

  double now() const { return now_; }
  double window_seconds() const { return window_seconds_; }
  const Grid& grid() const { return grid_; }
  const TravelCostModel& cost_model() const { return cost_model_; }

  const std::vector<WaitingRider>& riders() const { return riders_; }
  const std::vector<AvailableDriver>& drivers() const { return drivers_; }
  /// Indices of available drivers bucketed by current region.
  const std::vector<std::vector<int>>& drivers_by_region() const {
    return drivers_by_region_;
  }

  /// Region demand/supply snapshots (inputs of Eqs. 18/19).
  const std::vector<RegionSnapshot>& snapshots() const { return snapshots_; }

  /// Expected idle time ET(λ(k), μ(k)) in seconds for a driver rejoining
  /// `region`, given `extra_drivers` >= 0 additional rejoiners (cached in a
  /// dense region × extra table; a solve never allocates, a row grows the
  /// first time a larger `extra_drivers` is asked for). NOT thread-safe
  /// (the memo table is shared); parallel workers call ComputeIdleSeconds
  /// and hand the values to WarmIdleCache.
  double ExpectedIdleSeconds(RegionId region, int extra_drivers = 0) const;

  /// Same value as ExpectedIdleSeconds but bypassing the memo table: a pure
  /// function of the immutable snapshots, safe to call concurrently. Under
  /// kRingExpand the queue is the region's 3x3 service neighbourhood; λ(k)
  /// and μ(k) (Eqs. 18/19) get `extra_drivers` more rejoining drivers, and
  /// K is the neighbourhood's available drivers plus predicted rejoiners
  /// plus `extra_drivers` (at least 1). The chain is solved in per-minute
  /// rates with a 60-minute cap, reading the growth table; no allocation.
  double ComputeIdleSeconds(RegionId region, int extra_drivers = 0) const;

  /// Inserts a precomputed ET value into the memo table (first write wins).
  /// Called serially with values that parallel workers computed by
  /// ComputeIdleSeconds; warming never changes results because the cached
  /// value is the pure ComputeIdleSeconds of the same snapshot.
  void WarmIdleCache(RegionId region, int extra_drivers, double et) const;

  /// One integer key for (region, extra_drivers), extra_drivers < 2^20,
  /// for callers that keep an ET memo of their own.
  static int64_t IdleCacheKey(RegionId region, int extra_drivers) {
    return (static_cast<int64_t>(region) << 20) | extra_drivers;
  }

  /// Optional parallel execution (null = serial). The pointed-to object is
  /// not owned and must outlive the batch.
  void SetExecution(const BatchExecution* execution) {
    execution_ = execution;
  }
  const BatchExecution* execution() const { return execution_; }

  /// Optional telemetry session (null = telemetry off), set by the engine
  /// so dispatchers can emit trace spans and phase histograms without any
  /// extra plumbing. Borrowed; must outlive the batch.
  void SetTelemetry(telemetry::TelemetrySession* telemetry) {
    telemetry_ = telemetry;
  }
  telemetry::TelemetrySession* telemetry() const { return telemetry_; }

  /// Travel seconds from a driver's location to a rider's pickup.
  double PickupSeconds(const AvailableDriver& d, const WaitingRider& r) const {
    return cost_model_.TravelSeconds(d.location, r.pickup);
  }

  /// True if driver `d` can reach rider `r`'s pickup before the deadline
  /// (Def. 3, valid rider-and-driver dispatching pair).
  bool IsValidPair(const AvailableDriver& d, const WaitingRider& r) const {
    return now_ + PickupSeconds(d, r) <= r.pickup_deadline;
  }

  /// Starts the next batch at `now` in place: empties riders, drivers and
  /// the region buckets (keeping their capacity), drops the shard index and
  /// invalidates every memoised ET. The snapshots stay as they were until
  /// the caller overwrites them (mutable_snapshot), which it must do before
  /// any ET is read.
  void Reset(double now);

  /// Mutable setup API (used by the engine when building the batch).
  /// Defined here so the builder's per-entity calls inline.
  void AddRider(const WaitingRider& r) {
    assert(r.pickup_region != kInvalidRegion &&
           r.dropoff_region != kInvalidRegion);
    riders_.push_back(r);
    shard_index_.partitioner = nullptr;  // invalidate any cached index
  }
  void AddDriver(const AvailableDriver& d) {
    assert(d.region != kInvalidRegion);
    drivers_by_region_[static_cast<size_t>(d.region)].push_back(
        static_cast<int>(drivers_.size()));
    drivers_.push_back(d);
    shard_index_.partitioner = nullptr;  // invalidate any cached index
  }
  /// Replaces every region's snapshot and invalidates every memoised ET.
  void SetSnapshots(std::vector<RegionSnapshot> snapshots);
  /// Region `region`'s snapshot, for overwriting in place after Reset.
  RegionSnapshot& mutable_snapshot(RegionId region) {
    return snapshots_[static_cast<size_t>(region)];
  }

  /// Per-shard context-index lists, shared by every shard worker of the
  /// batch. Built in ONE pass over riders + drivers.
  struct ShardIndex {
    const RegionPartitioner* partitioner = nullptr;
    std::vector<std::vector<int>> riders;   ///< by pickup-region shard
    std::vector<std::vector<int>> drivers;  ///< by current-region shard
  };

  /// Returns the shard index for execution()->partitioner, building it in
  /// one pass if absent. Serial and not thread-safe: call from the
  /// coordinating thread before fanning out shard work. Null when the
  /// context has no parallel execution attached.
  const ShardIndex* EnsureShardIndex() const;

  /// The shard index if one has been built/installed, else null (never
  /// builds; see EnsureShardIndex).
  const ShardIndex* shard_index() const {
    return shard_index_.partitioner == nullptr ? nullptr : &shard_index_;
  }

 private:
  /// The queue a driver rejoining `region` joins: its rates (Eqs. 18/19)
  /// and its cap K on congested drivers.
  struct RegionQueue {
    RegionRates rates;
    int64_t max_drivers = 1;
  };
  RegionQueue QueueFor(RegionId region, int extra_drivers) const;

  /// One memoised ET(region, extra) and the epoch it was solved in.
  struct IdleMemoEntry {
    double seconds = 0.0;
    uint32_t epoch = 0;  ///< 0: never written
  };
  /// The memo entry of (region, extra_drivers), growing the region's row
  /// if `extra_drivers` is past its end.
  IdleMemoEntry& MemoEntry(RegionId region, int extra_drivers) const;
  /// Invalidates every memo entry at once.
  void BumpMemoEpoch();

  double now_;
  double window_seconds_;
  /// Set only by the hand-assembly constructor; growth_ refers to it then.
  /// Held on the heap so a moved-to context's growth_ still refers to it.
  std::unique_ptr<const RenegingGrowthTable> owned_growth_;
  const RenegingGrowthTable& growth_;
  const Grid& grid_;
  const TravelCostModel& cost_model_;
  CandidateMode candidate_mode_;

  std::vector<WaitingRider> riders_;
  std::vector<AvailableDriver> drivers_;
  std::vector<std::vector<int>> drivers_by_region_;
  std::vector<RegionSnapshot> snapshots_;
  const BatchExecution* execution_ = nullptr;
  telemetry::TelemetrySession* telemetry_ = nullptr;  ///< borrowed; may be null
  mutable ShardIndex shard_index_;  ///< lazily built; see EnsureShardIndex

  /// [region][extra] -> ET; an entry is current iff stamped memo_epoch_.
  mutable std::vector<std::vector<IdleMemoEntry>> idle_memo_;
  uint32_t memo_epoch_ = 1;
};

/// Per-shard pipeline telemetry for one Dispatch: the shard's batch sizes
/// and the wall time its parallel-phase work took. max/mean over `seconds`
/// is the load-imbalance factor adaptive sharding exists to close.
struct ShardLoadStat {
  int64_t riders = 0;    ///< context riders whose pickup is in the shard
  int64_t drivers = 0;   ///< context drivers located in the shard
  double seconds = 0.0;  ///< shard's parallel-phase wall time
};

/// Per-Dispatch work counters for iterative dispatchers (currently LS):
/// convergence behaviour observable without a profiler. Sweep-less
/// dispatchers leave everything zero.
struct DispatchCounters {
  int64_t sweeps = 0;          ///< refinement sweeps actually run
  int64_t swaps_applied = 0;   ///< improving swaps committed
  int64_t proposals = 0;       ///< best-swap evaluations proposed
  /// One entry per pipeline shard (empty on the serial path), filled by
  /// PrepareShardedBatch for every dispatcher that runs through it.
  std::vector<ShardLoadStat> shards;
};

/// A batch dispatching algorithm (§5, §6.3).
class Dispatcher {
 public:
  virtual ~Dispatcher() = default;

  /// Display name ("IRG", "LS", "POLAR", ...).
  virtual std::string name() const = 0;

  /// Selects the batch's rider-and-driver pairs. Each rider and each driver
  /// may appear in at most one assignment, and every returned pair must be
  /// valid per BatchContext::IsValidPair (UPPER is exempt: the engine runs
  /// it with zero pickup travel).
  virtual void Dispatch(const BatchContext& ctx,
                        std::vector<Assignment>* out) = 0;

  /// Work counters for the most recent Dispatch, or null if the dispatcher
  /// does not track any. Valid until the next Dispatch on this object.
  virtual const DispatchCounters* counters() const { return nullptr; }
};

}  // namespace mrvd
