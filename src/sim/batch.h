// Batch-processing interface between the simulator and the dispatching
// algorithms (Algorithm 1, line 7). The engine snapshots the platform state
// every Δ seconds and hands the dispatcher a BatchContext; the dispatcher
// returns rider-driver assignments.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "geo/grid.h"
#include "geo/travel.h"
#include "prediction/forecast.h"
#include "queueing/birth_death.h"
#include "queueing/rates.h"
#include "workload/types.h"

namespace mrvd {

namespace telemetry {
class TelemetrySession;
}  // namespace telemetry

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
  /// When the driver became available at `location`. A context refilled
  /// across batches (BatchContext::Reset) relies on it: a driver whose
  /// available_since is before an earlier batch's `now` must have been in
  /// that batch's context at the same location. FleetState keeps this:
  /// trip completion sets busy_until, sign-on the batch's now.
  double available_since = 0.0;
};

/// One selected rider-and-driver dispatching pair; indices refer to the
/// BatchContext's riders()/drivers() arrays.
struct Assignment {
  int rider_index = -1;
  int driver_index = -1;
};

/// One valid pair (Def. 3) with its pickup cost; indices as in Assignment.
struct CandidatePair {
  int rider_index = -1;
  int driver_index = -1;
  double pickup_seconds = 0.0;
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

/// Where a batch's region snapshots come from: the engine stages' live
/// per-region counters, read the first time a snapshot is. Every pointer is
/// borrowed, and what it points to must not change from the batch's fill
/// until its last snapshot read, which must come before the batch's
/// assignments are applied (AssignmentApplier moves the counters).
struct SnapshotSource {
  /// OrderBook::demand_by_region.
  const std::vector<int64_t>* waiting_riders = nullptr;
  /// FleetState::available_by_region.
  const std::vector<int64_t>* available_drivers = nullptr;
  /// FleetState::rejoining_in_window.
  const std::vector<int32_t>* rejoining_drivers = nullptr;
  /// Null: no predicted riders.
  const DemandForecast* forecast = nullptr;
  /// Per-region factors on the predicted riders; null: all 1.0.
  const std::vector<double>* demand_multipliers = nullptr;
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

  /// The batch's waiting riders: the OrderBook pool that BatchBuilder::Fill
  /// lends (LendRiders), or the context's own array that AddRider fills.
  const std::vector<WaitingRider>& riders() const {
    return lent_riders_ != nullptr ? *lent_riders_ : riders_;
  }
  const std::vector<AvailableDriver>& drivers() const { return drivers_; }
  /// Indices of available drivers bucketed by current region.
  const std::vector<std::vector<int>>& drivers_by_region() const {
    return drivers_by_region_;
  }

  /// Region demand/supply snapshots (inputs of Eqs. 18/19). With a
  /// SnapshotSource, this first computes every snapshot the batch has not
  /// read yet. NOT thread-safe then.
  const std::vector<RegionSnapshot>& snapshots() const;

  /// Expected idle time ET(λ(k), μ(k)) in seconds for a driver rejoining
  /// `region`, given `extra_drivers` >= 0 additional rejoiners (cached in a
  /// dense region × extra table; a solve never allocates, a row grows the
  /// first time a larger `extra_drivers` is asked for). NOT thread-safe.
  double ExpectedIdleSeconds(RegionId region, int extra_drivers = 0) const;

  /// Same value as ExpectedIdleSeconds but bypassing the memo table: a pure
  /// function of the batch's snapshots, computing the ones it reads if the
  /// batch has not read them yet. NOT thread-safe. Under kRingExpand the
  /// queue is the region's 3x3 service neighbourhood; λ(k) and μ(k)
  /// (Eqs. 18/19) get `extra_drivers` more rejoining drivers, and K is the
  /// neighbourhood's available drivers plus predicted rejoiners plus
  /// `extra_drivers` (at least 1). The chain is solved in per-minute rates
  /// with a 60-minute cap, reading the growth table; no allocation.
  double ComputeIdleSeconds(RegionId region, int extra_drivers = 0) const;

  /// One integer key for (region, extra_drivers), extra_drivers < 2^20,
  /// for callers that keep an ET memo of their own.
  static int64_t IdleCacheKey(RegionId region, int extra_drivers) {
    return (static_cast<int64_t>(region) << 20) | extra_drivers;
  }

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

  /// All valid pairs of the batch in the canonical order: rider-major; per
  /// rider, rings outward from the pickup region, cells in Grid::Ring
  /// order, drivers in bucket order. Computed at the first call after
  /// Reset, LendRiders, AddRider or AddDriver, into a buffer that keeps its
  /// capacity.
  ///
  /// Between batches a pair can only expire (idle drivers do not move and
  /// deadlines are fixed), so a rider whose last search found nothing is
  /// not searched again while every cell that search walked holds only
  /// drivers available since before the previous computation's `now`:
  /// each of them was in that computation's context, where the rider
  /// stayed pair-less, and the reach box has only shrunk since. The list
  /// equals SearchRider over every rider bit for bit (checked after every
  /// computation in builds without NDEBUG). The memo behind this survives
  /// Reset; it is dropped when `now` goes backwards or a driver is added
  /// after a computation in the same batch. NOT thread-safe.
  const std::vector<CandidatePair>& ValidPairs() const;

  /// The memo-free Def.-3 search for rider `ri`: appends its valid pairs
  /// to `out` in the canonical order and returns the cells it walked.
  /// Only cells that the rider's reach box touches are walked, and only
  /// drivers inside the box are priced: the box holds every point within
  /// (deadline - now) * SpeedMps() equirectangular metres of the pickup,
  /// so by the TravelCostModel speed contract a driver outside it cannot
  /// make the deadline. Walks nothing (an empty span) once the deadline
  /// has passed; kRegionLocal walks the pickup region only.
  CellSpan SearchRider(int ri, std::vector<CandidatePair>* out) const;

  /// Riders whose search ValidPairs has skipped, over the context's life.
  int64_t skipped_searches() const { return skipped_searches_; }

  /// Starts the next batch at `now` in place: drops any lent rider pool
  /// and empties the context's own riders, the drivers and the region
  /// buckets the last batch filled (keeping their capacity), clears the
  /// join bits the last batch set, drops the SnapshotSource, and
  /// invalidates every memoised ET. The snapshots stay as they were until
  /// the caller sets them (SetSnapshotSource or SetSnapshots), which it
  /// must do before any snapshot or ET is read. A context refilled this
  /// way must give each driver the time it became available at its current
  /// location (see AvailableDriver::available_since), which ValidPairs'
  /// memo relies on.
  void Reset(double now);

  /// Mutable setup API (used by the engine when building the batch).
  /// Defined here so the builder's per-entity calls inline.
  ///
  /// Makes riders() read `riders` (the OrderBook's waiting pool) in place of
  /// the context's own array, until the next Reset. Borrowed: the vector
  /// must not change until the batch's assignments are applied. The
  /// context's own array must be empty.
  void LendRiders(const std::vector<WaitingRider>& riders) {
    assert(riders_.empty());
#ifndef NDEBUG
    for (const WaitingRider& r : riders) {
      assert(r.pickup_region != kInvalidRegion &&
             r.dropoff_region != kInvalidRegion);
    }
#endif
    lent_riders_ = &riders;
    pairs_current_ = false;
  }
  /// Appends to the context's own rider array: for a context assembled by
  /// hand, which lends no pool.
  void AddRider(const WaitingRider& r) {
    assert(lent_riders_ == nullptr);
    assert(r.pickup_region != kInvalidRegion &&
           r.dropoff_region != kInvalidRegion);
    riders_.push_back(r);
    pairs_current_ = false;
  }
  void AddDriver(const AvailableDriver& d) {
    assert(d.region != kInvalidRegion);
    drivers_by_region_[static_cast<size_t>(d.region)].push_back(
        static_cast<int>(drivers_.size()));
    drivers_.push_back(d);
    pairs_current_ = false;
    if (d.available_since >= join_bits_since_) MarkJoined(d.region);
    // This batch's searches ran without the driver, whenever it joined.
    if (searched_this_batch_) search_memo_.clear();
  }
  /// Replaces every region's snapshot, drops any SnapshotSource and
  /// invalidates every memoised ET: for a context assembled by hand.
  void SetSnapshots(std::vector<RegionSnapshot> snapshots);
  /// Makes the batch's snapshots come from `source`, one grid row at a
  /// time: a row is computed the first time an ET solve or snapshots()
  /// reads it, and stamped with the batch's epoch like the ET memo.
  /// Invalidates every memoised ET. Builds without NDEBUG also compute
  /// every snapshot here, and assert that each row computed later equals
  /// them bit for bit.
  void SetSnapshotSource(const SnapshotSource& source);

 private:
  /// The queue a driver rejoining `region` joins: its rates (Eqs. 18/19)
  /// and its cap K on congested drivers.
  struct RegionQueue {
    RegionRates rates;
    int64_t max_drivers = 1;
  };
  RegionQueue QueueFor(RegionId region, int extra_drivers) const;
  /// Region k's snapshot from source_, given its forecast window count.
  RegionSnapshot SourceSnapshot(size_t k, double window_count) const;
  /// Computes grid row `row`'s snapshots from source_ and stamps the row.
  void FillSnapshotRow(int row) const;
  /// Computes every row from lo to hi that the batch has not read yet.
  void EnsureSnapshotRows(int lo, int hi) const {
    for (int row = lo; row <= hi; ++row) {
      if (row_epoch_[static_cast<size_t>(row)] != memo_epoch_) {
        FillSnapshotRow(row);
      }
    }
  }

  /// One memoised ET(region, extra) and the epoch it was solved in.
  struct IdleMemoEntry {
    double seconds = 0.0;
    uint32_t epoch = 0;  ///< 0: never written
  };
  /// The memo entry of (region, extra_drivers), growing the region's row
  /// if `extra_drivers` is past its end.
  IdleMemoEntry& MemoEntry(RegionId region, int extra_drivers) const;
  /// Invalidates every memo entry and computed snapshot row at once.
  void BumpMemoEpoch();

  /// What ValidPairs remembers of one rider's last computation.
  struct RiderSearch {
    OrderId order_id = -1;
    LatLon pickup;
    double pickup_deadline = 0.0;
    CellSpan walked;  ///< the cells the rider's last search walked
    RegionId pickup_region = kInvalidRegion;
    bool found_nothing = false;
  };
  /// True if `memo`, the entry of rider `r`, proves that the rider still
  /// has no valid pair: it is `r`'s, its search found nothing, and no
  /// walked cell has its join bit set. A computation that follows another
  /// one with no Reset in between needs no bits at all (its drivers were
  /// all in that one, since AddDriver drops the memo); the bits Reset's
  /// threshold gave can only make it search more riders than it must.
  bool StillPairless(const RiderSearch& memo, const WaitingRider& r) const;
  void ComputeValidPairs() const;
  /// Sets `region`'s join bit.
  void MarkJoined(RegionId region);

  double now_;
  double window_seconds_;
  /// Set only by the hand-assembly constructor; growth_ refers to it then.
  /// Held on the heap so a moved-to context's growth_ still refers to it.
  std::unique_ptr<const RenegingGrowthTable> owned_growth_;
  const RenegingGrowthTable& growth_;
  const Grid& grid_;
  const TravelCostModel& cost_model_;
  CandidateMode candidate_mode_;

  std::vector<WaitingRider> riders_;  ///< AddRider's; empty when lending
  const std::vector<WaitingRider>* lent_riders_ = nullptr;  ///< borrowed
  std::vector<AvailableDriver> drivers_;
  std::vector<std::vector<int>> drivers_by_region_;
  mutable std::vector<RegionSnapshot> snapshots_;
  /// Set by SetSnapshotSource; Reset and SetSnapshots clear it.
  bool has_source_ = false;
  SnapshotSource source_;
  /// Per grid row: the epoch its snapshots were computed in (0: never).
  mutable std::vector<uint32_t> row_epoch_;
  /// The forecast window's slots, found at the batch's first row.
  mutable std::vector<DemandForecast::WindowSlot> window_slots_;
  mutable bool window_slots_found_ = false;
  mutable std::vector<double> row_counts_;  ///< one row's forecast, reused
  /// Builds without NDEBUG: every snapshot as SetSnapshotSource saw it.
  std::vector<RegionSnapshot> reference_snapshots_;
  telemetry::TelemetrySession* telemetry_ = nullptr;  ///< borrowed; may be null

  /// [region][extra] -> ET; an entry (and a snapshot row of row_epoch_)
  /// is current iff stamped memo_epoch_.
  mutable std::vector<std::vector<IdleMemoEntry>> idle_memo_;
  uint32_t memo_epoch_ = 1;

  /// One bit per region, a grid row at a time (words_per_row_ words per
  /// row): set when the region holds a driver of the batch whose
  /// available_since is at or after join_bits_since_. Reset sets that to
  /// the last computation's now, or to +inf (mark nothing) when there is
  /// no memo to check.
  std::vector<uint64_t> join_bits_;
  size_t words_per_row_ = 1;
  std::vector<size_t> joined_words_;  ///< the non-zero words
  double join_bits_since_ = std::numeric_limits<double>::infinity();
  mutable std::vector<CandidatePair> pairs_;  ///< ValidPairs' list
  mutable bool pairs_current_ = false;        ///< pairs_ is this batch's
  mutable bool searched_this_batch_ = false;  ///< since Reset
  /// Entry i is rider i's of the last computation; it survives Reset.
  /// search_memo_now_ is that computation's now.
  mutable std::vector<RiderSearch> search_memo_;
  mutable double search_memo_now_ = 0.0;
  mutable int64_t skipped_searches_ = 0;
};

/// Per-Dispatch work counters for iterative dispatchers (currently LS):
/// convergence behaviour observable without a profiler. Sweep-less
/// dispatchers leave everything zero.
struct DispatchCounters {
  int64_t sweeps = 0;          ///< refinement sweeps actually run
  int64_t swaps_applied = 0;   ///< improving swaps committed
  int64_t proposals = 0;       ///< best-swap evaluations proposed
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
