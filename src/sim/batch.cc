#include "sim/batch.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

namespace mrvd {

namespace {

/// 64-bit words that hold one grid row of join bits.
size_t JoinWordsPerRow(const Grid& grid) {
  return (static_cast<size_t>(grid.cols()) + 63) / 64;
}

}  // namespace

BatchContext::BatchContext(double now, double window_seconds,
                           const RenegingGrowthTable& growth, const Grid& grid,
                           const TravelCostModel& cost_model,
                           CandidateMode candidate_mode)
    : now_(now),
      window_seconds_(window_seconds),
      growth_(growth),
      grid_(grid),
      cost_model_(cost_model),
      candidate_mode_(candidate_mode),
      drivers_by_region_(static_cast<size_t>(grid.num_regions())),
      snapshots_(static_cast<size_t>(grid.num_regions())),
      row_epoch_(static_cast<size_t>(grid.rows()), 0),
      idle_memo_(static_cast<size_t>(grid.num_regions())),
      join_bits_(static_cast<size_t>(grid.rows()) * JoinWordsPerRow(grid)),
      words_per_row_(JoinWordsPerRow(grid)) {}

BatchContext::BatchContext(double now, double window_seconds,
                           double reneging_beta, const Grid& grid,
                           const TravelCostModel& cost_model,
                           CandidateMode candidate_mode)
    : now_(now),
      window_seconds_(window_seconds),
      owned_growth_(
          std::make_unique<const RenegingGrowthTable>(reneging_beta)),
      growth_(*owned_growth_),
      grid_(grid),
      cost_model_(cost_model),
      candidate_mode_(candidate_mode),
      drivers_by_region_(static_cast<size_t>(grid.num_regions())),
      snapshots_(static_cast<size_t>(grid.num_regions())),
      row_epoch_(static_cast<size_t>(grid.rows()), 0),
      idle_memo_(static_cast<size_t>(grid.num_regions())),
      join_bits_(static_cast<size_t>(grid.rows()) * JoinWordsPerRow(grid)),
      words_per_row_(JoinWordsPerRow(grid)) {}

void BatchContext::Reset(double now) {
  now_ = now;
  riders_.clear();
  lent_riders_ = nullptr;
  // Only the regions of the last batch's drivers hold anything: clear
  // those, or every region when the drivers outnumber the regions.
  if (drivers_.size() < drivers_by_region_.size()) {
    for (const AvailableDriver& d : drivers_) {
      drivers_by_region_[static_cast<size_t>(d.region)].clear();
    }
  } else {
    for (auto& bucket : drivers_by_region_) bucket.clear();
  }
  drivers_.clear();
  for (size_t word : joined_words_) join_bits_[word] = 0;
  joined_words_.clear();
  // Without a memo there is nothing to check: mark no driver.
  join_bits_since_ = search_memo_.empty()
                         ? std::numeric_limits<double>::infinity()
                         : search_memo_now_;
  has_source_ = false;
  pairs_current_ = false;
  searched_this_batch_ = false;
  BumpMemoEpoch();
}

CellSpan BatchContext::SearchRider(int ri,
                                   std::vector<CandidatePair>* out) const {
  const WaitingRider& r = riders()[static_cast<size_t>(ri)];
  const double budget_seconds = r.pickup_deadline - now_;
  if (budget_seconds < 0.0) return CellSpan{0, -1, 0, -1};

  // now + tt <= deadline is evaluated in doubles; 1 µs of slack covers its
  // rounding for clock values below 2^32 s. A speed that bounds nothing
  // (<= 0 or NaN) gives an unbounded box.
  const double speed = cost_model_.CrowFlySpeedMps();
  const double reach_m = speed > 0.0
                             ? (budget_seconds + 1e-6) * speed
                             : std::numeric_limits<double>::infinity();
  const BoundingBox box = EquirectangularReachBox(r.pickup, reach_m);
  const int row = grid_.RowOf(r.pickup_region);
  const int col = grid_.ColOf(r.pickup_region);
  const CellSpan span = candidate_mode_ == CandidateMode::kRegionLocal
                            ? CellSpan{row, row, col, col}
                            : grid_.SpanOf(box);
  const int max_ring = std::max({row - span.row_lo, span.row_hi - row,
                                 col - span.col_lo, span.col_hi - col});

  // Drivers are bucketed by RegionOf their location, as the engine keeps
  // them, so the rings clipped to the span hold every driver in the box.
  auto visit = [&](RegionId reg) {
    for (int di : drivers_by_region_[static_cast<size_t>(reg)]) {
      const AvailableDriver& d = drivers_[static_cast<size_t>(di)];
      if (!box.Contains(d.location)) continue;
      const double tt = PickupSeconds(d, r);
      if (now_ + tt <= r.pickup_deadline) out->push_back({ri, di, tt});
    }
  };
  for (int g = 0; g <= max_ring; ++g) {
    grid_.ForEachRingCell(r.pickup_region, g, span, visit);
  }
  return span;
}

const std::vector<CandidatePair>& BatchContext::ValidPairs() const {
  if (!pairs_current_) ComputeValidPairs();
  return pairs_;
}

void BatchContext::MarkJoined(RegionId region) {
  const size_t col = static_cast<size_t>(grid_.ColOf(region));
  const size_t word =
      static_cast<size_t>(grid_.RowOf(region)) * words_per_row_ + col / 64;
  if (join_bits_[word] == 0) joined_words_.push_back(word);
  join_bits_[word] |= uint64_t{1} << (col % 64);
}

bool BatchContext::StillPairless(const RiderSearch& memo,
                                 const WaitingRider& r) const {
  auto same = [](double a, double b) {
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
  };
  if (!memo.found_nothing || memo.pickup_region != r.pickup_region ||
      !same(memo.pickup.lat, r.pickup.lat) ||
      !same(memo.pickup.lon, r.pickup.lon) ||
      !same(memo.pickup_deadline, r.pickup_deadline)) {
    return false;
  }
  // No driver joined anywhere, or the search walked nothing (its deadline
  // had passed).
  const CellSpan& walked = memo.walked;
  if (joined_words_.empty() || walked.row_lo > walked.row_hi ||
      walked.col_lo > walked.col_hi) {
    return true;
  }
  const size_t lo_word = static_cast<size_t>(walked.col_lo) / 64;
  const size_t hi_word = static_cast<size_t>(walked.col_hi) / 64;
  const uint64_t lo_mask = ~uint64_t{0} << (walked.col_lo % 64);
  const uint64_t hi_mask = ~uint64_t{0} >> (63 - walked.col_hi % 64);
  for (int row = walked.row_lo; row <= walked.row_hi; ++row) {
    const uint64_t* words =
        &join_bits_[static_cast<size_t>(row) * words_per_row_];
    for (size_t w = lo_word; w <= hi_word; ++w) {
      uint64_t mask = ~uint64_t{0};
      if (w == lo_word) mask &= lo_mask;
      if (w == hi_word) mask &= hi_mask;
      if ((words[w] & mask) != 0) return false;
    }
  }
  return true;
}

void BatchContext::ComputeValidPairs() const {
  const std::vector<WaitingRider>& riders = this->riders();
  pairs_.clear();
  // A search at a later clock had a smaller reach box than this batch's.
  if (now_ < search_memo_now_) search_memo_.clear();
  // Entry ri becomes rider ri's. Waiting riders keep arrival order and new
  // ones are appended, so one forward walk finds each rider that is still
  // waiting at or after its new index: survivors move down, and a new
  // rider takes the slot of one that left (which no later rider can
  // match) or is appended.
  const size_t old_size = search_memo_.size();
  size_t cursor = 0;
  for (size_t ri = 0; ri < riders.size(); ++ri) {
    const WaitingRider& r = riders[ri];
    size_t m = cursor;
    while (m < old_size && search_memo_[m].order_id != r.order_id) ++m;
    if (m < old_size) {
      cursor = m + 1;
      if (StillPairless(search_memo_[m], r)) {
        if (m != ri) search_memo_[ri] = search_memo_[m];
        ++skipped_searches_;
        continue;
      }
    } else {
      cursor = std::max(cursor, ri + 1);  // slot ri is overwritten below
    }
    if (ri == search_memo_.size()) search_memo_.emplace_back();
    RiderSearch& entry = search_memo_[ri];
    const size_t before = pairs_.size();
    entry.order_id = r.order_id;
    entry.pickup = r.pickup;
    entry.pickup_deadline = r.pickup_deadline;
    entry.walked = SearchRider(static_cast<int>(ri), &pairs_);
    entry.pickup_region = r.pickup_region;
    entry.found_nothing = pairs_.size() == before;
  }
  search_memo_.resize(riders.size());
  search_memo_now_ = now_;
  pairs_current_ = true;
  searched_this_batch_ = true;
#ifndef NDEBUG
  // The memoised list must equal the from-scratch search bit for bit.
  std::vector<CandidatePair> scratch;
  for (int ri = 0; ri < static_cast<int>(riders.size()); ++ri) {
    SearchRider(ri, &scratch);
  }
  assert(scratch.size() == pairs_.size());
  for (size_t i = 0; i < scratch.size(); ++i) {
    assert(scratch[i].rider_index == pairs_[i].rider_index);
    assert(scratch[i].driver_index == pairs_[i].driver_index);
    assert(std::bit_cast<uint64_t>(scratch[i].pickup_seconds) ==
           std::bit_cast<uint64_t>(pairs_[i].pickup_seconds));
  }
#endif
}

void BatchContext::SetSnapshots(std::vector<RegionSnapshot> snapshots) {
  assert(static_cast<int>(snapshots.size()) == grid_.num_regions());
  snapshots_ = std::move(snapshots);
  has_source_ = false;
  BumpMemoEpoch();
}

void BatchContext::SetSnapshotSource(const SnapshotSource& source) {
  source_ = source;
  has_source_ = true;
  window_slots_found_ = false;
  BumpMemoEpoch();
#ifndef NDEBUG
  // The eager fill every batch used to make, summed region by region, for
  // FillSnapshotRow to check against; it also catches a read made after
  // the counters moved.
  reference_snapshots_.resize(snapshots_.size());
  for (size_t k = 0; k < snapshots_.size(); ++k) {
    const double count =
        source_.forecast == nullptr
            ? 0.0
            : source_.forecast->WindowCount(now_, window_seconds_,
                                            static_cast<int>(k));
    reference_snapshots_[k] = SourceSnapshot(k, count);
  }
#endif
}

RegionSnapshot BatchContext::SourceSnapshot(size_t k,
                                            double window_count) const {
  RegionSnapshot s;
  s.waiting_riders = (*source_.waiting_riders)[k];
  s.available_drivers = (*source_.available_drivers)[k];
  if (source_.forecast != nullptr) {
    s.predicted_riders = window_count;
    if (source_.demand_multipliers != nullptr) {
      s.predicted_riders *= (*source_.demand_multipliers)[k];
    }
  }
  s.predicted_drivers = static_cast<double>((*source_.rejoining_drivers)[k]);
  return s;
}

// Out of line: almost every read finds its rows already computed.
[[gnu::noinline]] void BatchContext::FillSnapshotRow(int row) const {
  const int cols = grid_.cols();
  const size_t first = static_cast<size_t>(grid_.RegionAt(row, 0));
  row_counts_.resize(static_cast<size_t>(cols));
  if (source_.forecast != nullptr) {
    if (!window_slots_found_) {
      source_.forecast->WindowSlots(now_, window_seconds_, &window_slots_);
      window_slots_found_ = true;
    }
    source_.forecast->WindowCountsOf(window_slots_, static_cast<int>(first),
                                     cols, row_counts_.data());
  }
  for (int c = 0; c < cols; ++c) {
    const size_t k = first + static_cast<size_t>(c);
    snapshots_[k] = SourceSnapshot(k, row_counts_[static_cast<size_t>(c)]);
#ifndef NDEBUG
    const RegionSnapshot& s = snapshots_[k];
    const RegionSnapshot& want = reference_snapshots_[k];
    assert(s.waiting_riders == want.waiting_riders &&
           s.available_drivers == want.available_drivers &&
           std::bit_cast<uint64_t>(s.predicted_riders) ==
               std::bit_cast<uint64_t>(want.predicted_riders) &&
           std::bit_cast<uint64_t>(s.predicted_drivers) ==
               std::bit_cast<uint64_t>(want.predicted_drivers) &&
           "a snapshot read after its batch's counters moved");
#endif
  }
  row_epoch_[static_cast<size_t>(row)] = memo_epoch_;
}

const std::vector<RegionSnapshot>& BatchContext::snapshots() const {
  if (has_source_) EnsureSnapshotRows(0, grid_.rows() - 1);
  return snapshots_;
}

BatchContext::RegionQueue BatchContext::QueueFor(RegionId region,
                                                  int extra_drivers) const {
  const bool ring = candidate_mode_ == CandidateMode::kRingExpand;
  if (has_source_) {
    // The rows of the region's service neighbourhood, checked once here.
    const int row = grid_.RowOf(region);
    EnsureSnapshotRows(ring ? std::max(row - 1, 0) : row,
                       ring ? std::min(row + 1, grid_.rows() - 1) : row);
  }
  RegionSnapshot snap = snapshots_[static_cast<size_t>(region)];
  if (ring) {
    // Under cross-region matching a driver rejoining region k competes in
    // (and is served from) the 3x3 service neighbourhood, so the queue that
    // determines his idle time aggregates those regions' demand and supply.
    // Under strict per-region matching (Algorithm 2) the region's own
    // snapshot is the exact queue. The walk adds the neighbours in
    // Grid::Ring's order; the floating-point sums depend on it.
    const CellSpan whole_grid{0, grid_.rows() - 1, 0, grid_.cols() - 1};
    grid_.ForEachRingCell(region, 1, whole_grid, [&](RegionId nb) {
      const RegionSnapshot& s = snapshots_[static_cast<size_t>(nb)];
      snap.waiting_riders += s.waiting_riders;
      snap.available_drivers += s.available_drivers;
      snap.predicted_riders += s.predicted_riders;
      snap.predicted_drivers += s.predicted_drivers;
    });
  }
  RegionQueue queue;
  // K truncates the predicted rejoiners before adding the tentative ones.
  queue.max_drivers = std::max<int64_t>(
      snap.available_drivers + static_cast<int64_t>(snap.predicted_drivers) +
          extra_drivers,
      1);
  snap.predicted_drivers += static_cast<double>(extra_drivers);
  queue.rates = EstimateRegionRates(snap, window_seconds_);
  return queue;
}

double BatchContext::ComputeIdleSeconds(RegionId region,
                                        int extra_drivers) const {
  const RegionQueue queue = QueueFor(region, extra_drivers);
  // Solve the chain in per-minute units: the reneging practice
  // π(n) = e^{βn}/μ from [25] is calibrated for arrival rates on the order
  // of "customers per minute" (§4.1 states rates in number per minute);
  // feeding per-second rates would make 1/μ a huge reneging rate.
  double et_minutes = EstimateIdleTimeSeconds(
      queue.rates.lambda * 60.0, queue.rates.mu * 60.0, queue.max_drivers,
      growth_, /*max_idle_seconds=*/60.0);  // cap: 60 min
  return et_minutes * 60.0;
}

BatchContext::IdleMemoEntry& BatchContext::MemoEntry(
    RegionId region, int extra_drivers) const {
  assert(extra_drivers >= 0);
  std::vector<IdleMemoEntry>& row = idle_memo_[static_cast<size_t>(region)];
  const size_t extra = static_cast<size_t>(extra_drivers);
  if (extra >= row.size()) row.resize(extra + 1);
  return row[extra];
}

void BatchContext::BumpMemoEpoch() {
  if (++memo_epoch_ != 0) return;
  // The stamp wrapped: clear every entry so none from 2^32 epochs ago
  // reads as current.
  for (auto& row : idle_memo_) {
    for (IdleMemoEntry& entry : row) entry.epoch = 0;
  }
  std::fill(row_epoch_.begin(), row_epoch_.end(), 0);
  memo_epoch_ = 1;
}

double BatchContext::ExpectedIdleSeconds(RegionId region,
                                         int extra_drivers) const {
  IdleMemoEntry& entry = MemoEntry(region, extra_drivers);
  if (entry.epoch != memo_epoch_) {
    entry = {ComputeIdleSeconds(region, extra_drivers), memo_epoch_};
  }
  return entry.seconds;
}

}  // namespace mrvd
