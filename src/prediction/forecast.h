// Bridges offline predictors to the online dispatcher: per-region expected
// order counts over an arbitrary [t, t + t_c) window of the evaluation day.
//
// The forecast is materialised per slot once (predictions depend only on the
// slot, not the batch timestamp) and windows spanning slot boundaries sum
// fractional slot contributions.
#pragma once

#include <memory>
#include <vector>

#include "prediction/predictor.h"

namespace mrvd {

/// Per-slot predicted counts for one evaluation day.
class DemandForecast {
 public:
  /// Builds the forecast for day `eval_day` of `observed` (a tensor whose
  /// trailing day(s) are the evaluation data; predictors only look at
  /// earlier steps, the oracle reads the day itself).
  static StatusOr<DemandForecast> Build(const DemandPredictor& predictor,
                                        const DemandHistory& observed,
                                        int eval_day);

  int slots_per_day() const { return slots_per_day_; }
  int num_regions() const { return num_regions_; }

  /// Predicted count for region in slot (0..slots_per_day-1).
  double SlotCount(int slot, int region) const {
    return predicted_[static_cast<size_t>(slot) * num_regions_ + region];
  }

  /// Expected number of orders in `region` arriving during
  /// [t_seconds, t_seconds + window_seconds) of the evaluation day
  /// (piecewise-constant per slot; windows past midnight are truncated).
  double WindowCount(double t_seconds, double window_seconds,
                     int region) const;

  /// WindowCount of every region at once: `out` is resized to
  /// num_regions() and entry k equals WindowCount(t_seconds,
  /// window_seconds, k) bit for bit. The slot bounds are found once.
  void WindowCounts(double t_seconds, double window_seconds,
                    std::vector<double>* out) const;

 private:
  DemandForecast(int slots_per_day, int num_regions)
      : slots_per_day_(slots_per_day), num_regions_(num_regions) {}

  /// Calls fn(slot, seconds) for each slot that overlaps the window,
  /// in ascending slot order, with the overlap's length in seconds.
  template <typename Fn>
  void ForEachWindowSlot(double t_seconds, double window_seconds,
                         Fn&& fn) const;

  /// A slot's predicted `count` scaled to `seconds` of the slot.
  static double Share(double count, double seconds, double slot_secs) {
    return count * seconds / slot_secs;
  }
  double slot_seconds() const;

  int slots_per_day_;
  int num_regions_;
  std::vector<double> predicted_;  ///< [slot][region]
};

}  // namespace mrvd
