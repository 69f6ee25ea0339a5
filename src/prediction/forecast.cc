#include "prediction/forecast.h"

#include <algorithm>
#include <cmath>

#include "workload/types.h"

namespace mrvd {

StatusOr<DemandForecast> DemandForecast::Build(
    const DemandPredictor& predictor, const DemandHistory& observed,
    int eval_day) {
  if (eval_day < 0 || eval_day >= observed.num_days()) {
    return Status::OutOfRange("eval_day outside observed tensor");
  }
  DemandForecast fc(observed.slots_per_day(), observed.num_regions());
  fc.predicted_.resize(
      static_cast<size_t>(fc.slots_per_day_) * fc.num_regions_);
  for (int slot = 0; slot < fc.slots_per_day_; ++slot) {
    int step = eval_day * fc.slots_per_day_ + slot;
    for (int r = 0; r < fc.num_regions_; ++r) {
      fc.predicted_[static_cast<size_t>(slot) * fc.num_regions_ + r] =
          std::max(0.0, predictor.PredictStep(observed, step, r));
    }
  }
  return fc;
}

double DemandForecast::slot_seconds() const {
  return kSecondsPerDay / slots_per_day_;
}

template <typename Fn>
void DemandForecast::ForEachWindowSlot(double t_seconds,
                                       double window_seconds, Fn&& fn) const {
  const double slot_secs = slot_seconds();
  double t0 = std::max(0.0, t_seconds);
  double t1 = std::min(kSecondsPerDay, t_seconds + window_seconds);
  int first_slot = static_cast<int>(t0 / slot_secs);
  int last_slot = static_cast<int>((t1 - 1e-9) / slot_secs);
  for (int s = first_slot; s <= last_slot && s < slots_per_day_; ++s) {
    double lo = std::max(t0, s * slot_secs);
    double hi = std::min(t1, (s + 1) * slot_secs);
    if (hi <= lo) continue;
    fn(s, hi - lo);
  }
}

double DemandForecast::WindowCount(double t_seconds, double window_seconds,
                                   int region) const {
  const double slot_secs = slot_seconds();
  double total = 0.0;
  ForEachWindowSlot(t_seconds, window_seconds, [&](int s, double seconds) {
    total += Share(SlotCount(s, region), seconds, slot_secs);
  });
  return total;
}

void DemandForecast::WindowSlots(double t_seconds, double window_seconds,
                                 std::vector<WindowSlot>* out) const {
  out->clear();
  ForEachWindowSlot(t_seconds, window_seconds, [&](int s, double seconds) {
    out->push_back({s, seconds});
  });
}

void DemandForecast::WindowCountsOf(const std::vector<WindowSlot>& slots,
                                    int first, int count, double* out) const {
  const double slot_secs = slot_seconds();
  std::fill(out, out + count, 0.0);
  for (const WindowSlot& ws : slots) {
    const double* slot = predicted_.data() +
                         static_cast<size_t>(ws.slot) * num_regions_ + first;
    for (int i = 0; i < count; ++i) {
      out[i] += Share(slot[i], ws.seconds, slot_secs);
    }
  }
}

}  // namespace mrvd
