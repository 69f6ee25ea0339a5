#include "workload/generator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <numeric>

namespace mrvd {

namespace {

double Gauss(double x, double mean, double sigma) {
  double d = (x - mean) / sigma;
  return std::exp(-0.5 * d * d);
}

}  // namespace

NycLikeGenerator::NycLikeGenerator(const GeneratorConfig& config)
    : config_(config),
      grid_(config.box, config.grid_rows, config.grid_cols) {
  const int n = grid_.num_regions();
  Rng field_rng(config_.seed);

  // Lay down the two hotspot fields. Hotspot centers are random cells;
  // weight(r) = background + Σ_h peak * gauss(ring distance).
  auto make_field = [&](Rng rng) {
    std::vector<std::pair<double, double>> centers;  // (row, col)
    for (int h = 0; h < config_.hotspots_per_field; ++h) {
      centers.push_back({rng.Uniform(0, grid_.rows()),
                         rng.Uniform(0, grid_.cols())});
    }
    std::vector<double> field(static_cast<size_t>(n), 1.0);
    for (RegionId r = 0; r < n; ++r) {
      double row = grid_.RowOf(r) + 0.5, col = grid_.ColOf(r) + 0.5;
      for (auto& [hr, hc] : centers) {
        double d = std::hypot(row - hr, col - hc);
        field[static_cast<size_t>(r)] +=
            config_.hotspot_peak_ratio *
            Gauss(d, 0.0, config_.hotspot_sigma_cells);
      }
    }
    double sum = 0.0;
    for (double v : field) sum += v;
    for (double& v : field) v /= sum;
    return field;
  };
  residential_ = make_field(field_rng.Fork(1));
  business_ = make_field(field_rng.Fork(2));

  gravity_.resize(static_cast<size_t>(std::max(grid_.rows(), grid_.cols())));
  for (size_t d = 0; d < gravity_.size(); ++d) {
    gravity_[d] =
        std::exp(-static_cast<double>(d) / config_.gravity_scale_cells);
  }

  // Diurnal profile over 48 half-hour slots: overnight low, AM peak ~8:30,
  // midday shoulder, PM peak ~18:30.
  weekday_slot_weights_.resize(kSlotsPerDay);
  double sum = 0.0;
  for (int s = 0; s < kSlotsPerDay; ++s) {
    double hour = (s + 0.5) * 0.5;
    double w = 0.25 + 1.0 * Gauss(hour, 8.5, 1.6) + 0.45 * Gauss(hour, 13.0, 2.8) +
               1.1 * Gauss(hour, 18.5, 2.2) + 0.3 * Gauss(hour, 22.5, 1.5);
    weekday_slot_weights_[static_cast<size_t>(s)] = w;
    sum += w;
  }
  for (double& w : weekday_slot_weights_) w /= sum;

  weekend_slot_weights_.resize(kSlotsPerDay);
  sum = 0.0;
  for (int s = 0; s < kSlotsPerDay; ++s) {
    double w = (1.0 - config_.weekend_flatten) *
                   weekday_slot_weights_[static_cast<size_t>(s)] +
               config_.weekend_flatten / kSlotsPerDay;
    weekend_slot_weights_[static_cast<size_t>(s)] = w;
    sum += w;
  }
  for (double& w : weekend_slot_weights_) w /= sum;
}

double NycLikeGenerator::MorningMix(int slot) {
  // Residential-leaning near the AM commute, business-leaning near the PM
  // commute. The amplitude is deliberately partial (±0.25 around 0.5): both
  // fields always contribute, so destination hotspots also generate pickup
  // demand — as in the real city, where the core is busy all day. Fully
  // polarized fields would strand rejoining drivers in rider-free zones.
  double hour = (slot + 0.5) * 0.5;
  return 0.5 + 0.25 * std::cos((hour - 8.5) / 24.0 * 2.0 * M_PI);
}

double NycLikeGenerator::SlotWeight(int day_index, int slot) const {
  const auto& w = IsWeekend(day_index) ? weekend_slot_weights_
                                       : weekday_slot_weights_;
  return w[static_cast<size_t>(slot)];
}

double NycLikeGenerator::OriginShare(int slot, RegionId region) const {
  double m = MorningMix(slot);
  return m * residential_[static_cast<size_t>(region)] +
         (1.0 - m) * business_[static_cast<size_t>(region)];
}

double NycLikeGenerator::ExpectedSlotCount(int day_index, int slot,
                                           RegionId region) const {
  double day_scale = IsWeekend(day_index) ? config_.weekend_scale : 1.0;
  return config_.orders_per_day * day_scale * SlotWeight(day_index, slot) *
         OriginShare(slot, region);
}

double NycLikeGenerator::ExpectedPerMinuteRate(int day_index,
                                               int minute_of_day,
                                               RegionId region) const {
  int slot = std::clamp(minute_of_day / 30, 0, kSlotsPerDay - 1);
  return ExpectedSlotCount(day_index, slot, region) / 30.0;
}

LatLon NycLikeGenerator::RandomPointIn(RegionId region, Rng& rng) const {
  BoundingBox cell = grid_.CellBox(region);
  return {rng.Uniform(cell.lat_min, cell.lat_max),
          rng.Uniform(cell.lon_min, cell.lon_max)};
}

std::vector<double> NycLikeGenerator::DestinationShares(int slot) const {
  // Destination field is the *opposite* mix of the origin field: morning
  // trips end at business hotspots, evening trips end at residential ones.
  double m = MorningMix(slot);
  std::vector<double> shares(residential_.size());
  for (size_t r = 0; r < shares.size(); ++r) {
    shares[r] = (1.0 - m) * residential_[r] + m * business_[r];
  }
  return shares;
}

void NycLikeGenerator::LocalWeights(const std::vector<double>& shares,
                                    RegionId from,
                                    std::vector<double>* weights) const {
  const int from_row = grid_.RowOf(from), from_col = grid_.ColOf(from);
  weights->resize(shares.size());
  size_t r = 0;
  for (int row = 0; row < grid_.rows(); ++row) {
    const int row_dist = std::abs(row - from_row);
    for (int col = 0; col < grid_.cols(); ++col, ++r) {
      const int ring = std::max(row_dist, std::abs(col - from_col));
      (*weights)[r] = shares[r] * gravity_[static_cast<size_t>(ring)];
    }
  }
}

RegionId NycLikeGenerator::DrawRegion(const std::vector<double>& cdf,
                                      double u) {
  // A NaN u (NaN weights, or 0 * inf) reaches no prefix. The last region
  // then keeps such days as GeneratedDaysArePinnedBitForBit pins them.
  auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  if (it == cdf.end() || !(u <= *it)) {
    return static_cast<RegionId>(cdf.size() - 1);
  }
  return static_cast<RegionId>(it - cdf.begin());
}

std::vector<double> NycLikeGenerator::DestinationDistribution(
    int day_index, int slot, RegionId from) const {
  (void)day_index;
  // Marginal over the local/global mixture, from the weights the sampler's
  // CDFs sum.
  std::vector<double> out = DestinationShares(slot);
  std::vector<double> local_w;
  LocalWeights(out, from, &local_w);
  const double total_local =
      std::accumulate(local_w.begin(), local_w.end(), 0.0);
  const double total_global = std::accumulate(out.begin(), out.end(), 0.0);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = config_.local_dest_prob * local_w[i] / total_local +
             (1.0 - config_.local_dest_prob) * out[i] / total_global;
  }
  return out;
}

Workload NycLikeGenerator::GenerateDay(int day_index, int num_drivers) const {
  Rng rng = Rng(config_.seed).Fork(0x1000 + static_cast<uint64_t>(day_index));
  Workload w;
  w.horizon_seconds = kSecondsPerDay;
  const double slot_secs = kSecondsPerDay / kSlotsPerDay;

  // Destinations are drawn by inverse CDF: the slot's global CDF is built
  // once per slot, an origin's gravity-damped local CDF once, at its first
  // local draw in the slot.
  std::vector<double> global_cdf, local_cdf;
  for (int slot = 0; slot < kSlotsPerDay; ++slot) {
    const std::vector<double> shares = DestinationShares(slot);
    global_cdf = shares;
    std::partial_sum(global_cdf.begin(), global_cdf.end(), global_cdf.begin());
    for (RegionId r = 0; r < grid_.num_regions(); ++r) {
      double mean = ExpectedSlotCount(day_index, slot, r);
      int64_t count = rng.Poisson(mean);
      bool local_built = false;
      for (int64_t c = 0; c < count; ++c) {
        Order o;
        o.request_time = slot * slot_secs + rng.Uniform(0.0, slot_secs);
        o.pickup = RandomPointIn(r, rng);
        const bool local = rng.Bernoulli(config_.local_dest_prob);
        if (local && !local_built) {
          LocalWeights(shares, r, &local_cdf);
          std::partial_sum(local_cdf.begin(), local_cdf.end(),
                           local_cdf.begin());
          local_built = true;
        }
        const std::vector<double>& cdf = local ? local_cdf : global_cdf;
        RegionId dest = DrawRegion(cdf, rng.NextDouble() * cdf.back());
        o.dropoff = RandomPointIn(dest, rng);
        o.pickup_deadline =
            o.request_time +
            rng.Uniform(config_.extra_wait_lo, config_.extra_wait_hi) +
            config_.base_pickup_wait;
        w.orders.push_back(o);
      }
    }
  }
  std::sort(w.orders.begin(), w.orders.end(),
            [](const Order& a, const Order& b) {
              return a.request_time < b.request_time;
            });
  for (size_t i = 0; i < w.orders.size(); ++i) {
    w.orders[i].id = static_cast<OrderId>(i);
  }

  // Driver origins = pickup locations of randomly selected orders (§6.2).
  w.drivers.reserve(static_cast<size_t>(num_drivers));
  for (int d = 0; d < num_drivers; ++d) {
    DriverSpec spec;
    spec.id = d;
    if (!w.orders.empty()) {
      auto pick = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(w.orders.size()) - 1));
      spec.origin = w.orders[pick].pickup;
    } else {
      spec.origin = grid_.box().Center();
    }
    spec.join_time = 0.0;
    w.drivers.push_back(spec);
  }
  return w;
}

DemandHistory NycLikeGenerator::GenerateHistory(int num_days,
                                                int slots_per_day) const {
  DemandHistory hist(num_days, slots_per_day, grid_.num_regions());
  Rng rng = Rng(config_.seed).Fork(0x2000);
  // Counts are Poisson around the intensity, aggregated/split to the
  // requested slot resolution (the intensity is piecewise-constant over
  // 30-minute slots).
  const double slot_secs = kSecondsPerDay / slots_per_day;
  for (int day = 0; day < num_days; ++day) {
    for (int slot = 0; slot < slots_per_day; ++slot) {
      double t0 = slot * slot_secs;
      double t1 = t0 + slot_secs;
      for (RegionId r = 0; r < grid_.num_regions(); ++r) {
        // Integrate the 30-min intensity over [t0, t1).
        double mean = 0.0;
        int s0 = static_cast<int>(t0 / 1800.0);
        int s1 = static_cast<int>((t1 - 1e-9) / 1800.0);
        for (int s = s0; s <= s1 && s < kSlotsPerDay; ++s) {
          double lo = std::max(t0, s * 1800.0);
          double hi = std::min(t1, (s + 1) * 1800.0);
          mean += ExpectedSlotCount(day, s, r) * (hi - lo) / 1800.0;
        }
        hist.set(day, slot, r, static_cast<double>(rng.Poisson(mean)));
      }
    }
  }
  return hist;
}

DemandHistory NycLikeGenerator::RealizedCounts(const Workload& day,
                                               int slots_per_day) const {
  DemandHistory hist(1, slots_per_day, grid_.num_regions());
  Status st = hist.AccumulateDay(0, day, grid_);
  assert(st.ok());
  (void)st;
  return hist;
}

DemandHistory NycLikeGenerator::ObservedHistory(int train_days,
                                                const Workload& eval_day,
                                                int slots_per_day) const {
  DemandHistory train = GenerateHistory(train_days, slots_per_day);
  DemandHistory observed(train_days + 1, slots_per_day, grid_.num_regions());
  for (int day = 0; day < train_days; ++day) {
    for (int slot = 0; slot < slots_per_day; ++slot) {
      for (RegionId r = 0; r < grid_.num_regions(); ++r) {
        observed.set(day, slot, r, train.at(day, slot, r));
      }
    }
  }
  Status st = observed.AccumulateDay(train_days, eval_day, grid_);
  assert(st.ok());
  (void)st;
  return observed;
}

}  // namespace mrvd
