// Travel-cost models. The paper expresses all costs as travel time and notes
// time and distance are interchangeable given a speed (§2); the simulator
// works in seconds throughout.
#pragma once

#include <memory>

#include "geo/point.h"

namespace mrvd {

/// Abstract travel-cost oracle: seconds to drive from `from` to `to`.
/// Implementations must be symmetric-free (directed cost is allowed) and
/// return non-negative finite values for in-city points.
class TravelCostModel {
 public:
  virtual ~TravelCostModel() = default;

  /// Travel time in seconds from `from` to `to`.
  virtual double TravelSeconds(const LatLon& from, const LatLon& to) const = 0;

  /// Travel distance in meters (default: seconds * reference speed).
  virtual double TravelMeters(const LatLon& from, const LatLon& to) const;

  /// Reference cruising speed in m/s used for time<->distance conversion
  /// (TravelMeters, POLAR's repositioning times). At least
  /// CrowFlySpeedMps(), so no trip is faster than the crow flies at this
  /// speed either.
  virtual double SpeedMps() const = 0;

  /// The crow-fly speed in m/s that no trip exceeds. Contract:
  /// TravelSeconds(a, b) >= EquirectangularMeters(a, b) / CrowFlySpeedMps()
  /// for all a and b, up to rounding, and CrowFlySpeedMps() <= SpeedMps().
  /// Candidate generation sizes every rider's reach box with it and prunes
  /// each driver outside the box, so a model that breaks it loses valid
  /// pairs. Default: SpeedMps(), the bound for a model whose trips may run
  /// straight at cruising speed.
  virtual double CrowFlySpeedMps() const { return SpeedMps(); }
};

/// Straight-line cost: equirectangular distance inflated by a fixed detour
/// factor, at constant speed. `detour_factor` ~1.3 approximates Manhattan
/// street routing over crow-fly distance; `speed_mps` ~7 m/s (~25 km/h)
/// matches mid-town taxi speeds.
class StraightLineCostModel : public TravelCostModel {
 public:
  explicit StraightLineCostModel(double speed_mps = 7.0,
                                 double detour_factor = 1.3)
      : speed_mps_(speed_mps), detour_factor_(detour_factor) {}

  double TravelSeconds(const LatLon& from, const LatLon& to) const override {
    return EquirectangularMeters(from, to) * detour_factor_ / speed_mps_;
  }

  double TravelMeters(const LatLon& from, const LatLon& to) const override {
    return EquirectangularMeters(from, to) * detour_factor_;
  }

  double SpeedMps() const override { return speed_mps_; }

  /// Every trip covers detour_factor times its crow-fly distance.
  double CrowFlySpeedMps() const override {
    return speed_mps_ / detour_factor_;
  }

 private:
  double speed_mps_;
  double detour_factor_;
};

/// L1 (Manhattan) cost in the lat/lon axes; models a perfect grid street
/// network at constant speed.
class ManhattanCostModel : public TravelCostModel {
 public:
  explicit ManhattanCostModel(double speed_mps = 7.0)
      : speed_mps_(speed_mps) {}

  double TravelSeconds(const LatLon& from, const LatLon& to) const override {
    LatLon corner{from.lat, to.lon};
    double meters = EquirectangularMeters(from, corner) +
                    EquirectangularMeters(corner, to);
    return meters / speed_mps_;
  }

  double SpeedMps() const override { return speed_mps_; }

 private:
  double speed_mps_;
};

}  // namespace mrvd
