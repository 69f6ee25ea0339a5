// Geographic primitives: WGS84 lat/lon points, bounding boxes, distances.
#pragma once

#include <cmath>
#include <ostream>

namespace mrvd {

/// Mean Earth radius in meters (spherical model).
inline constexpr double kEarthRadiusMeters = 6371000.0;

/// A WGS84 coordinate in decimal degrees.
struct LatLon {
  double lat = 0.0;
  double lon = 0.0;

  bool operator==(const LatLon&) const = default;
};

inline std::ostream& operator<<(std::ostream& os, const LatLon& p) {
  return os << "(" << p.lat << ", " << p.lon << ")";
}

/// Great-circle distance in meters (haversine formula). Exact on the sphere;
/// used in tests and as the reference for the fast path below.
double HaversineMeters(const LatLon& a, const LatLon& b);

/// Equirectangular-approximation distance in meters. Error < 0.1% at city
/// scale (tens of km); ~4x faster than haversine. This is the simulator's
/// default metric.
double EquirectangularMeters(const LatLon& a, const LatLon& b);

/// Axis-aligned geographic bounding box. `lon_min < lon_max`,
/// `lat_min < lat_max` (NYC: lon -74.03..-73.77, lat 40.58..40.92).
struct BoundingBox {
  double lon_min = 0.0, lon_max = 0.0;
  double lat_min = 0.0, lat_max = 0.0;

  bool Contains(const LatLon& p) const {
    return p.lon >= lon_min && p.lon <= lon_max && p.lat >= lat_min &&
           p.lat <= lat_max;
  }

  LatLon Center() const {
    return {0.5 * (lat_min + lat_max), 0.5 * (lon_min + lon_max)};
  }

  double WidthDegrees() const { return lon_max - lon_min; }
  double HeightDegrees() const { return lat_max - lat_min; }

  /// Clamps `p` into the box (used to keep generated noise inside the city).
  LatLon Clamp(const LatLon& p) const {
    return {std::fmin(std::fmax(p.lat, lat_min), lat_max),
            std::fmin(std::fmax(p.lon, lon_min), lon_max)};
  }
};

/// A box holding every point within `meters` equirectangular metres of
/// `center`: EquirectangularMeters(p, center) <= meters implies
/// Contains(p). The latitude half-width is meters / R; the longitude
/// half-width divides that by the smallest cos(mean latitude) a point of
/// the latitude band can give, and is unbounded when the band comes within
/// 1° of a pole. Both are padded by 1e-9 relative against rounding. An
/// infinite radius gives an unbounded box; a NaN radius one that contains
/// nothing.
BoundingBox EquirectangularReachBox(const LatLon& center, double meters);

/// The evaluation-area box from the paper (§6.2): New York City,
/// -73.77° ~ -74.03° longitude, 40.58° ~ 40.92° latitude.
inline constexpr BoundingBox kNycBoundingBox = {
    /*lon_min=*/-74.03, /*lon_max=*/-73.77,
    /*lat_min=*/40.58, /*lat_max=*/40.92};

}  // namespace mrvd
