#include "geo/point.h"

#include <limits>

namespace mrvd {

namespace {
inline double Deg2Rad(double d) { return d * (M_PI / 180.0); }
}  // namespace

double HaversineMeters(const LatLon& a, const LatLon& b) {
  double lat1 = Deg2Rad(a.lat), lat2 = Deg2Rad(b.lat);
  double dlat = lat2 - lat1;
  double dlon = Deg2Rad(b.lon - a.lon);
  double s = std::sin(dlat / 2);
  double t = std::sin(dlon / 2);
  double h = s * s + std::cos(lat1) * std::cos(lat2) * t * t;
  return 2.0 * kEarthRadiusMeters * std::asin(std::sqrt(std::fmin(1.0, h)));
}

double EquirectangularMeters(const LatLon& a, const LatLon& b) {
  double mean_lat = Deg2Rad(0.5 * (a.lat + b.lat));
  double x = Deg2Rad(b.lon - a.lon) * std::cos(mean_lat);
  double y = Deg2Rad(b.lat - a.lat);
  return kEarthRadiusMeters * std::sqrt(x * x + y * y);
}

BoundingBox EquirectangularReachBox(const LatLon& center, double meters) {
  const double reach = meters * (1.0 + 1e-9);
  // |dlat| (rad) * R <= EquirectangularMeters.
  const double half_lat = reach / kEarthRadiusMeters * (180.0 / M_PI);
  // |dlon| (rad) * cos(mean lat) * R <= EquirectangularMeters, and the mean
  // latitude of a point in the band is within half_lat / 2 of the center's.
  const double far_mean_lat = std::abs(center.lat) + 0.5 * half_lat;
  const double half_lon = far_mean_lat < 89.0
                              ? half_lat / std::cos(Deg2Rad(far_mean_lat))
                              : std::numeric_limits<double>::infinity();
  return {center.lon - half_lon, center.lon + half_lon,
          center.lat - half_lat, center.lat + half_lat};
}

}  // namespace mrvd
