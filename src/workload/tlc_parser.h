// Parser for NYC TLC yellow-taxi trip records (§6.1). Supports both the
// 2013-era trip_data schema (medallion, ..., pickup_datetime,
// pickup_longitude, ...) and the modern tpep_* column names; columns are
// located by header name, so extra columns are ignored.
//
// A parsed day runs through the `tlc` workload-catalog entry
// ("tlc:path=/path/to/trips.csv"; `path` is required).
#pragma once

#include <string>

#include "geo/point.h"
#include "util/status.h"
#include "workload/types.h"

namespace mrvd {

struct TlcParseOptions {
  /// Rows with pickup/dropoff outside this box are dropped (bad GPS fixes).
  BoundingBox box = kNycBoundingBox;
  /// τ_i = t_i + U[extra_lo, extra_hi] + base_wait, as in §6.2.
  double base_pickup_wait = 120.0;
  double extra_wait_lo = 1.0;
  double extra_wait_hi = 10.0;
  /// Seed for deadline noise and driver-origin sampling.
  uint64_t seed = 20190417;
  /// Keep only trips whose pickup falls on this day of the file, indexed
  /// from the first timestamp seen (-1 = keep all; the paper uses a single
  /// test day, 2013-05-28).
  int day_filter = -1;
  /// Hard cap on parsed orders (0 = unlimited).
  int64_t max_orders = 0;
};

/// Statistics from a parse run.
struct TlcParseStats {
  int64_t rows_total = 0;
  int64_t rows_bad = 0;       ///< unparseable fields
  int64_t rows_out_of_box = 0;
  int64_t rows_kept = 0;
};

/// Parses `path` into a Workload (orders sorted by request time; request
/// times are seconds from the first kept day's midnight). `num_drivers`
/// driver origins are sampled from kept pickup locations.
StatusOr<Workload> ParseTlcCsv(const std::string& path, int num_drivers,
                               const TlcParseOptions& options = {},
                               TlcParseStats* stats = nullptr);

/// Parses "YYYY-MM-DD HH:MM:SS" into seconds since 1970-01-01 (UTC,
/// calendar-exact for the Gregorian range we care about). Returns an error
/// for malformed input.
StatusOr<int64_t> ParseDateTimeSeconds(const std::string& s);

}  // namespace mrvd
