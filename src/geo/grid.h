// Uniform grid partitioning of the city into regions a_1..a_n (§2).
// The paper divides NYC into 16x16 grids (§6.2); region ids are row-major.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "geo/point.h"

namespace mrvd {

/// Region identifier; row-major cell index in [0, rows*cols).
using RegionId = int32_t;
inline constexpr RegionId kInvalidRegion = -1;

/// Inclusive rectangle of grid cells: rows row_lo..row_hi, columns
/// col_lo..col_hi.
struct CellSpan {
  int row_lo = 0, row_hi = 0;
  int col_lo = 0, col_hi = 0;

  bool Contains(int row, int col) const {
    return row >= row_lo && row <= row_hi && col >= col_lo && col <= col_hi;
  }
};

/// Uniform rows x cols partition of a bounding box into regions.
class Grid {
 public:
  Grid(const BoundingBox& box, int rows, int cols);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int num_regions() const { return rows_ * cols_; }
  const BoundingBox& box() const { return box_; }

  /// Region containing `p`; points outside the box are clamped to the nearest
  /// border cell (the TLC data contains a small number of off-box GPS fixes).
  RegionId RegionOf(const LatLon& p) const;

  /// Row/col of a region id.
  int RowOf(RegionId r) const { return r / cols_; }
  int ColOf(RegionId r) const { return r % cols_; }
  RegionId RegionAt(int row, int col) const { return row * cols_ + col; }

  /// Geographic center of a region.
  LatLon CenterOf(RegionId r) const;

  /// Bounding box of a region cell.
  BoundingBox CellBox(RegionId r) const;

  /// The (up to 8) adjacent regions of `r`.
  std::vector<RegionId> Neighbors(RegionId r) const;

  /// All regions at Chebyshev distance exactly `ring` from `r` (ring 0 is
  /// {r} itself), in ForEachRingCell's order.
  std::vector<RegionId> Ring(RegionId r, int ring) const;

  /// Calls `f(region)` for each region of Ring(r, ring) that lies in `span`,
  /// in Ring's order: the top and bottom edges column by column, then the
  /// left and right edges row by row. Allocation-free.
  template <typename F>
  void ForEachRingCell(RegionId r, int ring, const CellSpan& span,
                       F&& f) const;

  /// The cells RegionOf can map a point of `box` to: RegionOf's
  /// truncate-and-clamp rule applied to the box's corners, widened by 1e-9
  /// of a cell so points on a cell boundary are kept. Parts of the box off
  /// the grid map to border cells; infinite extents are fine.
  CellSpan SpanOf(const BoundingBox& box) const;

  /// Chebyshev ring distance between two regions.
  int RingDistance(RegionId a, RegionId b) const;

  /// Approximate center-to-center distance in meters between two regions.
  double CenterDistanceMeters(RegionId a, RegionId b) const;

 private:
  BoundingBox box_;
  int rows_, cols_;
  double cell_w_deg_, cell_h_deg_;
};

template <typename F>
void Grid::ForEachRingCell(RegionId r, int ring, const CellSpan& span,
                           F&& f) const {
  const int row = RowOf(r), col = ColOf(r);
  if (ring == 0) {
    if (span.Contains(row, col)) f(r);
    return;
  }
  const int r0 = row - ring, r1 = row + ring;
  const int c0 = col - ring, c1 = col + ring;
  const bool top = r0 >= span.row_lo && r0 <= span.row_hi;
  const bool bottom = r1 >= span.row_lo && r1 <= span.row_hi;
  for (int c = std::max(c0, span.col_lo); c <= std::min(c1, span.col_hi);
       ++c) {
    if (top) f(RegionAt(r0, c));
    if (bottom) f(RegionAt(r1, c));
  }
  const bool left = c0 >= span.col_lo && c0 <= span.col_hi;
  const bool right = c1 >= span.col_lo && c1 <= span.col_hi;
  for (int rr = std::max(r0 + 1, span.row_lo);
       rr <= std::min(r1 - 1, span.row_hi); ++rr) {
    if (left) f(RegionAt(rr, c0));
    if (right) f(RegionAt(rr, c1));
  }
}

/// The paper's default spatial configuration: 16x16 grid over NYC.
Grid MakeNycGrid16x16();

}  // namespace mrvd
