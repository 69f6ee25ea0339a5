// Valid rider-and-driver pair generation (Def. 3). Candidate drivers are
// found by walking grid rings outward from the rider's pickup region,
// clipped to the rider's reach box: the lat/lon box holding every point
// within (deadline - now) * SpeedMps() equirectangular metres of the
// pickup, which by the TravelCostModel speed contract holds every driver
// that can arrive in time.
#pragma once

#include <vector>

#include "sim/batch.h"

namespace mrvd {

/// One valid pair with its pickup cost.
struct CandidatePair {
  int rider_index = -1;
  int driver_index = -1;
  double pickup_seconds = 0.0;
};

/// All valid pairs of the batch. O(sum over riders of drivers in the cells
/// the rider's reach box touches); the box shrinks as deadlines tighten.
std::vector<CandidatePair> GenerateValidPairs(const BatchContext& ctx);

/// Candidate pairs grouped per rider (same contents as GenerateValidPairs).
std::vector<std::vector<CandidatePair>> GenerateValidPairsPerRider(
    const BatchContext& ctx);

}  // namespace mrvd
