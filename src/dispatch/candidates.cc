#include "dispatch/candidates.h"

namespace mrvd {

std::vector<CandidatePair> GenerateValidPairs(const BatchContext& ctx) {
  std::vector<CandidatePair> out;
  for (int ri = 0; ri < static_cast<int>(ctx.riders().size()); ++ri) {
    ctx.SearchRider(ri, &out);
  }
  return out;
}

}  // namespace mrvd
