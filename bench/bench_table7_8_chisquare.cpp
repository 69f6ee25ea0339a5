// Tables 7/8 + Figures 11/12 (Appendix B): chi-square goodness-of-fit tests
// of the Poisson-arrival hypothesis for orders (Table 7) and rejoined
// drivers (Table 8), over 21 working days of per-minute counts in two
// example sub-regions at 7 A.M. and 8 A.M.
#include <cstdio>
#include <string>
#include <vector>

#include "experiment_common.h"
#include "geo/travel.h"
#include "stats/chi_square.h"
#include "util/strings.h"
#include "workload/generator.h"

using namespace mrvd;
using namespace mrvd::bench;

namespace {

// The paper's example regions as fractions of the city box (region 1:
// -74.01..-73.97 lon, 40.70..40.80 lat of the NYC box; region 2 the next
// longitude band). Using fractions keeps the sub-regions meaningful at any
// MRVD_SCALE.
BoundingBox FractionalBox(const BoundingBox& city, double lon_f0,
                          double lon_f1, double lat_f0, double lat_f1) {
  return {city.lon_min + city.WidthDegrees() * lon_f0,
          city.lon_min + city.WidthDegrees() * lon_f1,
          city.lat_min + city.HeightDegrees() * lat_f0,
          city.lat_min + city.HeightDegrees() * lat_f1};
}

struct SampleSet {
  std::string label;
  std::vector<int64_t> samples;  // per-minute counts, 21 days x 10 minutes
};

void PrintChiSquare(const SampleSet& set) {
  auto result = ChiSquarePoissonTest(set.samples);
  if (!result.ok()) {
    std::printf("%-28s : %s\n", set.label.c_str(),
                result.status().ToString().c_str());
    return;
  }
  PrintTableRow({set.label, StrFormat("%d", result->num_intervals),
                 StrFormat("%.4f", result->statistic),
                 StrFormat("%.3f", result->critical_value),
                 result->reject ? "REJECT" : "not rejected"});
}

void PrintHistogram(const SampleSet& set) {
  auto result = ChiSquarePoissonTest(set.samples);
  if (!result.ok()) return;
  std::printf("\n-- %s: observed vs expected (Figs. 11/12 style) --\n",
              set.label.c_str());
  for (const auto& b : result->buckets) {
    std::string range =
        b.hi == INT64_MAX
            ? StrFormat(">=%lld", (long long)b.lo)
            : StrFormat("%lld~%lld", (long long)b.lo, (long long)b.hi);
    std::printf("  %-12s observed=%4lld expected=%7.1f |", range.c_str(),
                (long long)b.observed, b.expected);
    for (int i = 0; i < b.observed / 2; ++i) std::printf("#");
    std::printf("\n");
  }
}

}  // namespace

int main() {
  const ExperimentScale scale = OrDie(ResolveScale());
  std::printf("Reproduction of Tables 7/8 and Figures 11/12 (scale=%.2f)\n",
              scale.scale);

  // The paper's volume at this scale over the whole NYC box: the chi-square
  // tests read per-minute counts, not a dispatch day.
  GeneratorConfig cfg;
  cfg.orders_per_day = 282255.0 * scale.scale;
  cfg.seed = scale.seed;
  NycLikeGenerator gen(cfg);
  const BoundingBox& city = gen.config().box;
  BoundingBox region1 = FractionalBox(city, 0.077, 0.231, 0.353, 0.647);
  BoundingBox region2 = FractionalBox(city, 0.231, 0.385, 0.353, 0.647);

  // Collect per-minute samples over 21 "working" days (skip weekends by
  // picking weekday day-indices).
  struct Window {
    const char* name;
    int start_minute;
  };
  const Window windows[] = {{"7:00~7:10", 7 * 60}, {"8:00~8:10", 8 * 60}};
  const struct {
    const char* name;
    const BoundingBox* box;
  } regions[] = {{"region 1", &region1}, {"region 2", &region2}};

  // samples[region][window] for orders and for rejoined drivers.
  SampleSet order_sets[2][2], driver_sets[2][2];
  for (int ri = 0; ri < 2; ++ri) {
    for (int wi = 0; wi < 2; ++wi) {
      order_sets[ri][wi].label =
          StrFormat("%s %s", regions[ri].name, windows[wi].name);
      driver_sets[ri][wi].label = order_sets[ri][wi].label;
    }
  }

  StraightLineCostModel cost(11.0, 1.3);
  int days_collected = 0;
  for (int day = 0; days_collected < 21; ++day) {
    if (day % 7 >= 5) continue;  // working days only
    ++days_collected;
    Workload w = gen.GenerateDay(day, 0);
    for (int ri = 0; ri < 2; ++ri) {
      for (int wi = 0; wi < 2; ++wi) {
        int64_t order_counts[10] = {0};
        int64_t driver_counts[10] = {0};
        for (const Order& o : w.orders) {
          // Orders: pickup inside the region during the window.
          int m = static_cast<int>(o.request_time / 60.0) -
                  windows[wi].start_minute;
          if (m >= 0 && m < 10 && regions[ri].box->Contains(o.pickup)) {
            ++order_counts[m];
          }
          // Rejoined drivers: order destinations are the drivers'
          // birth-locations (Appendix B); rejoin at dropoff time.
          double rejoin = o.request_time +
                          cost.TravelSeconds(o.pickup, o.dropoff);
          int md = static_cast<int>(rejoin / 60.0) - windows[wi].start_minute;
          if (md >= 0 && md < 10 && regions[ri].box->Contains(o.dropoff)) {
            ++driver_counts[md];
          }
        }
        for (int m = 0; m < 10; ++m) {
          order_sets[ri][wi].samples.push_back(order_counts[m]);
          driver_sets[ri][wi].samples.push_back(driver_counts[m]);
        }
      }
    }
  }

  PrintTableHeader("Table 7: chi-square test of orders",
                   {"region/slot", "r", "k", "chi2_{r-1}(0.05)", "verdict"});
  for (int ri = 0; ri < 2; ++ri) {
    for (int wi = 0; wi < 2; ++wi) PrintChiSquare(order_sets[ri][wi]);
  }
  PrintTableHeader("Table 8: chi-square test of rejoined drivers",
                   {"region/slot", "r", "k", "chi2_{r-1}(0.05)", "verdict"});
  for (int ri = 0; ri < 2; ++ri) {
    for (int wi = 0; wi < 2; ++wi) PrintChiSquare(driver_sets[ri][wi]);
  }

  // Figures 11/12: one histogram per region/window.
  PrintHistogram(order_sets[0][0]);
  PrintHistogram(order_sets[0][1]);
  PrintHistogram(driver_sets[1][0]);
  PrintHistogram(driver_sets[1][1]);
  return 0;
}
