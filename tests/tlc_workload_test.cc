// The `tlc` workload-catalog entry against the checked-in trip fixture
// (tests/data/tlc_trips_sample.csv): CSV parse semantics — row filtering,
// day indexing, order sorting — and an end-to-end catalog Build + Run so
// the TLC path is exercised in CI without the full dataset.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "campaign/workload_catalog.h"
#include "sim/metrics.h"
#include "workload/tlc_parser.h"

namespace mrvd {
namespace {

std::string FixturePath() {
  return std::string(MRVD_TEST_DATA_DIR) + "/tlc_trips_sample.csv";
}

// The fixture holds 34 data rows: 30 in-box trips on 2013-05-28, 2 on
// 2013-05-29, one unparseable pickup datetime and one (0, 0) GPS fix.
TEST(TlcFixtureTest, ParsesRowsAndReportsStats) {
  TlcParseStats stats;
  StatusOr<Workload> w = ParseTlcCsv(FixturePath(), /*num_drivers=*/8,
                                     TlcParseOptions{}, &stats);
  ASSERT_TRUE(w.ok()) << w.status();
  EXPECT_EQ(stats.rows_total, 34);
  EXPECT_EQ(stats.rows_bad, 1);
  EXPECT_EQ(stats.rows_out_of_box, 1);
  EXPECT_EQ(stats.rows_kept, 32);
  ASSERT_EQ(w->orders.size(), 32u);
  ASSERT_EQ(w->drivers.size(), 8u);

  for (size_t i = 0; i < w->orders.size(); ++i) {
    const Order& o = w->orders[i];
    EXPECT_EQ(o.id, static_cast<OrderId>(i));
    if (i > 0) {
      EXPECT_GE(o.request_time, w->orders[i - 1].request_time)
          << "orders must be sorted by request time";
    }
    // τ_i = t_i + U[1, 10] + 120 (§6.2 deadline model).
    EXPECT_GT(o.pickup_deadline, o.request_time + 120.0);
    EXPECT_LT(o.pickup_deadline, o.request_time + 131.0);
    EXPECT_TRUE(kNycBoundingBox.Contains(o.pickup));
    EXPECT_TRUE(kNycBoundingBox.Contains(o.dropoff));
  }
  // Request times are relative to the first kept day's midnight; the
  // earliest fixture trip is at 07:59:58 and the latest next-day trip
  // lands past 24 h.
  EXPECT_DOUBLE_EQ(w->orders.front().request_time,
                   7 * 3600.0 + 59 * 60.0 + 58.0);
  EXPECT_GT(w->orders.back().request_time, 86400.0);
}

TEST(TlcFixtureTest, DayFilterKeepsOneDayRebasedToItsMidnight) {
  TlcParseOptions options;
  options.day_filter = 0;
  StatusOr<Workload> day0 = ParseTlcCsv(FixturePath(), 4, options);
  ASSERT_TRUE(day0.ok()) << day0.status();
  EXPECT_EQ(day0->orders.size(), 30u);

  options.day_filter = 1;
  StatusOr<Workload> day1 = ParseTlcCsv(FixturePath(), 4, options);
  ASSERT_TRUE(day1.ok()) << day1.status();
  ASSERT_EQ(day1->orders.size(), 2u);
  // 2013-05-29 06:10:02, rebased to that day's own midnight.
  EXPECT_DOUBLE_EQ(day1->orders.front().request_time,
                   6 * 3600.0 + 10 * 60.0 + 2.0);
}

TEST(TlcFixtureTest, MaxOrdersCapsTheParse) {
  TlcParseOptions options;
  options.max_orders = 5;
  StatusOr<Workload> w = ParseTlcCsv(FixturePath(), 4, options);
  ASSERT_TRUE(w.ok()) << w.status();
  EXPECT_EQ(w->orders.size(), 5u);
}

TEST(TlcCatalogTest, BuildsAndRunsTheFixture) {
  StatusOr<Simulation> sim = WorkloadCatalog::Global().Build(
      "tlc:path=" + FixturePath() + ",drivers=12,batch_interval=30");
  ASSERT_TRUE(sim.ok()) << sim.status();
  EXPECT_EQ(sim->workload().orders.size(), 32u);
  EXPECT_EQ(sim->workload().drivers.size(), 12u);

  StatusOr<SimResult> result = sim->Run("LS:max_sweeps=8");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->served_orders, 0);
  EXPECT_EQ(result->served_orders + result->reneged_orders,
            result->total_orders);
}

TEST(TlcCatalogTest, MissingPathFailsWithActionableError) {
  // The spec must name the file: the canonical spec, and so a campaign
  // cell's key, is all that tells two files apart. MRVD_TLC_CSV names a
  // real file here to show that no environment variable stands in.
  ASSERT_EQ(::setenv("MRVD_TLC_CSV", FixturePath().c_str(), 1), 0);
  StatusOr<Simulation> sim = WorkloadCatalog::Global().Build("tlc");
  ::unsetenv("MRVD_TLC_CSV");
  ASSERT_FALSE(sim.ok());
  EXPECT_EQ(sim.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(sim.status().message().find("path"), std::string::npos)
      << sim.status();
}

}  // namespace
}  // namespace mrvd
