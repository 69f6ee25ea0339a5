#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <vector>

#include "util/csv.h"
#include "workload/demand_history.h"
#include "workload/generator.h"
#include "workload/tlc_parser.h"

namespace mrvd {
namespace {

GeneratorConfig SmallConfig() {
  GeneratorConfig cfg;
  cfg.grid_rows = 8;
  cfg.grid_cols = 8;
  cfg.orders_per_day = 10000.0;
  return cfg;
}

// ---------------------------------------------------------------- generator

TEST(GeneratorTest, DeterministicForSameDayIndex) {
  NycLikeGenerator gen(SmallConfig());
  Workload a = gen.GenerateDay(3, 50);
  Workload b = gen.GenerateDay(3, 50);
  ASSERT_EQ(a.orders.size(), b.orders.size());
  for (size_t i = 0; i < a.orders.size(); i += 97) {
    EXPECT_DOUBLE_EQ(a.orders[i].request_time, b.orders[i].request_time);
    EXPECT_EQ(a.orders[i].pickup, b.orders[i].pickup);
  }
}

TEST(GeneratorTest, DifferentDaysDiffer) {
  NycLikeGenerator gen(SmallConfig());
  Workload a = gen.GenerateDay(0, 10);
  Workload b = gen.GenerateDay(1, 10);
  EXPECT_NE(a.orders.size(), b.orders.size());
}

TEST(GeneratorTest, VolumeNearConfigured) {
  NycLikeGenerator gen(SmallConfig());
  Workload w = gen.GenerateDay(2, 10);  // weekday
  auto n = static_cast<double>(w.orders.size());
  EXPECT_NEAR(n, 10000.0, 400.0);  // Poisson noise is ~sqrt(10000)=100
}

TEST(GeneratorTest, WeekendVolumeIsLower) {
  NycLikeGenerator gen(SmallConfig());
  double weekday = static_cast<double>(gen.GenerateDay(2, 0).orders.size());
  double weekend = static_cast<double>(gen.GenerateDay(5, 0).orders.size());
  EXPECT_LT(weekend, weekday * 0.95);
}

TEST(GeneratorTest, OrdersSortedAndIdsSequential) {
  NycLikeGenerator gen(SmallConfig());
  Workload w = gen.GenerateDay(0, 0);
  for (size_t i = 1; i < w.orders.size(); ++i) {
    EXPECT_LE(w.orders[i - 1].request_time, w.orders[i].request_time);
    EXPECT_EQ(w.orders[i].id, static_cast<OrderId>(i));
  }
}

TEST(GeneratorTest, DeadlinesRespectConfiguredWindow) {
  GeneratorConfig cfg = SmallConfig();
  cfg.base_pickup_wait = 120.0;
  NycLikeGenerator gen(cfg);
  Workload w = gen.GenerateDay(0, 0);
  for (const Order& o : w.orders) {
    double slack = o.pickup_deadline - o.request_time;
    EXPECT_GE(slack, 120.0 + 1.0 - 1e-9);
    EXPECT_LE(slack, 120.0 + 10.0 + 1e-9);
  }
}

TEST(GeneratorTest, AllPointsInsideBox) {
  NycLikeGenerator gen(SmallConfig());
  Workload w = gen.GenerateDay(0, 100);
  for (const Order& o : w.orders) {
    EXPECT_TRUE(gen.config().box.Contains(o.pickup));
    EXPECT_TRUE(gen.config().box.Contains(o.dropoff));
  }
  for (const DriverSpec& d : w.drivers) {
    EXPECT_TRUE(gen.config().box.Contains(d.origin));
  }
}

TEST(GeneratorTest, DriverCountMatches) {
  NycLikeGenerator gen(SmallConfig());
  EXPECT_EQ(gen.GenerateDay(0, 123).drivers.size(), 123u);
}

TEST(GeneratorTest, ExpectedCountsSumToDailyVolume) {
  NycLikeGenerator gen(SmallConfig());
  double total = 0;
  for (int slot = 0; slot < 48; ++slot) {
    for (RegionId r = 0; r < gen.grid().num_regions(); ++r) {
      total += gen.ExpectedSlotCount(1, slot, r);
    }
  }
  EXPECT_NEAR(total, 10000.0, 1.0);
}

TEST(GeneratorTest, MorningPeakExceedsOvernight) {
  NycLikeGenerator gen(SmallConfig());
  double peak = 0, overnight = 0;
  for (RegionId r = 0; r < gen.grid().num_regions(); ++r) {
    peak += gen.ExpectedSlotCount(1, 17, r);       // 08:30
    overnight += gen.ExpectedSlotCount(1, 7, r);   // 03:30
  }
  EXPECT_GT(peak, overnight * 2.0);
}

TEST(GeneratorTest, DestinationDistributionNormalized) {
  NycLikeGenerator gen(SmallConfig());
  auto dist = gen.DestinationDistribution(0, 17, 20);
  double sum = 0;
  for (double p : dist) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(GeneratorTest, PerMinuteRateConsistentWithSlotCount) {
  NycLikeGenerator gen(SmallConfig());
  EXPECT_NEAR(gen.ExpectedPerMinuteRate(0, 17 * 30 + 5, 9) * 30.0,
              gen.ExpectedSlotCount(0, 17, 9), 1e-9);
}

/// FNV-1a over the bits of every order field and driver of a day.
uint64_t HashDay(const Workload& w) {
  uint64_t h = 14695981039346656037ull;
  auto add = [&h](uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  auto add_double = [&add](double v) { add(std::bit_cast<uint64_t>(v)); };
  add(w.orders.size());
  for (const Order& o : w.orders) {
    add(static_cast<uint64_t>(o.id));
    add_double(o.request_time);
    add_double(o.pickup.lat);
    add_double(o.pickup.lon);
    add_double(o.dropoff.lat);
    add_double(o.dropoff.lon);
    add_double(o.pickup_deadline);
  }
  add(w.drivers.size());
  for (const DriverSpec& d : w.drivers) {
    add(static_cast<uint64_t>(d.id));
    add_double(d.origin.lat);
    add_double(d.origin.lon);
    add_double(d.join_time);
  }
  add_double(w.horizon_seconds);
  return h;
}

TEST(GeneratorTest, GeneratedDaysArePinnedBitForBit) {
  // Hashes of whole generated days, recorded from the per-order
  // linear-scan sampler that the per-(slot, origin) CDFs replaced. The
  // gravity-0 day has NaN local weights (exp(-0/0)); there the scan, and
  // so the CDF draw, returns the last region.
  struct Case {
    const char* name;
    int day_index;
    GeneratorConfig config;
    uint64_t hash;
  };
  auto config = [](int rows, int cols) {
    GeneratorConfig cfg;
    cfg.grid_rows = rows;
    cfg.grid_cols = cols;
    cfg.orders_per_day = 20000.0;
    return cfg;
  };
  std::vector<Case> cases = {
      {"weekday 16x16", 1, config(16, 16), 13254116191377160950ull},
      {"weekend 7x11", 5, config(7, 11), 7573379350244674039ull},
      {"local_dest_prob 0", 1, config(16, 16), 9780308039592765696ull},
      {"local_dest_prob 1", 1, config(16, 16), 2936135739119110530ull},
      {"gravity 0", 1, config(16, 16), 5255691366090785954ull},
      {"gravity -0.01", 1, config(16, 16), 16843879273333167973ull},
  };
  cases[2].config.local_dest_prob = 0.0;
  cases[3].config.local_dest_prob = 1.0;
  cases[4].config.gravity_scale_cells = 0.0;
  cases[5].config.gravity_scale_cells = -0.01;
  for (const Case& c : cases) {
    NycLikeGenerator gen(c.config);
    EXPECT_EQ(HashDay(gen.GenerateDay(c.day_index, 300)), c.hash) << c.name;
  }
}

// ------------------------------------------------------------ demand history

TEST(DemandHistoryTest, AccumulateDayBucketsCorrectly) {
  NycLikeGenerator gen(SmallConfig());
  Workload w = gen.GenerateDay(0, 0);
  DemandHistory hist(1, 48, gen.grid().num_regions());
  ASSERT_TRUE(hist.AccumulateDay(0, w, gen.grid()).ok());
  double total = 0;
  for (int s = 0; s < 48; ++s) {
    for (int r = 0; r < hist.num_regions(); ++r) total += hist.at(0, s, r);
  }
  EXPECT_DOUBLE_EQ(total, static_cast<double>(w.orders.size()));
}

TEST(DemandHistoryTest, RejectsOutOfRangeDay) {
  NycLikeGenerator gen(SmallConfig());
  Workload w = gen.GenerateDay(0, 0);
  DemandHistory hist(1, 48, gen.grid().num_regions());
  EXPECT_FALSE(hist.AccumulateDay(5, w, gen.grid()).ok());
}

TEST(DemandHistoryTest, GeneratedHistoryMatchesIntensity) {
  NycLikeGenerator gen(SmallConfig());
  DemandHistory hist = gen.GenerateHistory(10, 48);
  // Aggregate counts over all weekdays/slots should track the intensity.
  double observed = 0, expected = 0;
  for (int d = 0; d < 10; ++d) {
    for (int s = 0; s < 48; ++s) {
      for (int r = 0; r < hist.num_regions(); ++r) {
        observed += hist.at(d, s, r);
        expected += gen.ExpectedSlotCount(d, s, r);
      }
    }
  }
  EXPECT_NEAR(observed / expected, 1.0, 0.02);
}

TEST(DemandHistoryTest, RealizedCountsMatchWorkload) {
  NycLikeGenerator gen(SmallConfig());
  Workload w = gen.GenerateDay(1, 0);
  DemandHistory rc = gen.RealizedCounts(w, 48);
  double total = 0;
  for (int s = 0; s < 48; ++s) {
    for (int r = 0; r < rc.num_regions(); ++r) total += rc.at(0, s, r);
  }
  EXPECT_DOUBLE_EQ(total, static_cast<double>(w.orders.size()));
}

TEST(DemandHistoryTest, ObservedHistoryIsTheTrainingDaysThenTheRealizedDay) {
  NycLikeGenerator gen(SmallConfig());
  Workload day = gen.GenerateDay(21, 5);
  DemandHistory observed = gen.ObservedHistory(21, day, 48);
  DemandHistory train = gen.GenerateHistory(21, 48);
  DemandHistory realized = gen.RealizedCounts(day, 48);
  ASSERT_EQ(observed.num_days(), 22);
  ASSERT_EQ(observed.slots_per_day(), 48);
  ASSERT_EQ(observed.num_regions(), train.num_regions());
  int64_t mismatches = 0;
  for (int s = 0; s < 48; ++s) {
    for (int r = 0; r < observed.num_regions(); ++r) {
      for (int d = 0; d < 21; ++d) {
        if (observed.at(d, s, r) != train.at(d, s, r)) ++mismatches;
      }
      if (observed.at(21, s, r) != realized.at(0, s, r)) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

// --------------------------------------------------------------- TLC parser

TEST(TlcParserTest, ParseDateTime) {
  auto t = ParseDateTimeSeconds("2013-05-28 00:00:00");
  ASSERT_TRUE(t.ok());
  auto t2 = ParseDateTimeSeconds("2013-05-28 01:30:15");
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(*t2 - *t, 3600 + 30 * 60 + 15);
  EXPECT_FALSE(ParseDateTimeSeconds("garbage").ok());
  EXPECT_FALSE(ParseDateTimeSeconds("2013-13-01 00:00:00").ok());
}

TEST(TlcParserTest, ParsesYellowTaxiSchema) {
  auto path = std::filesystem::temp_directory_path() / "mrvd_tlc_test.csv";
  {
    CsvWriter w(path.string());
    w.WriteRow({"medallion", "pickup_datetime", "dropoff_datetime",
                "passenger_count", "pickup_longitude", "pickup_latitude",
                "dropoff_longitude", "dropoff_latitude"});
    w.WriteRow({"m1", "2013-05-28 08:00:00", "2013-05-28 08:20:00", "1",
                "-73.98", "40.75", "-73.95", "40.78"});
    w.WriteRow({"m2", "2013-05-28 09:15:30", "2013-05-28 09:40:00", "2",
                "-73.90", "40.70", "-73.85", "40.68"});
    // Bad GPS: dropped.
    w.WriteRow({"m3", "2013-05-28 10:00:00", "2013-05-28 10:10:00", "1",
                "0.0", "0.0", "-73.85", "40.68"});
    // Unparseable datetime: dropped.
    w.WriteRow({"m4", "not-a-date", "2013-05-28 10:10:00", "1", "-73.98",
                "40.75", "-73.95", "40.78"});
  }
  TlcParseStats stats;
  auto wl = ParseTlcCsv(path.string(), 5, {}, &stats);
  ASSERT_TRUE(wl.ok()) << wl.status();
  EXPECT_EQ(wl->orders.size(), 2u);
  EXPECT_EQ(stats.rows_out_of_box, 1);
  EXPECT_EQ(stats.rows_bad, 1);
  EXPECT_EQ(wl->drivers.size(), 5u);
  // First order at 08:00 = 28800 s from midnight.
  EXPECT_DOUBLE_EQ(wl->orders[0].request_time, 28800.0);
  EXPECT_GT(wl->orders[0].pickup_deadline, wl->orders[0].request_time);
  std::filesystem::remove(path);
}

TEST(TlcParserTest, MissingColumnsIsError) {
  auto path = std::filesystem::temp_directory_path() / "mrvd_tlc_bad.csv";
  {
    CsvWriter w(path.string());
    w.WriteRow({"a", "b"});
    w.WriteRow({"1", "2"});
  }
  EXPECT_FALSE(ParseTlcCsv(path.string(), 1).ok());
  std::filesystem::remove(path);
}

TEST(TlcParserTest, MissingFileIsError) {
  EXPECT_FALSE(ParseTlcCsv("/no/such/file.csv", 1).ok());
}

}  // namespace
}  // namespace mrvd
