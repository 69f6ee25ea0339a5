// Campaign subsystem (src/campaign/): catalog spec canonicalisation and
// its pinned text, the `paper` entry's recipe, the entries' value checks,
// grid expansion determinism and stable content keys, the resumable
// artifact store (resume skips completed cells; fresh vs resumed
// manifests are byte-identical), and bit-identity of campaign results
// against a serial RunOne loop over the same cells at campaign threads
// {1, 4}.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "api/api.h"
#include "campaign/campaign.h"
#include "util/json_reader.h"

namespace mrvd {
namespace {

namespace fs = std::filesystem;

/// A small, fast grid shared by the runner tests: one generated workload,
/// two dispatchers, two seeds -> 4 cells, ~10ms each.
constexpr char kTestWorkload[] =
    "nyc:orders=1500,drivers=30,horizon_hours=2,grid_rows=6,grid_cols=6";

CampaignSpec SmallSpec() {
  CampaignSpec spec;
  spec.name = "test";
  spec.workloads = {kTestWorkload};
  spec.dispatchers = {"NEAR", "RAND:seed=3"};
  spec.seeds = {1, 2};
  return spec;
}

/// Unique fresh directory under the system temp dir, removed on scope exit.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = fs::temp_directory_path() /
            ("mrvd_campaign_" + tag + "_" +
             std::to_string(reinterpret_cast<uintptr_t>(this)));
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }
  fs::path path() const { return path_; }

 private:
  fs::path path_;
};

std::string ReadFile(const fs::path& path) {
  std::ifstream file(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(file)),
                      std::istreambuf_iterator<char>());
  return content;
}

// ------------------------------------------------------------- catalogs

TEST(WorkloadCatalogTest, RosterAndCanonicalisation) {
  WorkloadCatalog& catalog = WorkloadCatalog::Global();
  EXPECT_TRUE(catalog.Known("nyc"));
  EXPECT_TRUE(catalog.Known("tlc"));

  // The canonical form is the FULL resolved parameter list (defaults
  // filled, sorted, numerics re-formatted): a pure function of what the
  // factory builds, so whitespace, key order, numeric spelling — and
  // defaults spelled out explicitly — all collapse to one string.
  StatusOr<std::string> canonical =
      catalog.Canonicalize("nyc: orders = 4000 , drivers=060");
  ASSERT_TRUE(canonical.ok()) << canonical.status();
  EXPECT_NE(canonical->find("drivers=60,"), std::string::npos) << *canonical;
  EXPECT_NE(canonical->find("orders=4000"), std::string::npos) << *canonical;
  StatusOr<std::string> reordered =
      catalog.Canonicalize("nyc:orders=4000,drivers=60");
  ASSERT_TRUE(reordered.ok()) << reordered.status();
  EXPECT_EQ(*reordered, *canonical);

  // Double-typed parameters normalise numeric spelling too.
  StatusOr<std::string> spelled =
      catalog.Canonicalize("nyc:batch_interval=3.0e1");
  ASSERT_TRUE(spelled.ok()) << spelled.status();
  EXPECT_NE(spelled->find("batch_interval=30,"), std::string::npos)
      << *spelled;

  // A bare name equals its defaults spelled out.
  StatusOr<std::string> bare = catalog.Canonicalize("nyc");
  StatusOr<std::string> with_default = catalog.Canonicalize("nyc:day=1");
  ASSERT_TRUE(bare.ok());
  ASSERT_TRUE(with_default.ok());
  EXPECT_EQ(*bare, *with_default);

  // The canonical form round-trips through the catalog itself.
  StatusOr<std::string> again = catalog.Canonicalize(*canonical);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(*again, *canonical);
}

TEST(WorkloadCatalogTest, UnknownNamesAndParamsFail) {
  WorkloadCatalog& catalog = WorkloadCatalog::Global();
  StatusOr<std::string> unknown = catalog.Canonicalize("mars");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  EXPECT_NE(unknown.status().message().find("nyc"), std::string::npos);

  StatusOr<std::string> bad_param = catalog.Canonicalize("nyc:bogus=1");
  ASSERT_FALSE(bad_param.ok());
  EXPECT_NE(bad_param.status().message().find("drivers"), std::string::npos);

  StatusOr<std::string> bad_value = catalog.Canonicalize("nyc:orders=lots");
  ASSERT_FALSE(bad_value.ok());

  StatusOr<std::string> duplicate =
      catalog.Canonicalize("nyc:orders=1,orders=2");
  ASSERT_FALSE(duplicate.ok());
  EXPECT_NE(duplicate.status().message().find("duplicate"), std::string::npos);
}

TEST(WorkloadCatalogTest, BuildsARunnableSimulation) {
  StatusOr<Simulation> sim = WorkloadCatalog::Global().Build(kTestWorkload);
  ASSERT_TRUE(sim.ok()) << sim.status();
  EXPECT_EQ(sim->grid().num_regions(), 36);
  EXPECT_EQ(sim->workload().drivers.size(), 30u);
  EXPECT_NE(sim->forecast(), nullptr);  // oracle default
  StatusOr<Simulation> no_oracle =
      WorkloadCatalog::Global().Build("nyc:orders=200,oracle=0");
  ASSERT_TRUE(no_oracle.ok()) << no_oracle.status();
  EXPECT_EQ(no_oracle->forecast(), nullptr);
}

TEST(WorkloadCatalogTest, BuildRejectsTravelThatBreaksTheSpeedContract) {
  // ParseDouble accepts "nan" and "inf", so these specs canonicalise; the
  // built simulation must still refuse them with a Status.
  const std::string tlc = std::string("tlc:path=") + MRVD_TEST_DATA_DIR +
                          "/tlc_trips_sample.csv,drivers=20";
  for (const std::string& spec :
       {std::string("nyc:speed_mps=nan"), std::string("nyc:speed_mps=inf"),
        std::string("nyc:speed_mps=0"), std::string("nyc:detour=0.5"),
        std::string("nyc-skew:speed_mps=-1"), tlc + ",detour=nan"}) {
    ASSERT_TRUE(WorkloadCatalog::Global().Canonicalize(spec).ok()) << spec;
    StatusOr<Simulation> sim = WorkloadCatalog::Global().Build(spec);
    ASSERT_FALSE(sim.ok()) << spec;
    EXPECT_EQ(sim.status().code(), StatusCode::kInvalidArgument) << spec;
  }
  EXPECT_TRUE(WorkloadCatalog::Global().Build(tlc).ok());
}

TEST(WorkloadCatalogTest, RejectsValuesItCannotBuild) {
  WorkloadCatalog& catalog = WorkloadCatalog::Global();
  // Each spec with the parameter its error must name. Unchecked, a
  // negative fleet throws from vector::reserve, an empty grid crashes the
  // generator, a value past int runs whatever it narrows to under its own
  // cell key, and a negative order count, hot rows outside the grid or a
  // tlc day below -1 run a day some other spec already names.
  const std::pair<const char*, const char*> rejected[] = {
      {"paper:predictor=Typo", "predictor"},
      {"paper:scale=0", "scale"},
      {"paper:scale=-0.1", "scale"},
      {"paper:scale=1.5", "scale"},
      {"paper:scale=nan", "scale"},
      {"paper:scale=inf", "scale"},
      {"paper:drivers=0", "drivers"},
      {"paper:drivers=-3", "drivers"},
      {"paper:drivers=2147483648", "drivers"},
      {"paper:tau=-1", "tau"},
      {"paper:tau=nan", "tau"},
      {"paper:tau=inf", "tau"},
      {"nyc:orders=2000,drivers=-5", "drivers"},
      {"nyc:orders=2000,grid_rows=0", "grid_rows"},
      {"nyc:orders=2000,drivers=4294967336", "drivers"},
      {"nyc:grid_rows=65536,grid_cols=65536", "grid_rows"},
      {"nyc-skew:orders=2000,grid_cols=0", "grid_cols"},
      {"nyc:orders=-5", "orders"},
      {"nyc-skew:orders=-5", "orders"},
      {"nyc-skew:row_lo=-5,row_hi=100", "row_lo"},
      {"nyc-skew:row_hi=100", "row_hi"},
      {"nyc-skew:grid_rows=2", "row_hi"},
      {"nyc-skew:row_lo=3,row_hi=2", "row_hi"},
      {"tlc:path=trips.csv,day=4294967296", "day"},
      {"tlc:path=trips.csv,day=-2", "day"},
  };
  for (const auto& [spec, param] : rejected) {
    // The entry's check runs when a spec is canonicalised, not only when
    // it is built, so a grid holding the spec fails before any cell runs.
    StatusOr<std::string> canonical = catalog.Canonicalize(spec);
    ASSERT_FALSE(canonical.ok()) << spec;
    EXPECT_EQ(canonical.status().code(), StatusCode::kInvalidArgument)
        << spec;
    EXPECT_NE(canonical.status().message().find(param), std::string::npos)
        << canonical.status();
    StatusOr<Simulation> sim = catalog.Build(spec);
    ASSERT_FALSE(sim.ok()) << spec;
    EXPECT_EQ(sim.status().code(), StatusCode::kInvalidArgument) << spec;
    CampaignSpec grid;
    grid.workloads = {spec};
    grid.dispatchers = {"NEAR"};
    StatusOr<std::vector<CampaignCell>> cells = ExpandGrid(grid);
    ASSERT_FALSE(cells.ok()) << spec;
    EXPECT_EQ(cells.status().code(), StatusCode::kInvalidArgument) << spec;
  }
  StatusOr<std::string> typo = catalog.Canonicalize("paper:predictor=Typo");
  for (const char* known : {"HA,", "LR,", "GBRT,", "DeepST,", "Real"}) {
    EXPECT_NE(typo.status().message().find(known), std::string::npos)
        << typo.status();
  }
  for (const char* spec :
       {"paper:scale=1", "paper:drivers=1", "paper:tau=0",
        "paper:predictor=HA", "nyc:drivers=0,day=-3", "nyc:grid_rows=1",
        "nyc:grid_rows=46340,grid_cols=46340", "tlc:path=trips.csv,drivers=0",
        "tlc:path=trips.csv,day=-1", "nyc:orders=0",
        "nyc-skew:row_lo=15,row_hi=15", "nyc-skew:row_lo=2,row_hi=2"}) {
    EXPECT_TRUE(catalog.Canonicalize(spec).ok()) << spec;
  }
}

TEST(WorkloadCatalogTest, FileEntriesNeedAPathAtExpansion) {
  // A cell key is the canonical spec, which omits an empty path, so a file
  // entry without one could not tell two files apart on resume.
  for (const char* entry : {"tlc", "trace"}) {
    CampaignSpec spec;
    spec.workloads = {entry};
    spec.dispatchers = {"NEAR"};
    StatusOr<std::vector<CampaignCell>> cells = ExpandGrid(spec);
    ASSERT_FALSE(cells.ok()) << entry;
    EXPECT_EQ(cells.status().code(), StatusCode::kInvalidArgument) << entry;
    EXPECT_NE(cells.status().message().find("path"), std::string::npos)
        << cells.status();
    spec.workloads = {std::string(entry) + ":path=/data/day"};
    EXPECT_TRUE(ExpandGrid(spec).ok()) << entry;
  }
}

TEST(WorkloadCatalogTest, PaperDayFollowsThePaperRecipe) {
  constexpr double kScale = 0.01;
  StatusOr<Simulation> sim =
      WorkloadCatalog::Global().Build("paper:scale=0.01,predictor=Real");
  ASSERT_TRUE(sim.ok()) << sim.status();

  // The default 3000 paper-scale drivers, shrunk as scale^1.5.
  EXPECT_EQ(sim->workload().drivers.size(),
            static_cast<size_t>(std::max(
                1, static_cast<int>(3000 * kScale * std::sqrt(kScale)))));

  // Every pickup lies in the NYC box shrunk by sqrt(scale) around its
  // centre.
  const LatLon centre = kNycBoundingBox.Center();
  const double half_w =
      kNycBoundingBox.WidthDegrees() * 0.5 * std::sqrt(kScale);
  const double half_h =
      kNycBoundingBox.HeightDegrees() * 0.5 * std::sqrt(kScale);
  const BoundingBox shrunk = {centre.lon - half_w, centre.lon + half_w,
                              centre.lat - half_h, centre.lat + half_h};
  ASSERT_FALSE(sim->workload().orders.empty());
  for (const Order& o : sim->workload().orders) {
    ASSERT_TRUE(shrunk.Contains(o.pickup)) << "order " << o.id;
  }

  // The Real predictor's forecast is the oracle the builder derives from
  // the same day, slot by slot, bit for bit.
  StatusOr<Simulation> oracle =
      SimulationBuilder()
          .BorrowWorkload(sim->workload(), sim->grid())
          .WithOracleForecast()
          .Build();
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  const DemandForecast& paper = *sim->forecast();
  const DemandForecast& truth = *oracle->forecast();
  ASSERT_EQ(paper.slots_per_day(), truth.slots_per_day());
  ASSERT_EQ(paper.num_regions(), truth.num_regions());
  int64_t mismatches = 0;
  for (int slot = 0; slot < paper.slots_per_day(); ++slot) {
    for (int r = 0; r < paper.num_regions(); ++r) {
      if (paper.SlotCount(slot, r) != truth.SlotCount(slot, r)) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0);

  // Cell keys hash the scale and the seed.
  StatusOr<std::string> canonical =
      WorkloadCatalog::Global().Canonicalize("paper:scale=0.01,predictor=Real");
  ASSERT_TRUE(canonical.ok()) << canonical.status();
  EXPECT_NE(canonical->find("scale=0.01"), std::string::npos) << *canonical;
  EXPECT_NE(canonical->find("seed=20190417"), std::string::npos) << *canonical;
}

TEST(ScenarioCatalogTest, RosterAndFactories) {
  ScenarioCatalog& catalog = ScenarioCatalog::Global();
  for (const char* name :
       {"none", "two-shift", "cancel-hazard", "rush-hour"}) {
    EXPECT_TRUE(catalog.Known(name)) << name;
  }

  StatusOr<Simulation> sim =
      WorkloadCatalog::Global().Build("nyc:orders=500,drivers=10");
  ASSERT_TRUE(sim.ok());
  StatusOr<ScenarioScript> none = catalog.Build("none", sim->workload());
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  StatusOr<ScenarioScript> shifts =
      catalog.Build("two-shift:shift_hour=10", sim->workload());
  ASSERT_TRUE(shifts.ok());
  EXPECT_FALSE(shifts->empty());
  StatusOr<ScenarioScript> surge = catalog.Build("rush-hour", sim->workload());
  ASSERT_TRUE(surge.ok());
  ASSERT_EQ(surge->surges().size(), 1u);
  EXPECT_EQ(surge->surges()[0].multiplier, 1.5);
}

// ------------------------------------------------------------ config delta

TEST(ConfigDeltaTest, AppliesAndCanonicalises) {
  SimConfig cfg;
  Status st = ApplyConfigDelta(
      "horizon_seconds=7200, batch_interval=10,num_threads=4", &cfg);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(cfg.horizon_seconds, 7200.0);
  EXPECT_EQ(cfg.batch_interval, 10.0);
  EXPECT_EQ(cfg.num_threads, 4);

  StatusOr<std::string> canonical = CanonicalizeConfigDelta(
      " num_threads = 04 , batch_interval=10.0 ");
  ASSERT_TRUE(canonical.ok()) << canonical.status();
  EXPECT_EQ(*canonical, "batch_interval=10,num_threads=4");
  StatusOr<std::string> empty = CanonicalizeConfigDelta("  ");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(*empty, "");

  StatusOr<std::string> unknown = CanonicalizeConfigDelta("warp_speed=9");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("batch_interval"),
            std::string::npos);
  EXPECT_FALSE(ApplyConfigDelta("warp_speed=9", &cfg).ok());
  EXPECT_FALSE(ApplyConfigDelta("num_threads=many", &cfg).ok());
}

// ---------------------------------------------------------- grid expansion

TEST(GridExpansionTest, DeterministicWorkloadMajorOrder) {
  CampaignSpec spec;
  spec.workloads = {"nyc:orders=500", "nyc:orders=600"};
  spec.scenarios = {"none", "rush-hour"};
  spec.dispatchers = {"NEAR", "RAND"};
  spec.seeds = {1, 2};
  spec.config_deltas = {"", "batch_interval=10"};

  StatusOr<std::vector<CampaignCell>> cells = ExpandGrid(spec);
  ASSERT_TRUE(cells.ok()) << cells.status();
  ASSERT_EQ(cells->size(), 32u);

  // Workload-major, seed innermost; every key unique and self-consistent.
  EXPECT_EQ((*cells)[0].workload_index, 0);
  EXPECT_EQ((*cells)[15].workload_index, 0);
  EXPECT_EQ((*cells)[16].workload_index, 1);
  EXPECT_EQ((*cells)[0].seed, 1u);
  EXPECT_EQ((*cells)[1].seed, 2u);
  std::vector<std::string> keys;
  for (const CampaignCell& cell : *cells) {
    keys.push_back(cell.key);
    EXPECT_EQ(cell.key.size(), 16u);
    EXPECT_EQ(cell.key,
              CampaignCellKey(cell.workload, cell.scenario, cell.dispatcher,
                              cell.config_delta, cell.seed));
  }
  std::vector<std::string> unique = keys;
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  EXPECT_EQ(unique.size(), keys.size());

  // Expansion is a pure function of the spec.
  StatusOr<std::vector<CampaignCell>> again = ExpandGrid(spec);
  ASSERT_TRUE(again.ok());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ((*again)[i].key, keys[i]) << i;
  }
}

TEST(GridExpansionTest, KeysAreSpellingInvariant) {
  CampaignSpec a;
  a.workloads = {"nyc:orders=4000,drivers=60"};
  a.dispatchers = {"LS:max_sweeps=8"};
  a.seeds = {7};
  a.config_deltas = {"batch_interval=10,num_threads=2"};

  CampaignSpec b;
  b.workloads = {"nyc: drivers = 60 , orders=4000, day=1"};  // default day
  b.scenarios = {"none"};  // the implicit default, spelled out
  b.dispatchers = {" LS : max_sweeps = 08 "};  // respelled numeric
  b.seeds = {7};
  b.config_deltas = {" num_threads=2 , batch_interval=10.0 "};

  StatusOr<std::vector<CampaignCell>> cells_a = ExpandGrid(a);
  StatusOr<std::vector<CampaignCell>> cells_b = ExpandGrid(b);
  ASSERT_TRUE(cells_a.ok()) << cells_a.status();
  ASSERT_TRUE(cells_b.ok()) << cells_b.status();
  ASSERT_EQ(cells_a->size(), 1u);
  ASSERT_EQ(cells_b->size(), 1u);
  EXPECT_EQ((*cells_a)[0].key, (*cells_b)[0].key);
}

TEST(GridExpansionTest, DispatcherDefaultsExpandIntoTheKey) {
  // "RAND" and "RAND:seed=1" (the declared default) are the same run and
  // must share one artifact key — and therefore collide as duplicate axis
  // entries within one grid.
  CampaignSpec bare = SmallSpec();
  bare.dispatchers = {"RAND"};
  CampaignSpec explicit_default = SmallSpec();
  explicit_default.dispatchers = {"RAND:seed=1"};
  StatusOr<std::vector<CampaignCell>> a = ExpandGrid(bare);
  StatusOr<std::vector<CampaignCell>> b = ExpandGrid(explicit_default);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ((*a)[0].key, (*b)[0].key);
  EXPECT_EQ((*a)[0].dispatcher, "RAND:seed=1");

  CampaignSpec collision = SmallSpec();
  collision.dispatchers = {"RAND", "RAND:seed=1"};
  StatusOr<std::vector<CampaignCell>> dup = ExpandGrid(collision);
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(dup.status().message().find("duplicate"), std::string::npos);
}

TEST(GridExpansionTest, KeyAlgorithmIsPinned) {
  // Guards the FNV-1a content key against accidental change: any new hash
  // orphans every artifact directory in existence. If this fails, you
  // changed the key function — don't update the constant unless that is
  // an explicit, documented migration.
  EXPECT_EQ(CampaignCellKey("nyc", "none", "NEAR", "", 1),
            CampaignCellKey("nyc", "none", "NEAR", "", 1));
  EXPECT_EQ(CampaignCellKey("nyc", "none", "NEAR", "", 1),
            "250d8dc1f4e40c89");
}

TEST(CanonicalTextTest, BuiltinsAndThePaperGridArePinned) {
  // Every cell key hashes these strings, so changing one re-keys its cells
  // and orphans their artifacts (perfbench/reference.json included). They
  // were recorded from the built-in rosters; a failure means a default, a
  // declared parameter or the canonical format changed.
  using Row = std::pair<std::string, std::string>;  // spec, canonical text
  const std::vector<Row> workloads = {
      {"nyc",
       "nyc:batch_interval=30,day=1,detour=1.3,drivers=40,grid_cols=8,"
       "grid_rows=8,horizon_hours=4,oracle=1,orders=3000,seed=20190417,"
       "speed_mps=11"},
      {"nyc-skew",
       "nyc-skew:batch_interval=30,day=1,detour=1.3,drivers=40,grid_cols=16,"
       "grid_rows=16,horizon_hours=4,multiplier=2,oracle=1,orders=3000,"
       "row_hi=2,row_lo=0,seed=20190417,share=0.7,speed_mps=11,"
       "surge_end_hour=2.5,surge_start_hour=0.5"},
      {"paper",
       "paper:drivers=3000,predictor=DeepST,scale=0.1,seed=20190417,tau=120"},
      {"tlc:path=trips.csv",
       "tlc:batch_interval=3,day=-1,detour=1.3,drivers=3000,horizon_hours=24,"
       "max_orders=0,path=trips.csv,seed=20190417,speed_mps=11"},
      {"trace:path=day.trace",
       "trace:batch_interval=3,detour=1.3,horizon_hours=0,max_orders=0,"
       "path=day.trace,speed_mps=11"},
      // perfbench's paper_grid day at its default seed.
      {"nyc:orders=28226,drivers=95,grid_rows=16,grid_cols=16,"
       "batch_interval=3,horizon_hours=24,seed=20190417,day=1",
       "nyc:batch_interval=3,day=1,detour=1.3,drivers=95,grid_cols=16,"
       "grid_rows=16,horizon_hours=24,oracle=1,orders=28226,seed=20190417,"
       "speed_mps=11"},
  };
  const std::vector<Row> scenarios = {
      {"none", "none"},
      {"two-shift", "two-shift:overlap_minutes=30,shift_hour=12"},
      {"cancel-hazard",
       "cancel-hazard:fraction_hi=0.9,fraction_lo=0.2,probability=0.05,"
       "seed=20190417"},
      {"rush-hour", "rush-hour:end_hour=9,multiplier=1.5,start_hour=7"},
      // perfbench's paper_grid scenarios are "none", "two-shift" and this.
      {"cancel-hazard:probability=0.2,seed=20190417",
       "cancel-hazard:fraction_hi=0.9,fraction_lo=0.2,probability=0.2,"
       "seed=20190417"},
  };
  const std::vector<Row> dispatchers = {
      {"IRG", "IRG"},         {"LS", "LS:max_sweeps=16"},
      {"LTG", "LTG"},         {"NEAR", "NEAR"},
      {"POLAR", "POLAR"},     {"RAND", "RAND:seed=1"},
      {"SHORT", "SHORT"},     {"UPPER", "UPPER"},
  };
  CampaignSpec spec;
  for (const Row& row : workloads) spec.workloads.push_back(row.first);
  for (const Row& row : scenarios) spec.scenarios.push_back(row.first);
  for (const Row& row : dispatchers) spec.dispatchers.push_back(row.first);
  StatusOr<std::vector<CampaignCell>> cells = ExpandGrid(spec);
  ASSERT_TRUE(cells.ok()) << cells.status();
  ASSERT_EQ(cells->size(),
            workloads.size() * scenarios.size() * dispatchers.size());
  for (const CampaignCell& cell : *cells) {
    EXPECT_EQ(cell.workload,
              workloads[static_cast<size_t>(cell.workload_index)].second);
    EXPECT_EQ(cell.scenario,
              scenarios[static_cast<size_t>(cell.scenario_index)].second);
    EXPECT_EQ(cell.dispatcher,
              dispatchers[static_cast<size_t>(cell.dispatcher_index)].second);
  }
}

TEST(GridExpansionTest, RejectsBadAndDuplicateAxes) {
  CampaignSpec spec = SmallSpec();
  spec.workloads.clear();
  EXPECT_FALSE(ExpandGrid(spec).ok());

  spec = SmallSpec();
  spec.dispatchers.clear();
  EXPECT_FALSE(ExpandGrid(spec).ok());

  spec = SmallSpec();
  spec.workloads.push_back("mars");
  StatusOr<std::vector<CampaignCell>> unknown = ExpandGrid(spec);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);

  spec = SmallSpec();
  spec.dispatchers = {"NEAR", " NEAR "};  // identical after canonicalisation
  StatusOr<std::vector<CampaignCell>> duplicate = ExpandGrid(spec);
  ASSERT_FALSE(duplicate.ok());
  EXPECT_NE(duplicate.status().message().find("duplicate"),
            std::string::npos);

  spec = SmallSpec();
  spec.seeds = {1, 1};
  EXPECT_FALSE(ExpandGrid(spec).ok());

  spec = SmallSpec();
  spec.dispatchers = {"TYPO"};
  StatusOr<std::vector<CampaignCell>> typo = ExpandGrid(spec);
  ASSERT_FALSE(typo.ok());
  EXPECT_NE(typo.status().message().find("known dispatchers"),
            std::string::npos);

  // An out-of-range parameter fails the whole grid before any cell runs.
  spec = SmallSpec();
  spec.dispatchers = {"NEAR", "LS:max_sweeps=0"};
  StatusOr<std::vector<CampaignCell>> sweeps = ExpandGrid(spec);
  ASSERT_FALSE(sweeps.ok());
  EXPECT_EQ(sweeps.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(sweeps.status().message().find("max_sweeps"), std::string::npos);

  // So does a delta int past int, which would run as what it narrows to
  // (2^32 + 1 threads as 1) under its own key.
  spec = SmallSpec();
  spec.config_deltas = {"", "num_threads=4294967297"};
  StatusOr<std::vector<CampaignCell>> threads = ExpandGrid(spec);
  ASSERT_FALSE(threads.ok());
  EXPECT_EQ(threads.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(threads.status().message().find("num_threads"),
            std::string::npos);
  SimConfig cfg;
  EXPECT_FALSE(ApplyConfigDelta("num_threads=4294967297", &cfg).ok());
  EXPECT_EQ(cfg.num_threads, SimConfig{}.num_threads);
}

// ---------------------------------------------------------- campaign runner

void ExpectSameAggregates(const SimResult& want, const SimResult& got,
                          const std::string& label) {
  EXPECT_EQ(want.served_orders, got.served_orders) << label;
  EXPECT_EQ(want.reneged_orders, got.reneged_orders) << label;
  EXPECT_EQ(want.cancelled_orders, got.cancelled_orders) << label;
  EXPECT_EQ(want.total_orders, got.total_orders) << label;
  EXPECT_EQ(want.num_batches, got.num_batches) << label;
  EXPECT_EQ(want.total_revenue, got.total_revenue) << label;
  EXPECT_EQ(want.served_wait_seconds.count(), got.served_wait_seconds.count())
      << label;
  EXPECT_EQ(want.served_wait_seconds.mean(), got.served_wait_seconds.mean())
      << label;
  EXPECT_EQ(want.served_wait_seconds.variance(),
            got.served_wait_seconds.variance())
      << label;
  EXPECT_EQ(want.driver_idle_seconds.mean(), got.driver_idle_seconds.mean())
      << label;
}

TEST(CampaignRunnerTest, ResumeSkipsCompletedAndManifestsAreByteIdentical) {
  TempDir dir("resume");
  CampaignRunner runner(SmallSpec(), dir.str());

  StatusOr<CampaignReport> fresh = runner.Run();
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  ASSERT_EQ(fresh->cells.size(), 4u);
  EXPECT_EQ(fresh->executed, 4);
  EXPECT_EQ(fresh->loaded, 0);
  EXPECT_EQ(fresh->failed, 0);
  const std::string fresh_manifest = ReadFile(dir.path() / "manifest.json");
  EXPECT_EQ(fresh_manifest, fresh->manifest_json);
  EXPECT_FALSE(fresh_manifest.empty());

  // Simulate a mid-flight kill: drop one artifact, corrupt another
  // (truncation) and falsify a third (key mismatch). Only those three may
  // re-execute.
  const std::string k0 = fresh->cells[0].cell.key;
  const std::string k1 = fresh->cells[1].cell.key;
  const std::string k2 = fresh->cells[2].cell.key;
  ASSERT_TRUE(fs::remove(dir.path() / ("run-" + k0 + ".json")));
  { std::ofstream(dir.path() / ("run-" + k1 + ".json")) << "{\"key\": \"tr"; }
  { std::ofstream(dir.path() / ("run-" + k2 + ".json")) << "{}"; }
  fs::remove(dir.path() / "manifest.json");

  StatusOr<CampaignReport> resumed = runner.Resume();
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->executed, 3);
  EXPECT_EQ(resumed->loaded, 1);
  EXPECT_EQ(resumed->failed, 0);
  EXPECT_EQ(resumed->manifest_json, fresh_manifest);
  EXPECT_EQ(ReadFile(dir.path() / "manifest.json"), fresh_manifest);

  // A second resume loads everything and still reproduces the manifest.
  StatusOr<CampaignReport> again = runner.Resume();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->executed, 0);
  EXPECT_EQ(again->loaded, 4);
  EXPECT_EQ(again->manifest_json, fresh_manifest);

  // Summarize is a pure read of the same store.
  StatusOr<CampaignReport> summary = runner.Summarize();
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->loaded, 4);
  EXPECT_EQ(summary->manifest_json, fresh_manifest);
}

TEST(CampaignRunnerTest, BitIdenticalToRunOneAtThreads1And4) {
  // The same cells, hand-built as a serial RunOne loop over the
  // catalog-built Simulation (grid order: dispatcher-major, seed
  // innermost for the single workload/scenario/delta).
  CampaignSpec spec = SmallSpec();
  StatusOr<Simulation> sim = WorkloadCatalog::Global().Build(kTestWorkload);
  ASSERT_TRUE(sim.ok()) << sim.status();
  std::vector<RunResult> want;
  for (const std::string& dispatcher : spec.dispatchers) {
    for (uint64_t seed : spec.seeds) {
      RunSpec run_spec(dispatcher);
      run_spec.replication_seed = seed;
      StatusOr<RunResult> run = RunOne(*sim, run_spec);
      ASSERT_TRUE(run.ok()) << run.status();
      want.push_back(std::move(run).value());
    }
  }
  ASSERT_EQ(want.size(), 4u);

  for (int threads : {1, 4}) {
    TempDir dir("bitident_t" + std::to_string(threads));
    CampaignRunner runner(spec, dir.str());
    CampaignOptions options;
    options.num_threads = threads;
    StatusOr<CampaignReport> report = runner.Run(options);
    ASSERT_TRUE(report.ok()) << report.status();
    ASSERT_EQ(report->cells.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      const CellOutcome& outcome = report->cells[i];
      ASSERT_EQ(outcome.source, CellOutcome::Source::kExecuted);
      ASSERT_TRUE(outcome.live.has_value());
      EXPECT_GT(outcome.live->result.served_orders, 0);
      ExpectSameAggregates(
          want[i].result, outcome.live->result,
          outcome.cell.dispatcher + " seed " +
              std::to_string(outcome.cell.seed) + " @" +
              std::to_string(threads) + " campaign threads");
    }
  }
}

TEST(CampaignRunnerTest, ScenarioAndDeltaCellsRunScripted) {
  CampaignSpec spec;
  spec.name = "scripted";
  spec.workloads = {kTestWorkload};
  spec.scenarios = {"none", "cancel-hazard:probability=0.4"};
  spec.dispatchers = {"NEAR"};
  spec.config_deltas = {"", "horizon_seconds=3600"};

  TempDir dir("scripted");
  CampaignRunner runner(spec, dir.str());
  StatusOr<CampaignReport> report = runner.Run();
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->cells.size(), 4u);
  EXPECT_EQ(report->failed, 0);

  // Grid order: (none, ""), (none, delta), (cancel, ""), (cancel, delta).
  const RunArtifact& unscripted = report->cells[0].artifact;
  const RunArtifact& half = report->cells[1].artifact;
  const RunArtifact& cancelled = report->cells[2].artifact;
  EXPECT_EQ(unscripted.cancelled, 0);
  EXPECT_GT(cancelled.cancelled, 0);
  EXPECT_LT(half.num_batches, unscripted.num_batches);

  // Failed cells surface without failing the campaign: a delta that
  // canonicalises fine but fails SimConfig::Validate at run time.
  spec.config_deltas = {"window_seconds=-5"};
  TempDir bad_dir("bad_delta");
  CampaignRunner bad(spec, bad_dir.str());
  StatusOr<CampaignReport> bad_report = bad.Run();
  ASSERT_TRUE(bad_report.ok()) << bad_report.status();
  EXPECT_EQ(bad_report->failed, 2);
  EXPECT_NE(bad_report->cells[0].error.find("window_seconds"),
            std::string::npos);
}

TEST(CampaignRunnerTest, HourlyBreakdownAndTelemetryArtifacts) {
  TempDir dir("telemetry");
  CampaignRunner runner(SmallSpec(), dir.str());
  CampaignOptions options;
  options.telemetry = true;
  StatusOr<CampaignReport> report = runner.Run(options);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->failed, 0);

  for (const CellOutcome& outcome : report->cells) {
    const RunArtifact& a = outcome.artifact;
    // Two-hour horizon -> two hourly rows whose counts reconcile with the
    // headline aggregates. The hourly renege tally excludes the bulk
    // never-dispatched remainder reported at the horizon.
    ASSERT_EQ(a.hourly.size(), 2u) << outcome.cell.key;
    int64_t served = 0;
    int64_t reneged = 0;
    double revenue = 0.0;
    for (const HourlyRow& row : a.hourly) {
      served += row.served;
      reneged += row.reneged;
      revenue += row.revenue;
    }
    EXPECT_EQ(served, a.served) << outcome.cell.key;
    EXPECT_LE(reneged, a.reneged) << outcome.cell.key;
    EXPECT_NEAR(revenue, a.revenue, 1e-6 * (1.0 + std::abs(a.revenue)));
    EXPECT_GE(a.dispatch_ms_p95, a.dispatch_ms_p50);

    // The per-cell telemetry document exists, parses, and its
    // deterministic counters agree with the artifact.
    StatusOr<JsonValue> tele = ReadJsonFile(
        runner.store().TelemetryPath(outcome.cell.key));
    ASSERT_TRUE(tele.ok()) << tele.status();
    const JsonValue* counters = tele->Find("counters");
    ASSERT_NE(counters, nullptr);
    const JsonValue* batches = counters->Find("engine.batches");
    ASSERT_NE(batches, nullptr);
    EXPECT_EQ(*batches->GetInt64("value"), a.num_batches);
  }

  // Resume loads the artifacts back — hourly rows round-trip through the
  // store bit-exact, and the manifest is reproduced byte for byte.
  StatusOr<CampaignReport> resumed = runner.Resume();
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->loaded, 4);
  EXPECT_EQ(resumed->manifest_json, report->manifest_json);
  for (size_t i = 0; i < report->cells.size(); ++i) {
    const std::vector<HourlyRow>& want = report->cells[i].artifact.hourly;
    const std::vector<HourlyRow>& got = resumed->cells[i].artifact.hourly;
    ASSERT_EQ(want.size(), got.size());
    for (size_t h = 0; h < want.size(); ++h) {
      EXPECT_EQ(want[h].served, got[h].served);
      EXPECT_EQ(want[h].reneged, got[h].reneged);
      EXPECT_EQ(want[h].cancelled, got[h].cancelled);
      EXPECT_EQ(want[h].revenue, got[h].revenue);
      EXPECT_EQ(want[h].wait_seconds_sum, got[h].wait_seconds_sum);
    }
  }
}

// ----------------------------------------------------------- artifact store

TEST(ArtifactStoreTest, IoFailuresCarryErrnoContext) {
  TempDir dir("errno");
  ASSERT_TRUE(ArtifactStore(dir.str()).Init().ok());
  // A store rooted *under a regular file* cannot create its directory.
  { std::ofstream(dir.path() / "blocker") << "x"; }
  ArtifactStore blocked((dir.path() / "blocker" / "sub").string());
  Status init = blocked.Init();
  ASSERT_FALSE(init.ok());
  EXPECT_EQ(init.code(), StatusCode::kIoError);

  CampaignCell cell;
  cell.key = "0123456789abcdef";
  Status save = blocked.SaveRun(cell, RunArtifact{});
  ASSERT_FALSE(save.ok());
  EXPECT_EQ(save.code(), StatusCode::kIoError);
  // The errno context names the failing path and the strerror text.
  EXPECT_NE(save.message().find("run-0123456789abcdef.json"),
            std::string::npos);
  EXPECT_NE(save.message().find("errno"), std::string::npos);

  StatusOr<RunArtifact> load = ArtifactStore(dir.str()).LoadRun(cell);
  ASSERT_FALSE(load.ok());
  EXPECT_EQ(load.status().code(), StatusCode::kIoError);
  EXPECT_NE(load.status().message().find("errno"), std::string::npos);
}

TEST(ArtifactStoreTest, SpecRoundTripsThroughCampaignJson) {
  TempDir dir("spec");
  ArtifactStore store(dir.str());
  ASSERT_TRUE(store.Init().ok());

  CampaignSpec spec;
  spec.name = "round trip \"quoted\"";
  spec.workloads = {"nyc:orders=4000", "tlc:path=/data/trips.csv"};
  spec.scenarios = {"none", "rush-hour:multiplier=1.8"};
  spec.dispatchers = {"LS:max_sweeps=8"};
  spec.seeds = {1, 2, 0xFFFFFFFFFFFFFFFFull};  // beyond 2^53
  spec.config_deltas = {"batch_interval=10"};
  ASSERT_TRUE(store.SaveSpec(spec).ok());

  StatusOr<CampaignSpec> loaded = store.LoadSpec();
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->name, spec.name);
  EXPECT_EQ(loaded->workloads, spec.workloads);
  EXPECT_EQ(loaded->scenarios, spec.scenarios);
  EXPECT_EQ(loaded->dispatchers, spec.dispatchers);
  EXPECT_EQ(loaded->seeds, spec.seeds);
  EXPECT_EQ(loaded->config_deltas, spec.config_deltas);
}

}  // namespace
}  // namespace mrvd
