// Table-2-style golden comparison: OFTEC vs the paper's baseline systems,
// pinned to checked-in numbers with a 0.1 % drift budget.
//
// The bracket-style golden-run test (test_golden_run.cpp) tolerates ±15 %
// so it survives recalibration; this one exists for the opposite reason —
// the batched solve engine and the parallel sweeps are claimed to be
// *exact* rewrites of the serial pipeline, so the end-to-end numbers must
// not move at all. Three workloads × three cooling systems (hybrid OFTEC,
// variable-ω fan-only, fixed 2000 RPM fan-only) at the default 10×10
// deployment grid.
//
// Regenerate after an intentional physics/calibration change with
//   OFTEC_UPDATE_GOLDEN=1 ./test_table2_golden
// which rewrites tests/integration/data/table2_golden.csv in the source
// tree (the path is compiled in via OFTEC_TEST_DATA_DIR).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/baselines.h"
#include "core/cooling_system.h"
#include "core/oftec.h"
#include "floorplan/ev6.h"
#include "power/mcpat_like.h"
#include "util/units.h"
#include "workload/benchmarks.h"

namespace oftec::core {
namespace {

constexpr double kDriftTolerance = 1e-3;  // 0.1 % relative
constexpr double kFixedFanRpm = 2000.0;

const char* golden_path() { return OFTEC_TEST_DATA_DIR "/table2_golden.csv"; }

struct Row {
  std::string benchmark;
  std::string system;
  bool feasible = false;
  double current_a = 0.0;
  double omega_rpm = 0.0;
  double total_power_w = 0.0;
  double max_temp_c = 0.0;

  [[nodiscard]] std::string key() const { return benchmark + "/" + system; }
};

const std::vector<workload::Benchmark>& benchmarks() {
  static const std::vector<workload::Benchmark> b = {
      workload::Benchmark::kBasicmath, workload::Benchmark::kQuicksort,
      workload::Benchmark::kDijkstra};
  return b;
}

/// Run all nine (benchmark × system) cells at the deployment grid.
/// Cached: both tests share one computation (~9 full optimizations).
std::vector<Row> compute_rows_uncached() {
  const floorplan::Floorplan fp = floorplan::make_ev6_floorplan();
  const power::LeakageModel leakage =
      power::characterize_leakage(fp, power::ProcessConfig{});

  std::vector<Row> rows;
  for (const workload::Benchmark b : benchmarks()) {
    const power::PowerMap peak =
        workload::peak_power_map(workload::profile_for(b), fp);
    const std::string name = workload::benchmark_name(b);

    const CoolingSystem hybrid(fp, peak, leakage, {});
    CoolingSystem::Config fan_cfg;
    fan_cfg.package = fan_cfg.package.without_tecs();
    const CoolingSystem fan_only(fp, peak, leakage, fan_cfg);

    const OftecResult oftec = run_oftec(hybrid);
    rows.push_back({name, "oftec", oftec.success, oftec.current,
                    units::rad_s_to_rpm(oftec.omega), oftec.power.total(),
                    units::kelvin_to_celsius(oftec.max_chip_temperature)});

    const BaselineResult variable = run_variable_fan_baseline(fan_only);
    rows.push_back({name, "variable_fan", variable.success, variable.current,
                    units::rad_s_to_rpm(variable.omega),
                    variable.power.total(),
                    units::kelvin_to_celsius(variable.max_chip_temperature)});

    const BaselineResult fixed = run_fixed_fan_baseline(
        fan_only, units::rpm_to_rad_s(kFixedFanRpm));
    rows.push_back({name, "fixed_fan", fixed.success, fixed.current,
                    units::rad_s_to_rpm(fixed.omega), fixed.power.total(),
                    units::kelvin_to_celsius(fixed.max_chip_temperature)});
  }
  return rows;
}

const std::vector<Row>& compute_rows() {
  static const std::vector<Row> rows = compute_rows_uncached();
  return rows;
}

void write_golden(const std::vector<Row>& rows) {
  std::ofstream out(golden_path());
  ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
  out << "benchmark,system,feasible,current_a,omega_rpm,total_power_w,"
         "max_temp_c\n";
  out.precision(12);
  for (const Row& r : rows) {
    out << r.benchmark << ',' << r.system << ',' << (r.feasible ? 1 : 0)
        << ',' << r.current_a << ',' << r.omega_rpm << ','
        << r.total_power_w << ',' << r.max_temp_c << '\n';
  }
}

std::map<std::string, Row> read_golden() {
  std::ifstream in(golden_path());
  EXPECT_TRUE(in.good()) << "missing golden file " << golden_path()
                         << " — run with OFTEC_UPDATE_GOLDEN=1 to create it";
  std::map<std::string, Row> rows;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ss(line);
    Row r;
    std::string field;
    std::getline(ss, r.benchmark, ',');
    std::getline(ss, r.system, ',');
    std::getline(ss, field, ',');
    r.feasible = field == "1";
    std::getline(ss, field, ',');
    r.current_a = std::stod(field);
    std::getline(ss, field, ',');
    r.omega_rpm = std::stod(field);
    std::getline(ss, field, ',');
    r.total_power_w = std::stod(field);
    std::getline(ss, field, ',');
    r.max_temp_c = std::stod(field);
    rows[r.key()] = r;
  }
  return rows;
}

void expect_within_drift(double actual, double golden, const std::string& key,
                         const char* column) {
  // Relative drift with a small absolute floor so exact zeros (fixed-fan
  // current) compare cleanly.
  const double scale = std::max(std::abs(golden), 1e-6);
  EXPECT_LE(std::abs(actual - golden), kDriftTolerance * scale)
      << key << " " << column << ": golden=" << golden
      << " actual=" << actual;
}

TEST(Table2Golden, OftecAndBaselinesMatchCheckedInNumbers) {
  const std::vector<Row>& rows = compute_rows();

  if (std::getenv("OFTEC_UPDATE_GOLDEN") != nullptr) {
    write_golden(rows);
    GTEST_SKIP() << "golden file regenerated at " << golden_path();
  }

  const std::map<std::string, Row> golden = read_golden();
  ASSERT_EQ(golden.size(), rows.size())
      << "golden file row count does not match the computed table";

  for (const Row& r : rows) {
    const auto it = golden.find(r.key());
    ASSERT_NE(it, golden.end()) << "no golden row for " << r.key();
    const Row& g = it->second;
    EXPECT_EQ(r.feasible, g.feasible) << r.key();
    expect_within_drift(r.current_a, g.current_a, r.key(), "current_a");
    expect_within_drift(r.omega_rpm, g.omega_rpm, r.key(), "omega_rpm");
    expect_within_drift(r.total_power_w, g.total_power_w, r.key(),
                        "total_power_w");
    expect_within_drift(r.max_temp_c, g.max_temp_c, r.key(), "max_temp_c");
  }
}

TEST(Table2Golden, HybridBeatsFanOnlyOnCoolingPower) {
  // The paper's headline: the deployed TEC+fan system spends less cooling
  // power than the fixed fan while staying feasible. Guard the relationship
  // itself, not just the raw numbers.
  const std::vector<Row>& rows = compute_rows();
  std::map<std::string, Row> by_key;
  for (const Row& r : rows) by_key[r.key()] = r;
  for (const workload::Benchmark b : benchmarks()) {
    const std::string name = workload::benchmark_name(b);
    const Row& oftec = by_key.at(name + "/oftec");
    const Row& fixed = by_key.at(name + "/fixed_fan");
    ASSERT_TRUE(oftec.feasible) << name;
    EXPECT_LT(oftec.total_power_w, fixed.total_power_w) << name;
  }
}

}  // namespace
}  // namespace oftec::core
