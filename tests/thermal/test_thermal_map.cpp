#include "thermal/thermal_map.h"

#include <gtest/gtest.h>

#include <sstream>

#include "floorplan/ev6.h"
#include "power/mcpat_like.h"
#include "thermal/solve_engine.h"
#include "util/strings.h"

namespace oftec::thermal {
namespace {

const floorplan::Floorplan& fp() {
  static const floorplan::Floorplan f = floorplan::make_ev6_floorplan();
  return f;
}

SteadyResult solve_case(const ThermalModel& model) {
  const auto leak = power::characterize_leakage(fp(), power::ProcessConfig{});
  power::PowerMap dyn(fp());
  dyn.set("IntExec", 8.0);
  dyn.set("L2", 4.0);
  return SolveEngine(model, model.distribute(dyn), model.cell_leakage(leak))
      .solve({400.0, 0.5});
}

TEST(ThermalMap, SlabNamesCoverAllSlabs) {
  for (std::size_t s = 0; s < kSlabCount; ++s) {
    EXPECT_FALSE(slab_name(static_cast<Slab>(s)).empty());
  }
  EXPECT_EQ(slab_name(Slab::kChip), "chip");
  EXPECT_EQ(slab_name(Slab::kTecGen), "tec-gen");
}

TEST(ThermalMap, CsvHasGridShape) {
  const ThermalModel model(package::PackageConfig::paper_default(), fp(), 5,
                           4);
  const SteadyResult r = solve_case(model);
  ASSERT_TRUE(r.converged);
  std::ostringstream os;
  write_slab_csv(model, r.temperatures, Slab::kChip, os);
  const auto lines = util::split(os.str(), '\n');
  // 4 rows plus the trailing empty split element.
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_TRUE(lines.back().empty());
  for (std::size_t row = 0; row < 4; ++row) {
    EXPECT_EQ(util::split(lines[row], ',').size(), 5u) << "row " << row;
  }
}

TEST(ThermalMap, CsvValuesMatchSolution) {
  const ThermalModel model(package::PackageConfig::paper_default(), fp(), 4,
                           4);
  const SteadyResult r = solve_case(model);
  ASSERT_TRUE(r.converged);
  std::ostringstream os;
  write_slab_csv(model, r.temperatures, Slab::kChip, os);
  const auto lines = util::split(os.str(), '\n');
  const auto first_row = util::split(lines[0], ',');
  EXPECT_NEAR(std::stod(first_row[0]), r.chip_temperatures[0], 1e-3);
}

TEST(ThermalMap, AsciiRenderingShowsHotspot) {
  const ThermalModel model(package::PackageConfig::paper_default(), fp(), 8,
                           8);
  const SteadyResult r = solve_case(model);
  ASSERT_TRUE(r.converged);
  const std::string art = render_slab_ascii(model, r.temperatures,
                                            Slab::kChip);
  // Legend plus 8 rows.
  EXPECT_EQ(util::split(art, '\n').size(), 10u);
  // Both extremes of the ramp must appear (there IS a gradient).
  EXPECT_NE(art.find('#'), std::string::npos);
  EXPECT_NE(art.find(' '), std::string::npos);
  EXPECT_NE(art.find("chip temperature"), std::string::npos);
}

TEST(ThermalMap, UniformFieldRendersFlat) {
  const ThermalModel model(package::PackageConfig::paper_default(), fp(), 3,
                           3);
  la::Vector uniform(model.layout().node_count(), 330.0);
  const std::string art =
      render_slab_ascii(model, uniform, Slab::kSpreader);
  // Zero span → every cell renders as the coolest glyph (space).
  const auto lines = util::split(art, '\n');
  ASSERT_GE(lines.size(), 4u);
  for (std::size_t row = 1; row <= 3; ++row) {
    EXPECT_EQ(lines[row], "   ") << "row " << row;
  }
}

}  // namespace
}  // namespace oftec::thermal
