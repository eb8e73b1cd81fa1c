#include "thermal/stack_report.h"

#include "thermal/thermal_map.h"

#include <gtest/gtest.h>

#include "floorplan/ev6.h"
#include "power/mcpat_like.h"
#include "thermal/solve_engine.h"

namespace oftec::thermal {
namespace {

const floorplan::Floorplan& fp() {
  static const floorplan::Floorplan f = floorplan::make_ev6_floorplan();
  return f;
}

SteadyResult solved(const ThermalModel& model, double current = 0.8) {
  const auto leak = power::characterize_leakage(fp(), power::ProcessConfig{});
  power::PowerMap dyn(fp());
  dyn.set("IntExec", 7.0);
  dyn.set("IntReg", 5.0);
  dyn.set("L2", 5.0);
  return SolveEngine(model, model.distribute(dyn), model.cell_leakage(leak))
      .solve({420.0, current});
}

TEST(StackReport, SummariesAreOrderedAndPhysical) {
  const ThermalModel model(package::PackageConfig::paper_default(), fp(), 6,
                           6);
  const SteadyResult r = solved(model);
  ASSERT_TRUE(r.converged);
  const StackReport report = make_stack_report(model, r.temperatures);

  for (const SlabSummary& s : report.slabs) {
    EXPECT_LE(s.min, s.mean);
    EXPECT_LE(s.mean, s.max);
    // Active Peltier pumping may pull interface cells a few kelvin BELOW
    // ambient (the paper's TEC feature #4) — but never absurdly so.
    EXPECT_GT(s.min, report.ambient - 20.0);
  }
  // Heat flows chip → sink: the chip must run hotter than the sink.
  EXPECT_GT(report.slabs[static_cast<std::size_t>(Slab::kChip)].max,
            report.slabs[static_cast<std::size_t>(Slab::kSink)].max);
}

TEST(StackReport, SubAmbientCoolingNeedsCurrent) {
  // Passive operation can never go below ambient; active pumping can
  // ("TECs ... can cool down a chip below the ambient temperature", Sec. 2).
  const ThermalModel model(package::PackageConfig::paper_default(), fp(), 6,
                           6);
  const SteadyResult passive = solved(model, 0.0);
  ASSERT_TRUE(passive.converged);
  const StackReport passive_report =
      make_stack_report(model, passive.temperatures);
  for (const SlabSummary& s : passive_report.slabs) {
    EXPECT_GT(s.min, passive_report.ambient - 1e-6)
        << slab_name(s.slab);
  }

  const SteadyResult active = solved(model, 2.5);
  ASSERT_TRUE(active.converged);
  const StackReport active_report =
      make_stack_report(model, active.temperatures);
  const auto abs_idx = static_cast<std::size_t>(Slab::kTecAbs);
  EXPECT_LT(active_report.slabs[abs_idx].min, active_report.ambient);
}

TEST(StackReport, HottestColumnMatchesChipMaximum) {
  const ThermalModel model(package::PackageConfig::paper_default(), fp(), 6,
                           6);
  const SteadyResult r = solved(model);
  ASSERT_TRUE(r.converged);
  const StackReport report = make_stack_report(model, r.temperatures);
  EXPECT_DOUBLE_EQ(
      report.hottest_column[static_cast<std::size_t>(Slab::kChip)],
      r.max_chip_temperature);
}

TEST(StackReport, HotspotColumnDecreasesTowardTheSink) {
  // Above the chip, the hotspot column must get monotonically cooler slab
  // by slab (heat flows up the stack; the TEC at moderate current only
  // steepens the gradient).
  const ThermalModel model(package::PackageConfig::paper_default(), fp(), 6,
                           6);
  const SteadyResult r = solved(model, 0.5);
  ASSERT_TRUE(r.converged);
  const StackReport report = make_stack_report(model, r.temperatures);
  const auto chip = static_cast<std::size_t>(Slab::kChip);
  for (std::size_t s = chip; s + 1 < kSlabCount; ++s) {
    EXPECT_GE(report.hottest_column[s], report.hottest_column[s + 1] - 0.5)
        << slab_name(static_cast<Slab>(s));
  }
}

TEST(StackReport, FormatContainsEverySlabAndAmbient) {
  const ThermalModel model(package::PackageConfig::paper_default(), fp(), 5,
                           5);
  const SteadyResult r = solved(model);
  ASSERT_TRUE(r.converged);
  const std::string text =
      format_stack_report(make_stack_report(model, r.temperatures));
  for (std::size_t s = 0; s < kSlabCount; ++s) {
    EXPECT_NE(text.find(slab_name(static_cast<Slab>(s))), std::string::npos);
  }
  EXPECT_NE(text.find("ambient"), std::string::npos);
}

TEST(StackReport, ArityChecked) {
  const ThermalModel model(package::PackageConfig::paper_default(), fp(), 4,
                           4);
  EXPECT_THROW((void)make_stack_report(model, la::Vector(3, 330.0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace oftec::thermal
