// Batched SolveEngine vs its serial reference path — exact equality.
//
// Every engine solve is a pure function of (ω, I_TEC): fixed initial guess,
// no cross-point warm-start chaining, and direct solves factor afresh. So
// the batched result vector must match solve_serial() with tolerance ZERO —
// on every field, at every thread count, on both the iterative and the
// direct engine, including the full node-temperature vectors. Any drift
// means scheduling leaked into the arithmetic.
#include "thermal/solve_engine.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "floorplan/ev6.h"
#include "power/mcpat_like.h"
#include "thermal/model.h"
#include "reference/steady_solver.h"
#include "util/thread_pool.h"
#include "workload/benchmarks.h"

namespace oftec::thermal {
namespace {

const floorplan::Floorplan& fp() {
  static const floorplan::Floorplan f = floorplan::make_ev6_floorplan();
  return f;
}

/// 8×8 grid (the core-test resolution) keeps the 16-point sweep fast while
/// exercising the same assembly/solve paths as the 10×10 deployment grid.
const ThermalModel& model() {
  static const ThermalModel m(package::PackageConfig::paper_default(), fp(),
                              8, 8);
  return m;
}

/// Quicksort peak power and the paper's leakage on the 8×8 grid.
struct Workload {
  la::Vector dynamic;
  std::vector<power::ExponentialTerm> leak;
};

const Workload& workload() {
  static const Workload w = [] {
    const power::LeakageModel leakage =
        power::characterize_leakage(fp(), power::ProcessConfig{});
    return Workload{
        model().distribute(workload::peak_power_map(
            workload::profile_for(workload::Benchmark::kQuicksort), fp())),
        model().cell_leakage(leakage)};
  }();
  return w;
}

SolveEngine make_engine(bool use_iterative = true) {
  EngineOptions options;
  options.use_iterative = use_iterative;
  return SolveEngine(model(), workload().dynamic, workload().leak, {},
                     options);
}

/// 4×4 (I_TEC, ω) grid spanning runaway (ω = 0 column) through overdriven.
std::vector<OperatingPoint> grid16() {
  std::vector<OperatingPoint> pts;
  const double omega_max = model().config().fan.max_speed;
  const double current_max = model().config().tec.max_current;
  for (std::size_t ci = 0; ci < 4; ++ci) {
    for (std::size_t wi = 0; wi < 4; ++wi) {
      pts.push_back({omega_max * static_cast<double>(wi) / 3.0,
                     current_max * static_cast<double>(ci) / 3.0});
    }
  }
  return pts;
}

void expect_identical(const SteadyResult& a, const SteadyResult& b,
                      std::size_t i) {
  ASSERT_EQ(a.converged, b.converged) << "point " << i;
  ASSERT_EQ(a.runaway, b.runaway) << "point " << i;
  ASSERT_EQ(a.iterations, b.iterations) << "point " << i;
  ASSERT_EQ(a.max_chip_temperature, b.max_chip_temperature) << "point " << i;
  ASSERT_EQ(a.leakage_power, b.leakage_power) << "point " << i;
  ASSERT_EQ(a.tec_power, b.tec_power) << "point " << i;
  ASSERT_EQ(a.temperatures.size(), b.temperatures.size()) << "point " << i;
  for (std::size_t j = 0; j < a.temperatures.size(); ++j) {
    ASSERT_EQ(a.temperatures[j], b.temperatures[j])
        << "point " << i << " node " << j;
  }
  ASSERT_EQ(a.chip_temperatures.size(), b.chip_temperatures.size());
  for (std::size_t j = 0; j < a.chip_temperatures.size(); ++j) {
    ASSERT_EQ(a.chip_temperatures[j], b.chip_temperatures[j])
        << "point " << i << " cell " << j;
  }
}

class BatchedVsSerialTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchedVsSerialTest, BatchBitIdenticalToSerialReference) {
  // The direct engine (use_iterative = false) runs concurrent banded
  // factorizations, one per linear solve, with no shared factor state.
  const std::vector<OperatingPoint> pts = grid16();
  util::ThreadPool pool(GetParam());
  for (const bool use_iterative : {true, false}) {
    SCOPED_TRACE(use_iterative ? "iterative engine" : "direct engine");
    const SolveEngine engine = make_engine(use_iterative);
    const std::vector<SteadyResult> serial = engine.solve_serial(pts);
    const std::vector<SteadyResult> batch = engine.solve_batch(pts, pool);

    ASSERT_EQ(batch.size(), serial.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      expect_identical(serial[i], batch[i], i);
    }
    if (!use_iterative) {
      EXPECT_EQ(engine.stats().linear_solves, engine.stats().direct_fallbacks);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, BatchedVsSerialTest,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{8}),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

TEST(BatchedVsSerial, RepeatedBatchesAreIdentical) {
  const SolveEngine engine = make_engine();
  const std::vector<OperatingPoint> pts = grid16();

  util::ThreadPool pool(4);
  const std::vector<SteadyResult> first = engine.solve_batch(pts, pool);
  const std::vector<SteadyResult> second = engine.solve_batch(pts, pool);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    expect_identical(first[i], second[i], i);
  }
  EXPECT_EQ(engine.stats().points, 2 * pts.size());
}

TEST(BatchedVsSerial, SolveMatchesSerialElementwise) {
  // Single-point solve() is the same code path as each serial element.
  const SolveEngine engine = make_engine();
  const std::vector<OperatingPoint> pts = grid16();
  const std::vector<SteadyResult> serial = engine.solve_serial(pts);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    expect_identical(serial[i], engine.solve(pts[i]), i);
  }
}

TEST(BatchedVsSerial, MatchesSeedSteadySolverToTolerance) {
  // Against the reference Newton loop (a fresh pivoted LU per
  // linearization) the engine is not bit-identical (inexact CG inner solves)
  // but must agree physically: same runaway verdict everywhere,
  // temperatures within 1e-3 K on converged points.
  const SolveEngine engine = make_engine();
  const reference::SteadySolver oracle(model(), workload().dynamic,
                                       workload().leak);
  for (const OperatingPoint& pt : grid16()) {
    const SteadyResult seed = oracle.solve(pt.omega, pt.current);
    const SteadyResult fast = engine.solve(pt);
    ASSERT_EQ(seed.runaway, fast.runaway)
        << "omega=" << pt.omega << " I=" << pt.current;
    if (!seed.runaway && seed.converged) {
      EXPECT_NEAR(seed.max_chip_temperature, fast.max_chip_temperature, 1e-3);
      EXPECT_NEAR(seed.tec_power, fast.tec_power, 1e-3);
    }
  }
}

}  // namespace
}  // namespace oftec::thermal
