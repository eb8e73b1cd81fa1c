// Large-grid scenario family: 32×32 and 64×64 floorplan resolutions driven
// through ThermalModel + SolveEngine — the system sizes the panel-blocked
// factorization and fused-CG kernels were built for (n = 9219, bandwidth
// 1025 at 32×32; n = 36867, bandwidth 4097 at 64×64).
//
// Contracts, mirroring the default-grid suites at scale:
//   - batched == serial, bit for bit, at any thread count;
//   - the direct path is deterministic: a repeat solve, factored afresh,
//     reproduces the cold answer exactly;
//   - the 64×64 grid solves purely iteratively (a direct factorization at
//     bandwidth 4097 is ~77 GFLOP and must never be triggered by accident).
//
// Direct factorizations at n = 9219 run seconds-scale, hence tier2.
#include "thermal/solve_engine.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "floorplan/ev6.h"
#include "power/mcpat_like.h"
#include "thermal/model.h"
#include "util/thread_pool.h"
#include "workload/benchmarks.h"

namespace oftec::thermal {
namespace {

const floorplan::Floorplan& fp() {
  static const floorplan::Floorplan f = floorplan::make_ev6_floorplan();
  return f;
}

const power::LeakageModel& leakage() {
  static const power::LeakageModel l =
      power::characterize_leakage(fp(), power::ProcessConfig{});
  return l;
}

/// One grid resolution bound to the quicksort peak-power workload. Static
/// instances share the (expensive) model assembly across tests in this file.
class Scenario {
 public:
  Scenario(std::size_t nx, std::size_t ny)
      : model_(package::PackageConfig::paper_default(), fp(), nx, ny),
        dynamic_(model_.distribute(workload::peak_power_map(
            workload::profile_for(workload::Benchmark::kQuicksort), fp()))),
        leak_(model_.cell_leakage(leakage())) {}

  [[nodiscard]] const ThermalModel& model() const { return model_; }
  [[nodiscard]] SolveEngine engine(EngineOptions options = {}) const {
    return SolveEngine(model_, dynamic_, leak_, SteadyOptions{}, options);
  }
  [[nodiscard]] double omega_max() const {
    return model_.config().fan.max_speed;
  }
  [[nodiscard]] double current_max() const {
    return model_.config().tec.max_current;
  }

 private:
  ThermalModel model_;
  la::Vector dynamic_;
  std::vector<power::ExponentialTerm> leak_;
};

const Scenario& grid32() {
  static const Scenario s(32, 32);
  return s;
}

const Scenario& grid64() {
  static const Scenario s(64, 64);
  return s;
}

void expect_identical(const SteadyResult& a, const SteadyResult& b,
                      std::size_t i) {
  ASSERT_EQ(a.status, b.status) << "point " << i;
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
}

TEST(LargeGridEngine, Grid32BatchedBitIdenticalToSerial) {
  const SolveEngine engine = grid32().engine();
  const double w = grid32().omega_max();
  const double c = grid32().current_max();
  const std::vector<OperatingPoint> pts = {
      {0.5 * w, 0.0}, {w, 0.0}, {0.5 * w, 0.3 * c}, {w, 0.3 * c}};

  const std::vector<SteadyResult> serial = engine.solve_serial(pts);
  util::ThreadPool pool(2);
  const std::vector<SteadyResult> batch = engine.solve_batch(pts, pool);

  ASSERT_EQ(batch.size(), serial.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    ASSERT_EQ(serial[i].status, SolveStatus::kOk) << "point " << i;
    // 9·32² + 3 chip/TEC/spreader nodes plus the sink path.
    EXPECT_GE(serial[i].temperatures.size(), std::size_t{9219}) << i;
    EXPECT_GT(serial[i].max_chip_temperature, 250.0) << i;
    EXPECT_LT(serial[i].max_chip_temperature, 500.0) << i;
    expect_identical(serial[i], batch[i], i);
  }
}

TEST(LargeGridEngine, Grid32DirectRepeatBitExact) {
  // Direct-only engine: every Newton linearization is a fresh panel-blocked
  // Cholesky at n = 9219, k = 1025.
  EngineOptions direct;
  direct.use_iterative = false;
  const SolveEngine engine = grid32().engine(direct);
  const OperatingPoint p{0.7 * grid32().omega_max(), 0.0};

  const SteadyResult cold = engine.solve(p);
  ASSERT_EQ(cold.status, SolveStatus::kOk);
  const std::size_t cold_fallbacks = engine.stats().direct_fallbacks;
  EXPECT_GT(cold_fallbacks, 0u);

  // Repeat: same point, same linearization path, every system factored
  // again from scratch — the direct work doubles and no bit moves.
  const SteadyResult repeat = engine.solve(p);
  expect_identical(cold, repeat, 1);
  EXPECT_EQ(engine.stats().direct_fallbacks, 2 * cold_fallbacks);
}

TEST(LargeGridEngine, Grid64IterativeOnlyAndDeterministic) {
  const SolveEngine engine = grid64().engine();
  const double w = grid64().omega_max();
  const double c = grid64().current_max();
  const std::vector<OperatingPoint> pts = {{0.8 * w, 0.0},
                                           {0.8 * w, 0.25 * c}};

  const std::vector<SteadyResult> first = engine.solve_serial(pts);
  const std::vector<SteadyResult> second = engine.solve_serial(pts);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    ASSERT_EQ(first[i].status, SolveStatus::kOk) << "point " << i;
    EXPECT_GE(first[i].temperatures.size(), std::size_t{36867}) << i;
    EXPECT_GT(first[i].max_chip_temperature, 250.0) << i;
    EXPECT_LT(first[i].max_chip_temperature, 500.0) << i;
    expect_identical(first[i], second[i], i);
  }
  // A direct factorization at bandwidth 4097 is ~77 GFLOP; the fused-CG
  // path must carry the whole solve without ever falling back to it.
  EXPECT_EQ(engine.stats().direct_fallbacks, 0u);
  EXPECT_GT(engine.stats().cg_iterations, 0u);
}

}  // namespace
}  // namespace oftec::thermal
