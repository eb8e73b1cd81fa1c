#include "core/cooling_system.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <thread>
#include <utility>
#include <vector>

#include "test_fixtures.h"
#include "util/units.h"

namespace oftec::core {
namespace {

using testing::benchmark_power;
using testing::coarse_config;
using testing::fp;
using testing::leakage;
using testing::make_system;

TEST(CoolingSystem, ReportsPaperEnvironment) {
  const CoolingSystem sys = make_system(workload::Benchmark::kBasicmath);
  EXPECT_NEAR(sys.t_max(), units::celsius_to_kelvin(90.0), 1e-9);
  EXPECT_NEAR(sys.ambient(), units::celsius_to_kelvin(45.0), 1e-9);
  EXPECT_NEAR(sys.omega_max(), 524.0, 1e-9);
  EXPECT_DOUBLE_EQ(sys.current_max(), 5.0);
  EXPECT_TRUE(sys.has_tec());
}

TEST(CoolingSystem, FanOnlySystemHasNoCurrentAxis) {
  const CoolingSystem sys =
      make_system(workload::Benchmark::kBasicmath, /*with_tec=*/false);
  EXPECT_FALSE(sys.has_tec());
  EXPECT_DOUBLE_EQ(sys.current_max(), 0.0);
  EXPECT_NO_THROW((void)sys.evaluate(300.0, 0.0));
  EXPECT_THROW((void)sys.evaluate(300.0, 1.0), std::invalid_argument);
}

TEST(CoolingSystem, EvaluationIsMemoized) {
  const CoolingSystem sys = make_system(workload::Benchmark::kFft);
  (void)sys.evaluate(300.0, 1.0);
  const std::size_t solves = sys.evaluation_count();
  (void)sys.evaluate(300.0, 1.0);
  (void)sys.evaluate(300.0, 1.0);
  EXPECT_EQ(sys.evaluation_count(), solves);
  EXPECT_GE(sys.cache_hits(), 2u);
}

TEST(CoolingSystem, DistinctPointsSolveSeparately) {
  const CoolingSystem sys = make_system(workload::Benchmark::kFft);
  (void)sys.evaluate(300.0, 1.0);
  const std::size_t solves = sys.evaluation_count();
  (void)sys.evaluate(300.0, 1.1);
  EXPECT_EQ(sys.evaluation_count(), solves + 1);
}

TEST(CoolingSystem, BreakdownSumsToTotal) {
  const CoolingSystem sys = make_system(workload::Benchmark::kQuicksort);
  const Evaluation& ev = sys.evaluate(450.0, 1.0);
  ASSERT_FALSE(ev.runaway);
  EXPECT_NEAR(ev.cooling_power(),
              ev.power.leakage + ev.power.tec + ev.power.fan, 1e-12);
  EXPECT_GT(ev.power.leakage, 0.0);
  EXPECT_GT(ev.power.tec, 0.0);
  EXPECT_GT(ev.power.fan, 0.0);
}

TEST(CoolingSystem, RunawayYieldsInfinities) {
  const CoolingSystem sys = make_system(workload::Benchmark::kQuicksort);
  const Evaluation& ev = sys.evaluate(0.0, 0.0);
  EXPECT_TRUE(ev.runaway);
  EXPECT_TRUE(std::isinf(ev.max_chip_temperature));
  EXPECT_TRUE(std::isinf(ev.cooling_power()));
}

TEST(CoolingSystem, RejectsOutOfRangeInputs) {
  const CoolingSystem sys = make_system(workload::Benchmark::kBasicmath);
  EXPECT_THROW((void)sys.evaluate(-1.0, 0.0), std::invalid_argument);
  EXPECT_THROW((void)sys.evaluate(sys.omega_max() * 1.01, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)sys.evaluate(300.0, -0.5), std::invalid_argument);
  EXPECT_THROW((void)sys.evaluate(300.0, 5.5), std::invalid_argument);
}

TEST(CoolingSystem, ZeroCurrentHasNoTecPower) {
  const CoolingSystem sys = make_system(workload::Benchmark::kBasicmath);
  const Evaluation& ev = sys.evaluate(400.0, 0.0);
  ASSERT_FALSE(ev.runaway);
  EXPECT_DOUBLE_EQ(ev.power.tec, 0.0);
}

TEST(CoolingSystem, FanPowerFollowsCubicLaw) {
  const CoolingSystem sys = make_system(workload::Benchmark::kBasicmath);
  const Evaluation& slow = sys.evaluate(200.0, 0.0);
  const Evaluation& fast = sys.evaluate(400.0, 0.0);
  ASSERT_FALSE(slow.runaway);
  ASSERT_FALSE(fast.runaway);
  EXPECT_NEAR(fast.power.fan / slow.power.fan, 8.0, 1e-9);
}

TEST(CoolingSystem, CellInputsExposedForTransientReuse) {
  const CoolingSystem sys = make_system(workload::Benchmark::kFft);
  EXPECT_EQ(sys.cell_dynamic_power().size(), 64u);
  EXPECT_EQ(sys.cell_leakage().size(), 64u);
}

bool same_bits(const Evaluation& a, const Evaluation& b) {
  return a.runaway == b.runaway && a.status == b.status &&
         a.max_chip_temperature == b.max_chip_temperature &&
         a.power.leakage == b.power.leakage && a.power.tec == b.power.tec &&
         a.power.fan == b.power.fan &&
         a.solver_iterations == b.solver_iterations;
}

TEST(CoolingSystem, ConcurrentEvaluationsSurviveMemoEviction) {
  // A memo of two entries is evicted on nearly every miss. Each thread holds
  // three results at once while the other threads' misses evict; every held
  // result must still equal a serial evaluation on a separate system.
  CoolingSystem::Config cfg = coarse_config();
  cfg.cache_limit = 2;
  const CoolingSystem sys(fp(), benchmark_power(workload::Benchmark::kFft),
                          leakage(), cfg);
  const CoolingSystem serial = make_system(workload::Benchmark::kFft);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPointsPerThread = 3;
  constexpr std::size_t kRounds = 3;
  std::vector<std::pair<double, double>> points;
  std::vector<Evaluation> expected;
  for (std::size_t i = 0; i < kThreads * kPointsPerThread; ++i) {
    points.emplace_back(300.0 + 15.0 * static_cast<double>(i),
                        0.25 * static_cast<double>(i % kPointsPerThread));
    expected.push_back(serial.evaluate(points[i].first, points[i].second));
  }

  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t base = t * kPointsPerThread;
      const auto& [wa, ia] = points[base];
      const auto& [wb, ib] = points[base + 1];
      const auto& [wc, ic] = points[base + 2];
      for (std::size_t round = 0; round < kRounds; ++round) {
        const Evaluation& a = sys.evaluate(wa, ia);
        const Evaluation& b = sys.evaluate(wb, ib);
        const Evaluation& c = sys.evaluate(wc, ic);
        mismatches[t] += !same_bits(a, expected[base]);
        mismatches[t] += !same_bits(b, expected[base + 1]);
        mismatches[t] += !same_bits(c, expected[base + 2]);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
}

}  // namespace
}  // namespace oftec::core
