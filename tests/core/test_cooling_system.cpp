#include "core/cooling_system.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <thread>
#include <utility>
#include <vector>

#include "test_fixtures.h"
#include "util/thread_pool.h"
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

TEST(CoolingSystem, PrefetchSolvesDuplicatesOnce) {
  const CoolingSystem sys = make_system(workload::Benchmark::kFft);
  const CoolingSystem serial = make_system(workload::Benchmark::kFft);
  const thermal::OperatingPoint a{300.0, 1.0};
  const thermal::OperatingPoint b{310.0, 1.0};
  sys.prefetch({a, b, a, b, a});
  EXPECT_EQ(sys.engine().stats().points, 2u);
  EXPECT_EQ(sys.evaluation_count(), 2u);

  // The reads that follow are memo hits with the serial bits.
  EXPECT_TRUE(same_bits(sys.evaluate(a.omega, a.current),
                        serial.evaluate(a.omega, a.current)));
  EXPECT_TRUE(same_bits(sys.evaluate(b.omega, b.current),
                        serial.evaluate(b.omega, b.current)));
  EXPECT_EQ(sys.evaluation_count(), 2u);
  EXPECT_EQ(sys.cache_hits(), 2u);
  EXPECT_EQ(sys.engine().stats().points, 2u);
}

TEST(CoolingSystem, PrefetchOfMemoizedPointsSolvesNothing) {
  const CoolingSystem sys = make_system(workload::Benchmark::kFft);
  (void)sys.evaluate(300.0, 1.0);
  (void)sys.evaluate(310.0, 1.0);
  const std::size_t points = sys.engine().stats().points;
  sys.prefetch({{300.0, 1.0}, {310.0, 1.0}, {300.0, 1.0}});
  EXPECT_EQ(sys.engine().stats().points, points);
  // A single miss is left to the evaluate() that asks for it.
  sys.prefetch({{300.0, 1.0}, {320.0, 1.0}});
  EXPECT_EQ(sys.engine().stats().points, points);
  EXPECT_EQ(sys.evaluation_count(), 2u);
}

TEST(CoolingSystem, PrefetchInsideAPoolBodyLeavesPointsToEvaluate) {
  // Nested in another pool's parallel_for the batch could only run inline,
  // so prefetch neither solves nor starts the engine's pool.
  const CoolingSystem sys = make_system(workload::Benchmark::kFft);
  util::ThreadPool outer(2);
  outer.parallel_for(2, [&](std::size_t i) {
    const double w = 300.0 + 20.0 * static_cast<double>(i);
    sys.prefetch({{w, 1.0}, {w + 10.0, 1.0}});
  });
  EXPECT_EQ(sys.engine().stats().points, 0u);
  EXPECT_EQ(sys.evaluation_count(), 0u);
}

TEST(CoolingSystem, PrefetchRejectsOutOfRangePoints) {
  const CoolingSystem sys = make_system(workload::Benchmark::kFft);
  EXPECT_THROW(sys.prefetch({{300.0, 1.0}, {-1.0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(sys.prefetch({{300.0, 1.0}, {300.0, 99.0}}),
               std::invalid_argument);
  EXPECT_EQ(sys.engine().stats().points, 0u);
}

TEST(CoolingSystem, PrefetchOverflowClearsTheMemo) {
  // A two-entry memo overflows on the third prefetched point: it is cleared
  // and keeps only that point. Later reads re-solve the evicted points with
  // identical bits.
  CoolingSystem::Config cfg = coarse_config();
  cfg.cache_limit = 2;
  const CoolingSystem sys(fp(), benchmark_power(workload::Benchmark::kFft),
                          leakage(), cfg);
  const CoolingSystem serial = make_system(workload::Benchmark::kFft);
  const std::vector<thermal::OperatingPoint> pts = {
      {300.0, 0.5}, {320.0, 0.5}, {340.0, 0.5}};
  sys.prefetch(pts);
  EXPECT_EQ(sys.evaluation_count(), 3u);

  EXPECT_TRUE(same_bits(sys.evaluate(340.0, 0.5), serial.evaluate(340.0, 0.5)));
  EXPECT_EQ(sys.evaluation_count(), 3u);  // survived the clear
  EXPECT_TRUE(same_bits(sys.evaluate(300.0, 0.5), serial.evaluate(300.0, 0.5)));
  EXPECT_EQ(sys.evaluation_count(), 4u);  // evicted, solved again
  EXPECT_EQ(sys.engine().stats().points, 4u);
}

TEST(CoolingSystem, ConcurrentPrefetchAndEvaluateMatchSerial) {
  // Four threads on one four-worker system, with overlapping stencils and a
  // memo small enough to evict under them: one thread's prefetch batches
  // race the others' evaluate() misses and batches. Every result must equal
  // a serial evaluation on a separate system.
  CoolingSystem::Config cfg = coarse_config();
  cfg.cache_limit = 6;
  cfg.engine.threads = 4;
  const CoolingSystem sys(fp(), benchmark_power(workload::Benchmark::kFft),
                          leakage(), cfg);
  const CoolingSystem serial = make_system(workload::Benchmark::kFft);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 3;
  // Thread t's stencil shares its last point with thread t + 1's first.
  std::vector<std::vector<thermal::OperatingPoint>> stencils(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t k = 0; k < 4; ++k) {
      const std::size_t j = 3 * t + k;
      stencils[t].push_back({300.0 + 10.0 * static_cast<double>(j),
                             0.25 * static_cast<double>(j % 2)});
    }
  }
  std::vector<std::vector<Evaluation>> expected(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (const thermal::OperatingPoint& p : stencils[t]) {
      expected[t].push_back(serial.evaluate(p.omega, p.current));
    }
  }

  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        if ((t + round) % 2 == 0) sys.prefetch(stencils[t]);
        for (std::size_t k = 0; k < stencils[t].size(); ++k) {
          const thermal::OperatingPoint& p = stencils[t][k];
          mismatches[t] +=
              !same_bits(sys.evaluate(p.omega, p.current), expected[t][k]);
        }
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
