#include "core/transient_boost.h"

#include <gtest/gtest.h>

#include "core/oftec.h"
#include "test_fixtures.h"

namespace oftec::core {
namespace {

using testing::make_system;

BoostOptions fast_options() {
  BoostOptions opts;
  opts.boost_duration = 0.5;
  opts.settle_duration = 1.0;
  opts.transient.time_step = 10e-3;
  opts.transient.record_stride = 2;
  return opts;
}

TEST(TransientBoost, RequiresHybridSystem) {
  const CoolingSystem fan_only =
      make_system(workload::Benchmark::kFft, /*with_tec=*/false);
  EXPECT_THROW((void)run_transient_boost(fan_only, 400.0, 0.0, fast_options()),
               std::invalid_argument);
}

TEST(TransientBoost, RejectsRunawayOperatingPoint) {
  const CoolingSystem sys = make_system(workload::Benchmark::kQuicksort);
  EXPECT_THROW((void)run_transient_boost(sys, 0.0, 0.0, fast_options()),
               std::invalid_argument);
}

TEST(TransientBoost, BoostBuysTransientCooling) {
  // Ref. [8]'s effect: stepping I above I* cools immediately (Peltier),
  // before Joule heating erodes the gain.
  const CoolingSystem sys = make_system(workload::Benchmark::kFft);
  const OftecResult star = run_oftec(sys);
  ASSERT_TRUE(star.success);

  const BoostExperiment exp =
      run_transient_boost(sys, star.omega, star.current, fast_options());
  EXPECT_GT(exp.transient_benefit, 0.04);  // visibly cooler during the boost
  EXPECT_LT(exp.min_boost_temperature, exp.steady_temperature);
  EXPECT_LT(exp.time_of_minimum, 0.5);
  EXPECT_FALSE(exp.trace.runaway);
  EXPECT_FALSE(exp.control.runaway);
}

TEST(TransientBoost, SteadyStartIsTheEvaluatedOperatingPoint) {
  // The experiment starts from the same steady solve evaluate() reports, so
  // its steady temperature is 𝒯(ω*, I*) bit for bit.
  const CoolingSystem sys = make_system(workload::Benchmark::kFft);
  const OftecResult star = run_oftec(sys);
  ASSERT_TRUE(star.success);
  const BoostExperiment exp =
      run_transient_boost(sys, star.omega, star.current, fast_options());
  EXPECT_EQ(exp.steady_temperature,
            sys.evaluate(star.omega, star.current).max_chip_temperature);
}

TEST(TransientBoost, ControlRunStaysAtSteadyState) {
  const CoolingSystem sys = make_system(workload::Benchmark::kFft);
  const OftecResult star = run_oftec(sys);
  ASSERT_TRUE(star.success);
  const BoostExperiment exp =
      run_transient_boost(sys, star.omega, star.current, fast_options());
  for (const thermal::TransientSample& s : exp.control.samples) {
    EXPECT_NEAR(s.max_chip_temperature, exp.steady_temperature, 0.1);
  }
}

TEST(TransientBoost, TemperatureRecoversAfterBoostEnds) {
  const CoolingSystem sys = make_system(workload::Benchmark::kFft);
  const OftecResult star = run_oftec(sys);
  ASSERT_TRUE(star.success);
  const BoostExperiment exp =
      run_transient_boost(sys, star.omega, star.current, fast_options());
  // After the boost window the chip relaxes back toward (and briefly past)
  // the steady temperature.
  EXPECT_GE(exp.post_boost_peak, exp.min_boost_temperature);
  EXPECT_NEAR(exp.trace.samples.back().max_chip_temperature,
              exp.steady_temperature, 1.0);
}

TEST(TransientBoost, BoostCurrentClampedToDeviceLimit) {
  const CoolingSystem sys = make_system(workload::Benchmark::kFft);
  BoostOptions opts = fast_options();
  opts.boost_current = 100.0;  // absurd request — must clamp to I_max
  EXPECT_NO_THROW((void)run_transient_boost(sys, 450.0, 1.0, opts));
}

}  // namespace
}  // namespace oftec::core
