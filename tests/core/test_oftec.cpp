#include "core/oftec.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/problems.h"
#include "opt/sqp.h"
#include "test_fixtures.h"
#include "util/units.h"

namespace oftec::core {
namespace {

using testing::make_system;

TEST(Oftec, SolverNames) {
  EXPECT_EQ(solver_name(Solver::kActiveSetSqp), "active-set-SQP");
  EXPECT_EQ(solver_name(Solver::kInteriorPoint), "interior-point");
  EXPECT_EQ(solver_name(Solver::kTrustRegion), "trust-region");
  EXPECT_EQ(solver_name(Solver::kGridSearch), "grid-search");
}

TEST(Oftec, LightBenchmarkSkipsOpt2) {
  // Basicmath is coolable from the (ω_max/2, I_max/2) start, so the
  // feasibility bootstrap must not run.
  const CoolingSystem sys = make_system(workload::Benchmark::kBasicmath);
  const OftecResult r = run_oftec(sys);
  ASSERT_TRUE(r.success);
  EXPECT_FALSE(r.used_opt2);
  EXPECT_LT(r.max_chip_temperature, sys.t_max());
}

TEST(Oftec, HeavyBenchmarkUsesOpt2) {
  const CoolingSystem sys = make_system(workload::Benchmark::kQuicksort);
  const OftecResult r = run_oftec(sys);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(r.used_opt2);
  EXPECT_LT(r.max_chip_temperature, sys.t_max());
  EXPECT_LT(r.opt2_temperature, sys.t_max());
}

TEST(Oftec, SolutionRespectsPhysicalBounds) {
  const CoolingSystem sys = make_system(workload::Benchmark::kSusan);
  const OftecResult r = run_oftec(sys);
  ASSERT_TRUE(r.success);
  EXPECT_GE(r.omega, 0.0);
  EXPECT_LE(r.omega, sys.omega_max() + 1e-9);
  EXPECT_GE(r.current, 0.0);
  EXPECT_LE(r.current, sys.current_max() + 1e-9);
}

TEST(Oftec, Opt1PowerNotAboveOpt2Power) {
  // Optimization 1 minimizes power from the Optimization 2 point, so it can
  // only improve (or match) the cooling power.
  const CoolingSystem sys = make_system(workload::Benchmark::kBitCount);
  const OftecResult r = run_oftec(sys);
  ASSERT_TRUE(r.success);
  EXPECT_LE(r.power.total(), r.opt2_power.total() + 1e-6);
}

TEST(Oftec, Opt1TradesTemperatureForPower) {
  // The paper's Fig. 6(e) observation: OFTEC "slightly increases the
  // temperature in order to reduce the cooling power consumption".
  const CoolingSystem sys = make_system(workload::Benchmark::kQuicksort);
  const OftecResult r = run_oftec(sys);
  ASSERT_TRUE(r.success);
  EXPECT_GE(r.max_chip_temperature, r.opt2_temperature - 1e-6);
}

TEST(Oftec, ReportsRuntimeAndSolves) {
  const CoolingSystem sys = make_system(workload::Benchmark::kFft);
  const OftecResult r = run_oftec(sys);
  ASSERT_TRUE(r.success);
  EXPECT_GT(r.runtime_ms, 0.0);
  EXPECT_GT(r.thermal_solves, 5u);
}

TEST(Oftec, FanOnlyVariantWorksOnLightLoad) {
  const CoolingSystem sys =
      make_system(workload::Benchmark::kCrc32, /*with_tec=*/false);
  const OftecResult r = run_oftec(sys);
  ASSERT_TRUE(r.success);
  EXPECT_DOUBLE_EQ(r.current, 0.0);
  EXPECT_LT(r.max_chip_temperature, sys.t_max());
}

TEST(Oftec, FanOnlyVariantFailsOnHeavyLoad) {
  const CoolingSystem sys =
      make_system(workload::Benchmark::kQuicksort, /*with_tec=*/false);
  const OftecResult r = run_oftec(sys);
  EXPECT_FALSE(r.success);
  // Even the best fan setting exceeds T_max.
  EXPECT_GT(r.opt2_temperature, sys.t_max());
}

TEST(Oftec, InfeasibleHybridStillReportsOpt2Power) {
  // An overload even OFTEC cannot cool: the failure report must carry the
  // best-effort (Optimization 2) operating point and its finite power.
  power::PowerMap overload =
      testing::benchmark_power(workload::Benchmark::kQuicksort);
  overload.scale(1.6);
  const CoolingSystem sys(testing::fp(), overload, testing::leakage(),
                          testing::coarse_config());
  const OftecResult r = run_oftec(sys);
  ASSERT_FALSE(r.success);
  EXPECT_TRUE(r.used_opt2);
  EXPECT_GT(r.opt2_temperature, sys.t_max());
  EXPECT_TRUE(std::isfinite(r.opt2_temperature));
  EXPECT_GT(r.opt2_power.total(), 0.0);
  EXPECT_GT(r.runtime_ms, 0.0);
}

TEST(Oftec, InfeasibleReportCarriesBestEffort) {
  const CoolingSystem sys =
      make_system(workload::Benchmark::kBitCount, /*with_tec=*/false);
  const OftecResult r = run_oftec(sys);
  ASSERT_FALSE(r.success);
  EXPECT_TRUE(std::isfinite(r.opt2_temperature));
  EXPECT_GT(r.opt2_omega, 0.0);
}

TEST(Oftec, GridSearchEngineAgreesWithSqp) {
  const CoolingSystem sys = make_system(workload::Benchmark::kFft);
  OftecOptions sqp_opts;
  OftecOptions grid_opts;
  grid_opts.solver = Solver::kGridSearch;
  grid_opts.grid_points = 15;
  const OftecResult rs = run_oftec(sys, sqp_opts);
  const OftecResult rg = run_oftec(sys, grid_opts);
  ASSERT_TRUE(rs.success);
  ASSERT_TRUE(rg.success);
  // SQP should be at least as good as a coarse grid (minor non-convexity).
  EXPECT_LE(rs.power.total(), rg.power.total() * 1.05);
}

TEST(MinTemperature, FindsCoolerPointThanOpt1) {
  // Optimization 2 minimizes 𝒯 with no power concern, so its temperature
  // can only be at or below the Optimization 1 solution's.
  const CoolingSystem sys = make_system(workload::Benchmark::kFft);
  const MinTemperatureResult t = run_min_temperature(sys);
  const OftecResult p = run_oftec(sys);
  ASSERT_TRUE(t.finite);
  ASSERT_TRUE(p.success);
  EXPECT_LE(t.max_chip_temperature, p.max_chip_temperature + 1e-6);
}

TEST(MinTemperature, SpendsMorePowerThanOpt1) {
  // The Fig. 6(d) vs 6(f) relationship.
  const CoolingSystem sys = make_system(workload::Benchmark::kQuicksort);
  const MinTemperatureResult t = run_min_temperature(sys);
  const OftecResult p = run_oftec(sys);
  ASSERT_TRUE(t.finite);
  ASSERT_TRUE(p.success);
  EXPECT_GE(t.power.total(), p.power.total() - 1e-6);
}

TEST(MinTemperature, PushesFanHard) {
  // 𝒯 decreases monotonically with ω in this model, so the minimizer runs
  // the fan at (or very near) full speed.
  const CoolingSystem sys = make_system(workload::Benchmark::kBitCount);
  const MinTemperatureResult t = run_min_temperature(sys);
  ASSERT_TRUE(t.finite);
  EXPECT_GT(t.omega, 0.8 * sys.omega_max());
}

TEST(MinTemperature, WorksOnFanOnlySystems) {
  const CoolingSystem sys =
      make_system(workload::Benchmark::kCrc32, /*with_tec=*/false);
  const MinTemperatureResult t = run_min_temperature(sys);
  ASSERT_TRUE(t.finite);
  EXPECT_DOUBLE_EQ(t.current, 0.0);
  EXPECT_LT(t.max_chip_temperature, sys.t_max());
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every OftecResult field except the wall-clock runtime, bit for bit.
void expect_same_result(const OftecResult& a, const OftecResult& b,
                        const std::string& label) {
  const auto same_power = [](const CoolingBreakdown& x,
                             const CoolingBreakdown& y) {
    return bits(x.leakage) == bits(y.leakage) && bits(x.tec) == bits(y.tec) &&
           bits(x.fan) == bits(y.fan);
  };
  EXPECT_EQ(a.success, b.success) << label;
  EXPECT_EQ(a.status, b.status) << label;
  EXPECT_EQ(a.used_opt2, b.used_opt2) << label;
  EXPECT_EQ(bits(a.omega), bits(b.omega)) << label;
  EXPECT_EQ(bits(a.current), bits(b.current)) << label;
  EXPECT_EQ(bits(a.max_chip_temperature), bits(b.max_chip_temperature))
      << label;
  EXPECT_TRUE(same_power(a.power, b.power)) << label;
  EXPECT_EQ(bits(a.opt2_omega), bits(b.opt2_omega)) << label;
  EXPECT_EQ(bits(a.opt2_current), bits(b.opt2_current)) << label;
  EXPECT_EQ(bits(a.opt2_temperature), bits(b.opt2_temperature)) << label;
  EXPECT_TRUE(same_power(a.opt2_power, b.opt2_power)) << label;
  EXPECT_EQ(a.thermal_solves, b.thermal_solves) << label;
}

CoolingSystem make_system_with_threads(workload::Benchmark b,
                                       std::size_t threads) {
  CoolingSystem::Config cfg = testing::coarse_config();
  cfg.engine.threads = threads;
  return CoolingSystem(testing::fp(), testing::benchmark_power(b),
                       testing::leakage(), cfg);
}

/// A CoolingProblem seen through the plain opt::Problem interface: no
/// prefetch() override, so SQP evaluates every stencil point serially.
class NoPrefetch final : public opt::Problem {
 public:
  explicit NoPrefetch(const CoolingProblem& inner) : inner_(inner) {}
  [[nodiscard]] std::size_t dimension() const override {
    return inner_.dimension();
  }
  [[nodiscard]] std::size_t constraint_count() const override {
    return inner_.constraint_count();
  }
  [[nodiscard]] const opt::Bounds& bounds() const override {
    return inner_.bounds();
  }
  [[nodiscard]] double objective(const la::Vector& x) const override {
    return inner_.objective(x);
  }
  [[nodiscard]] la::Vector constraints(const la::Vector& x) const override {
    return inner_.constraints(x);
  }

 private:
  const CoolingProblem& inner_;
};

/// run_oftec's Algorithm 1 (default options, feasible branch) with the SQP
/// driving NoPrefetch wrappers — the serial oracle for the batched stencils.
OftecResult run_oftec_without_prefetch(const CoolingSystem& system) {
  const OftecOptions options;
  const std::size_t solves_before = system.evaluation_count();
  const CoolingProblem opt2(system, CoolingProblem::Objective::kMaxTemperature,
                            /*temperature_constraint=*/false);
  const CoolingProblem opt1(system, CoolingProblem::Objective::kCoolingPower,
                            /*temperature_constraint=*/true);
  const double t_max = opt1.t_max();

  OftecResult result;
  la::Vector x = opt2.midpoint();
  double temperature = opt2.objective(x);
  if (!(temperature < t_max)) {
    result.used_opt2 = true;
    const double stop_threshold = t_max - options.feasibility_margin;
    const opt::OptResult r2 = opt::solve_sqp(
        NoPrefetch(opt2), x, options.sqp,
        [&](const la::Vector&, double objective) {
          return objective < stop_threshold;
        });
    x = r2.x;
    temperature = r2.objective;
  }
  result.opt2_omega = opt2.omega_of(x);
  result.opt2_current = opt2.current_of(x);
  result.opt2_temperature = temperature;
  result.opt2_power =
      system.evaluate(result.opt2_omega, result.opt2_current).power;

  const opt::OptResult r1 = opt::solve_sqp(NoPrefetch(opt1), x, options.sqp);
  la::Vector x_star = r1.x;
  Evaluation ev = system.evaluate(opt1.omega_of(x_star), opt1.current_of(x_star));
  if (ev.runaway || !(ev.max_chip_temperature < t_max)) {
    x_star = x;
    ev = system.evaluate(opt1.omega_of(x_star), opt1.current_of(x_star));
  }
  result.success = true;
  result.status = SolveStatus::kOk;
  result.omega = opt1.omega_of(x_star);
  result.current = opt1.current_of(x_star);
  result.max_chip_temperature = ev.max_chip_temperature;
  result.power = ev.power;
  result.thermal_solves = system.evaluation_count() - solves_before;
  return result;
}

TEST(OftecBatchedStencils, IdenticalAtAnyThreadCountAndWithoutPrefetch) {
  // SQP fetches each finite-difference stencil as one engine batch. The
  // batch must not move a single bit of any Table-2 result, nor the count of
  // thermal solves, whether it runs on 1, 2 or 4 threads or not at all.
  for (const workload::Benchmark b : workload::all_benchmarks()) {
    const std::string name = workload::profile_for(b).name;
    const OftecResult serial =
        run_oftec_without_prefetch(make_system_with_threads(b, 1));
    ASSERT_TRUE(serial.success) << name;
    for (const std::size_t threads : {1u, 2u, 4u}) {
      const OftecResult batched =
          run_oftec(make_system_with_threads(b, threads));
      expect_same_result(batched, serial,
                         name + " threads=" + std::to_string(threads));
    }
  }
}

TEST(OftecBatchedStencils, InfeasibleRunIdenticalAtAnyThreadCount) {
  // The runaway region puts +inf samples into the stencils.
  power::PowerMap overload =
      testing::benchmark_power(workload::Benchmark::kQuicksort);
  overload.scale(1.6);
  std::vector<OftecResult> results;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    CoolingSystem::Config cfg = testing::coarse_config();
    cfg.engine.threads = threads;
    const CoolingSystem sys(testing::fp(), overload, testing::leakage(), cfg);
    results.push_back(run_oftec(sys));
  }
  ASSERT_FALSE(results[0].success);
  expect_same_result(results[1], results[0], "threads=2");
  expect_same_result(results[2], results[0], "threads=4");
}

TEST(Oftec, SolutionBeatsNaiveFullPower) {
  // Running everything flat out is feasible for a light benchmark but
  // wasteful; OFTEC must find something strictly cheaper.
  const CoolingSystem sys = make_system(workload::Benchmark::kBasicmath);
  const OftecResult r = run_oftec(sys);
  ASSERT_TRUE(r.success);
  const Evaluation& flat_out = sys.evaluate(sys.omega_max(), 1.0);
  ASSERT_FALSE(flat_out.runaway);
  EXPECT_LT(r.power.total(), flat_out.cooling_power());
}

}  // namespace
}  // namespace oftec::core
