// Model-fidelity ablation (DESIGN.md): why the paper's leakage
// linearization (Eq. 4) matters, and how the direct banded solver compares
// with the Jacobi-preconditioned CG the solve engine tries first.
//
//   (1) Leakage treatment: constant-at-ambient vs 10-point chord (paper)
//       vs exact Newton — compare predicted max temperature for Basicmath.
//   (2) Linear solver: banded LU vs Jacobi-CG on the assembled matrix.
#include <cstdio>

#include "common.h"
#include "la/banded_lu.h"
#include "la/iterative.h"
#include "la/sparse.h"
#include "thermal/solve_engine.h"
#include "util/stopwatch.h"
#include "util/units.h"

int main() {
  using namespace oftec;
  using namespace oftec::bench;

  print_header("Model ablation: leakage linearization & solver choice",
               "constant leakage underestimates the die temperature; the "
               "Eq. 4 chord tracks the exact exponential closely at ~zero "
               "extra cost");

  const floorplan::Floorplan& fp = paper_floorplan();
  const power::PowerMap peak = workload::peak_power_map(
      workload::profile_for(workload::Benchmark::kBasicmath), fp);

  const thermal::ThermalModel model(package::PackageConfig::paper_default(),
                                    fp, 10, 10);
  const la::Vector dyn = model.distribute(peak);
  const auto leak_terms = model.cell_leakage(paper_leakage());

  std::printf("\n(1) Leakage treatment at (2000 RPM, I = 0.5 A), Basicmath:\n");
  const double omega = units::rpm_to_rad_s(2000.0);
  struct ModeRow {
    const char* name;
    thermal::LeakageMode mode;
  };
  const ModeRow modes[] = {
      {"constant at ambient (no feedback)", thermal::LeakageMode::kConstant},
      {"10-pt chord regression (paper Eq. 4)",
       thermal::LeakageMode::kChordLinear},
      {"exact exponential (Newton)", thermal::LeakageMode::kNewtonExact},
  };
  double exact_temp = 0.0;
  for (const ModeRow& m : modes) {
    thermal::SteadyOptions opts;
    opts.mode = m.mode;
    const thermal::SolveEngine engine(model, dyn, leak_terms, opts);
    util::Stopwatch watch;
    const thermal::SteadyResult r = engine.solve({omega, 0.5});
    const double ms = watch.elapsed_ms();
    if (m.mode == thermal::LeakageMode::kNewtonExact) {
      exact_temp = r.max_chip_temperature;
    }
    std::printf("  %-38s Tmax = %6.2f C, leak = %5.2f W, "
                "%zu solve(s), %.1f ms\n",
                m.name, units::kelvin_to_celsius(r.max_chip_temperature),
                r.leakage_power, r.iterations, ms);
  }
  {
    thermal::SteadyOptions opts;
    opts.mode = thermal::LeakageMode::kConstant;
    const thermal::SteadyResult r =
        thermal::SolveEngine(model, dyn, leak_terms, opts).solve({omega, 0.5});
    std::printf("  -> constant-leakage model under-predicts by %.2f C\n",
                units::kelvin_to_celsius(exact_temp) -
                    units::kelvin_to_celsius(r.max_chip_temperature));
  }

  std::printf("\n(2) Linear solver on the assembled system "
              "(n = %zu, bandwidth = %zu):\n",
              model.layout().node_count(), model.layout().bandwidth());
  std::vector<power::TaylorCoefficients> taylor(dyn.size());
  for (std::size_t i = 0; i < dyn.size(); ++i) {
    taylor[i] = power::tangent_linearize(leak_terms[i],
                                         model.config().ambient + 30.0);
  }
  const thermal::AssembledSystem sys =
      model.assemble(omega, 0.5, dyn, taylor);

  util::Stopwatch direct_watch;
  const la::Vector x_direct = la::BandedLu(sys.matrix).solve(sys.rhs);
  const double direct_ms = direct_watch.elapsed_ms();

  const la::CsrMatrix csr = la::banded_to_csr(sys.matrix);
  util::Stopwatch iter_watch;
  const la::IterativeResult it = la::solve_cg(csr, sys.rhs);
  const double iter_ms = iter_watch.elapsed_ms();

  std::printf("  banded LU : %.2f ms\n", direct_ms);
  std::printf("  Jacobi-CG : %.2f ms, %zu iterations, converged=%s, "
              "max |dx| vs direct = %.2e K\n",
              iter_ms, it.iterations, it.converged ? "yes" : "NO",
              la::max_abs_diff(it.x, x_direct));
  return 0;
}
