#include "thermal/solve_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <new>
#include <stdexcept>
#include <utility>

#include "la/banded_lu.h"
#include "la/iterative.h"
#include "util/fault.h"
#include "util/obs.h"

namespace oftec::thermal {

namespace {

/// Krylov tolerance for intermediate Newton iterations; the final result is
/// always polished to SteadyOptions::iterative_tolerance.
constexpr double kInnerTolerance = 1e-6;

// Registry mirrors of the per-engine counters (names: docs/observability.md).
const obs::Counter g_obs_points = obs::counter("solve_engine.points");
const obs::Counter g_obs_linear_solves =
    obs::counter("solve_engine.linear_solves");
const obs::Counter g_obs_cg_iterations_total =
    obs::counter("solve_engine.cg_iterations_total");
const obs::Counter g_obs_direct_fallbacks =
    obs::counter("solve_engine.direct_fallbacks");
const obs::Histogram g_obs_cg_iterations = obs::histogram(
    "solve_engine.cg_iterations",
    {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0});
const obs::Histogram g_obs_newton_iterations =
    obs::histogram("solve_engine.newton_iterations",
                   {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});

}  // namespace

// ---------------------------------------------------------------------------
// Per-solve workspace (one per thread of execution; never shared)
// ---------------------------------------------------------------------------

struct SolveEngine::Workspace {
  CsrSystem csr;
  std::vector<power::TaylorCoefficients> taylor;
  la::Vector cell_current;
  la::Vector warm;         // previous iterate for Krylov warm starts
  bool have_warm = false;  // reset at the start of every operating point
  la::CgWorkspace cg;      // CG iteration vectors, reused across solves
};

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

namespace {

/// The workload's per-cell dynamic power, once checked against the model
/// and the leakage terms (validation runs before the assembler binds it).
la::Vector checked_dynamic_power(
    const ThermalModel& model, la::Vector cell_dynamic_power,
    const std::vector<power::ExponentialTerm>& cell_leakage) {
  const std::size_t cells = model.layout().cells_per_layer();
  if (cell_dynamic_power.size() != cells || cell_leakage.size() != cells) {
    throw std::invalid_argument("SolveEngine: per-cell arity mismatch");
  }
  for (const double p : cell_dynamic_power) {
    if (p < 0.0 || !std::isfinite(p)) {
      throw std::invalid_argument("SolveEngine: bad dynamic power");
    }
  }
  return cell_dynamic_power;
}

}  // namespace

SolveEngine::SolveEngine(const ThermalModel& model,
                         la::Vector cell_dynamic_power,
                         std::vector<power::ExponentialTerm> cell_leakage,
                         SteadyOptions steady, EngineOptions options)
    : steady_(steady),
      options_(options),
      assembler_(model, checked_dynamic_power(model,
                                              std::move(cell_dynamic_power),
                                              cell_leakage)),
      leakage_(std::move(cell_leakage)) {
  // Probe the banded structure once; all operating points share it.
  const std::size_t cells = model.layout().cells_per_layer();
  const AssembledSystem probe = assembler_.assemble_banded(
      0.0, la::Vector(cells, 0.0),
      std::vector<power::TaylorCoefficients>(cells));
  symbolic_ = std::make_shared<const la::BandedCholeskySymbolic>(
      la::BandedCholeskySymbolic::analyze(probe.matrix));
}

EngineStats SolveEngine::stats() const {
  EngineStats s;
  s.points = points_.load(std::memory_order_relaxed);
  s.linear_solves = linear_solves_.load(std::memory_order_relaxed);
  s.cg_iterations = cg_iterations_.load(std::memory_order_relaxed);
  s.direct_fallbacks = direct_fallbacks_.load(std::memory_order_relaxed);
  return s;
}

void SolveEngine::reset_stats() const {
  points_.store(0, std::memory_order_relaxed);
  linear_solves_.store(0, std::memory_order_relaxed);
  cg_iterations_.store(0, std::memory_order_relaxed);
  direct_fallbacks_.store(0, std::memory_order_relaxed);
}

bool SolveEngine::physical(const la::Vector& temperatures) const {
  const double runaway = steady_.runaway_temperature;
  for (const double t : temperatures) {
    if (!std::isfinite(t) || t <= 0.0 || t > runaway) return false;
  }
  return true;
}

bool SolveEngine::solve_direct(
    double omega, const la::Vector& cell_current,
    const std::vector<power::TaylorCoefficients>& taylor, Workspace& ws,
    la::Vector& out) const {
  direct_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  g_obs_direct_fallbacks.add();
  const AssembledSystem sys =
      assembler_.assemble_banded(omega, cell_current, taylor);
  la::BandedCholeskyNumeric cholesky(symbolic_);
  try {
    cholesky.refactorize(sys.matrix);
  } catch (const std::runtime_error&) {
    // Not positive definite: near runaway the TEC/leakage terms can push the
    // matrix indefinite, so fall back to pivoted LU below.
  }
  if (cholesky.factorized()) {
    out = cholesky.solve(sys.rhs);
  } else {
    try {
      out = la::solve_banded(sys.matrix, sys.rhs);
    } catch (const std::runtime_error&) {
      return false;  // genuinely singular: runaway
    }
  }
  if (!physical(out)) return false;
  ws.warm = out;
  ws.have_warm = true;
  return true;
}

bool SolveEngine::solve_linear(
    double omega, const la::Vector& cell_current,
    const std::vector<power::TaylorCoefficients>& taylor, double tolerance,
    Workspace& ws, la::Vector& out) const {
  linear_solves_.fetch_add(1, std::memory_order_relaxed);
  g_obs_linear_solves.add();
  if (options_.use_iterative) {
    assembler_.assemble_csr(omega, cell_current, taylor, ws.csr);
    la::IterativeOptions iopts;
    iopts.tolerance = tolerance;
    iopts.max_iterations = 4 * ws.csr.rhs.size();
    if (ws.have_warm) iopts.initial_guess = &ws.warm;
    iopts.workspace = &ws.cg;  // allocation-free across the Newton loop
    // All operating-point terms are diagonal, so M stays symmetric and CG
    // applies; indefinite systems (near runaway) fail to converge and drop
    // to the pivoted direct path below.
    const la::IterativeResult it =
        la::solve_cg(ws.csr.matrix, ws.csr.rhs, iopts);
    cg_iterations_.fetch_add(it.iterations, std::memory_order_relaxed);
    g_obs_cg_iterations_total.add(it.iterations);
    if (obs::enabled()) {
      g_obs_cg_iterations.observe(static_cast<double>(it.iterations));
    }
    if (it.converged && physical(it.x)) {
      out = it.x;
      ws.warm = out;
      ws.have_warm = true;
      return true;
    }
  }
  return solve_direct(omega, cell_current, taylor, ws, out);
}

SteadyResult SolveEngine::solve_point(double omega, Workspace& ws) const {
  static const fault::Site alloc_fail = fault::site("solve_engine.alloc_fail");
  static const fault::Site nonconverge =
      fault::site("solve_engine.nonconverge");
  static const fault::Site nan_escape = fault::site("solve_engine.nan");
  OBS_SPAN("solve_engine.solve_point");
  points_.fetch_add(1, std::memory_order_relaxed);
  g_obs_points.add();
  if (alloc_fail.should_fail()) {
    throw std::bad_alloc();  // what a failed Workspace/factor alloc raises
  }
  SteadyResult result = solve_point_impl(omega, ws);
  if (nonconverge.should_fail() && result.converged) {
    result.converged = false;
    result.status = SolveStatus::kNotConverged;
  }
  if (nan_escape.should_fail() && !result.temperatures.empty()) {
    result.temperatures.front() = std::numeric_limits<double>::quiet_NaN();
    result.max_chip_temperature = std::numeric_limits<double>::quiet_NaN();
  }
  // Sanitize barrier: a non-runaway result must be entirely finite. Anything
  // non-finite that slipped through (injected or real) is demoted to a
  // structured numerical-error verdict; NaN can never masquerade as success.
  if (!result.runaway) {
    bool finite = std::isfinite(result.max_chip_temperature) &&
                  std::isfinite(result.leakage_power) &&
                  std::isfinite(result.tec_power);
    for (std::size_t i = 0; finite && i < result.temperatures.size(); ++i) {
      finite = std::isfinite(result.temperatures[i]);
    }
    if (!finite) {
      result =
          make_runaway_result(result.iterations, SolveStatus::kNumericalError);
    }
  }
  if (obs::enabled()) {
    g_obs_newton_iterations.observe(static_cast<double>(result.iterations));
  }
  return result;
}

SteadyResult SolveEngine::solve_point_impl(double omega, Workspace& ws) const {
  const ThermalModel& model = assembler_.model();
  const SteadyOptions& sopts = steady_;
  const std::vector<power::ExponentialTerm>& leakage = leakage_;
  const std::size_t cells = model.layout().cells_per_layer();

  ws.have_warm = false;  // determinism: no state leaks between points
  ws.taylor.resize(cells);
  const double polish_tol = sopts.iterative_tolerance;

  switch (sopts.mode) {
    case LeakageMode::kConstant: {
      for (std::size_t i = 0; i < cells; ++i) {
        ws.taylor[i] = {0.0, leakage[i].evaluate(model.config().ambient),
                        model.config().ambient};
      }
      la::Vector temps;
      if (!solve_linear(omega, ws.cell_current, ws.taylor, polish_tol, ws,
                        temps)) {
        return make_runaway_result(1);
      }
      return make_steady_result(model, std::move(temps), true, 1,
                                ws.cell_current, leakage);
    }

    case LeakageMode::kChordLinear: {
      for (std::size_t i = 0; i < cells; ++i) {
        ws.taylor[i] = power::chord_linearize(
            leakage[i], model.config().ambient, sopts.chord_t_lo,
            sopts.chord_t_hi, sopts.chord_samples);
      }
      la::Vector temps;
      if (!solve_linear(omega, ws.cell_current, ws.taylor, polish_tol, ws,
                        temps)) {
        return make_runaway_result(1);
      }
      return make_steady_result(model, std::move(temps), true, 1,
                                ws.cell_current, leakage);
    }

    case LeakageMode::kNewtonExact: {
      // Inexact Newton: intermediate linearizations only steer the outer
      // loop, so their solves run at the loose inner tolerance (warm-started
      // from the previous iterate); once the outer loop converges, one
      // polish solve at the reference tolerance produces the reported state.
      la::Vector t_ref(cells, model.config().ambient + 10.0);
      la::Vector temps;
      const double inner_tol = std::min(kInnerTolerance, polish_tol * 1e3);
      for (std::size_t it = 1; it <= sopts.max_iterations; ++it) {
        for (std::size_t i = 0; i < cells; ++i) {
          ws.taylor[i] = power::tangent_linearize(leakage[i], t_ref[i]);
        }
        if (!solve_linear(omega, ws.cell_current, ws.taylor, inner_tol, ws,
                          temps)) {
          return make_runaway_result(it);
        }
        const la::Vector chip = model.slab_temperatures(temps, Slab::kChip);
        const double diff = la::max_abs_diff(chip, t_ref);
        t_ref = chip;
        if (diff < sopts.tolerance) {
          if (inner_tol > polish_tol) {
            for (std::size_t i = 0; i < cells; ++i) {
              ws.taylor[i] = power::tangent_linearize(leakage[i], t_ref[i]);
            }
            if (!solve_linear(omega, ws.cell_current, ws.taylor, polish_tol,
                              ws, temps)) {
              return make_runaway_result(it);
            }
          }
          return make_steady_result(model, std::move(temps), true, it,
                                    ws.cell_current, leakage);
        }
      }
      const double max_chip = model.max_slab_temperature(temps, Slab::kChip);
      if (max_chip > sopts.runaway_temperature - 50.0) {
        return make_runaway_result(sopts.max_iterations);
      }
      return make_steady_result(model, std::move(temps), false,
                                sopts.max_iterations, ws.cell_current,
                                leakage);
    }
  }
  throw std::logic_error("SolveEngine: unknown leakage mode");
}

SteadyResult SolveEngine::solve(const OperatingPoint& point) const {
  Workspace ws;
  ws.cell_current.assign(assembler_.model().layout().cells_per_layer(),
                         point.current);
  return solve_point(point.omega, ws);
}

SteadyResult SolveEngine::solve_cells(double omega,
                                      const la::Vector& cell_current) const {
  if (cell_current.size() != assembler_.model().layout().cells_per_layer()) {
    throw std::invalid_argument("SolveEngine::solve_cells: arity mismatch");
  }
  Workspace ws;
  ws.cell_current = cell_current;
  return solve_point(omega, ws);
}

std::vector<SteadyResult> SolveEngine::solve_serial(
    const std::vector<OperatingPoint>& points) const {
  const std::size_t cells = assembler_.model().layout().cells_per_layer();
  std::vector<SteadyResult> results(points.size());
  Workspace ws;
  for (std::size_t i = 0; i < points.size(); ++i) {
    ws.cell_current.assign(cells, points[i].current);
    results[i] = solve_point(points[i].omega, ws);
  }
  return results;
}

std::vector<SteadyResult> SolveEngine::solve_batch(
    const std::vector<OperatingPoint>& points, util::ThreadPool& pool) const {
  const std::size_t cells = assembler_.model().layout().cells_per_layer();
  std::vector<SteadyResult> results(points.size());
  // Per-worker workspaces would need worker ids; a thread_local scratch
  // gives the same reuse without plumbing them through the pool API.
  pool.parallel_for(points.size(), [&](std::size_t i) {
    static thread_local Workspace ws;
    ws.cell_current.assign(cells, points[i].current);
    results[i] = solve_point(points[i].omega, ws);
  });
  return results;
}

std::vector<SteadyResult> SolveEngine::solve_batch(
    const std::vector<OperatingPoint>& points) const {
  {
    const std::lock_guard<std::mutex> lock(pool_mutex_);
    if (!pool_) {
      pool_ = std::make_unique<util::ThreadPool>(options_.threads);
    }
  }
  return solve_batch(points, *pool_);
}

}  // namespace oftec::thermal
