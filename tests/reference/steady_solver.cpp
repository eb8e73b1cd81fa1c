#include "reference/steady_solver.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "la/banded_lu.h"

namespace oftec::reference {

using thermal::LeakageMode;
using thermal::Slab;
using thermal::SteadyResult;

SteadySolver::SteadySolver(const thermal::ThermalModel& model,
                           la::Vector cell_dynamic_power,
                           std::vector<power::ExponentialTerm> cell_leakage,
                           thermal::SteadyOptions options)
    : model_(&model),
      dynamic_(std::move(cell_dynamic_power)),
      leakage_(std::move(cell_leakage)),
      options_(options) {
  const std::size_t cells = model.layout().cells_per_layer();
  if (dynamic_.size() != cells || leakage_.size() != cells) {
    throw std::invalid_argument("SteadySolver: per-cell arity mismatch");
  }
  for (const double p : dynamic_) {
    if (p < 0.0 || !std::isfinite(p)) {
      throw std::invalid_argument("SteadySolver: bad dynamic power");
    }
  }
}

SteadyResult SteadySolver::solve(double omega, double current) const {
  const std::size_t cells = model_->layout().cells_per_layer();
  const la::Vector cell_current(cells, current);
  std::vector<power::TaylorCoefficients> taylor(cells);

  auto physical = [&](const la::Vector& out) {
    for (const double t : out) {
      if (!std::isfinite(t) || t <= 0.0 || t > options_.runaway_temperature) {
        return false;
      }
    }
    return true;
  };

  auto solve_linear = [&](la::Vector& out) -> bool {
    const thermal::AssembledSystem sys =
        model_->assemble(omega, cell_current, dynamic_, taylor);
    try {
      out = la::BandedLu(sys.matrix).solve(sys.rhs);
    } catch (const std::runtime_error&) {
      return false;  // singular: leakage slope swallowed the conduction path
    }
    return physical(out);
  };

  auto finalize = [&](la::Vector temps, bool converged,
                      std::size_t iterations) {
    return thermal::make_steady_result(*model_, std::move(temps), converged,
                                       iterations, cell_current, leakage_);
  };

  switch (options_.mode) {
    case LeakageMode::kConstant: {
      for (std::size_t i = 0; i < cells; ++i) {
        taylor[i] = {0.0, leakage_[i].evaluate(model_->config().ambient),
                     model_->config().ambient};
      }
      la::Vector temps;
      if (!solve_linear(temps)) return thermal::make_runaway_result(1);
      return finalize(std::move(temps), true, 1);
    }

    case LeakageMode::kChordLinear: {
      for (std::size_t i = 0; i < cells; ++i) {
        taylor[i] = power::chord_linearize(
            leakage_[i], model_->config().ambient, options_.chord_t_lo,
            options_.chord_t_hi, options_.chord_samples);
      }
      la::Vector temps;
      if (!solve_linear(temps)) return thermal::make_runaway_result(1);
      return finalize(std::move(temps), true, 1);
    }

    case LeakageMode::kNewtonExact: {
      la::Vector t_ref(cells, model_->config().ambient + 10.0);
      la::Vector temps;
      for (std::size_t it = 1; it <= options_.max_iterations; ++it) {
        for (std::size_t i = 0; i < cells; ++i) {
          taylor[i] = power::tangent_linearize(leakage_[i], t_ref[i]);
        }
        if (!solve_linear(temps)) return thermal::make_runaway_result(it);
        const la::Vector chip = model_->slab_temperatures(temps, Slab::kChip);
        const double diff = la::max_abs_diff(chip, t_ref);
        t_ref = chip;
        if (diff < options_.tolerance) {
          return finalize(std::move(temps), true, it);
        }
      }
      // No convergence within budget: either slow drift (report best
      // effort) or a divergent runaway climb — distinguish by magnitude.
      const double max_chip =
          model_->max_slab_temperature(temps, Slab::kChip);
      if (max_chip > options_.runaway_temperature - 50.0) {
        return thermal::make_runaway_result(options_.max_iterations);
      }
      return finalize(std::move(temps), false, options_.max_iterations);
    }
  }
  throw std::logic_error("SteadySolver::solve: unknown leakage mode");
}

}  // namespace oftec::reference
