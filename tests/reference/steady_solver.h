// Reference steady-state solver: the test oracle for thermal::SolveEngine.
//
// The plain outer Newton loop of Sec. 4: re-linearize the exponential
// leakage at the current chip temperatures, assemble the full banded system
// with ThermalModel::assemble, and solve it with a fresh pivoted BandedLu —
// an exact function of each linearization, with no Krylov tolerance or warm
// start in the way. The engine agrees with it to 1e-3 K on converged points
// and on every runaway verdict.
#pragma once

#include <vector>

#include "la/vector_ops.h"
#include "power/leakage.h"
#include "thermal/model.h"
#include "thermal/steady.h"

namespace oftec::reference {

class SteadySolver {
 public:
  /// Throws std::invalid_argument on per-cell arity mismatch or a negative
  /// or non-finite dynamic power.
  SteadySolver(const thermal::ThermalModel& model, la::Vector cell_dynamic_power,
               std::vector<power::ExponentialTerm> cell_leakage,
               thermal::SteadyOptions options = {});

  /// Solve at (ω [rad/s], I [A]).
  [[nodiscard]] thermal::SteadyResult solve(double omega, double current) const;

 private:
  const thermal::ThermalModel* model_;
  la::Vector dynamic_;
  std::vector<power::ExponentialTerm> leakage_;
  thermal::SteadyOptions options_;
};

}  // namespace oftec::reference
