// Reference transient integrator: the bit-identity oracle for
// thermal::TransientEngine.
//
// Backward Euler on the RC network, written the textbook way: every step
// tangent-linearizes the leakage (held while the chip drifts less than
// TransientOptions::relinearization_threshold), assembles the full banded
// system with ThermalModel::assemble, adds C/dt, and solves it with a fresh
// pivoted BandedLu. TransientEngine must reproduce its TransientResults bit
// for bit; the transient benches also time the engine against it.
#pragma once

#include <vector>

#include "la/vector_ops.h"
#include "power/leakage.h"
#include "thermal/model.h"
#include "thermal/transient.h"

namespace oftec::reference {

class TransientSolver {
 public:
  /// Throws std::invalid_argument on per-cell arity mismatch or bad options
  /// (time_step <= 0, duration < 0, record_stride == 0, negative
  /// relinearization threshold).
  TransientSolver(const thermal::ThermalModel& model,
                  la::Vector cell_dynamic_power,
                  std::vector<power::ExponentialTerm> cell_leakage,
                  thermal::TransientOptions options = {});

  /// Integrate from `initial_temperatures` (all nodes) under the given
  /// control schedule.
  [[nodiscard]] thermal::TransientResult run(
      const thermal::ControlSchedule& control,
      const la::Vector& initial_temperatures) const;

  /// Closed-loop variant: the controller is consulted every step with the
  /// current max chip temperature.
  [[nodiscard]] thermal::TransientResult run_closed_loop(
      const thermal::FeedbackControl& control,
      const la::Vector& initial_temperatures) const;

  /// All-nodes-at-ambient initial condition.
  [[nodiscard]] la::Vector ambient_state() const;

 private:
  const thermal::ThermalModel* model_;
  la::Vector dynamic_;
  std::vector<power::ExponentialTerm> leakage_;
  thermal::TransientOptions options_;
};

}  // namespace oftec::reference
