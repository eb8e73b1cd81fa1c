// Transient thermal simulation (backward Euler on the RC network): the
// control, option and result types; thermal::TransientEngine
// (transient_engine.h) is the integrator.
//
// Used for the paper's Sec. 6.2 extension experiments: the Peltier effect
// responds instantly to a current step while Joule heat accumulates with the
// package RC delay, so briefly over-driving I_TEC above its steady-state
// optimum buys extra transient cooling (Ref. [8] suggests ≈ +1 A for ≈ 1 s).
// The engine integrates C·dT/dt = −M(ω,I)·T + rhs(ω,I) with the leakage
// tangent re-linearized every step (semi-implicit in the exponential).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "la/vector_ops.h"
#include "power/leakage.h"
#include "thermal/model.h"

namespace oftec::thermal {

/// Fan speed / TEC current applied at a time instant.
struct ControlSetting {
  double omega = 0.0;    ///< [rad/s]
  double current = 0.0;  ///< [A]
};

/// Control schedule: maps simulation time [s] to a setting.
using ControlSchedule = std::function<ControlSetting(double time)>;

/// Closed-loop controller: sees the current maximum chip temperature (the
/// on-die sensor reading) in addition to time. Used by the reactive
/// threshold/hysteresis controllers of Alexandrov et al. (paper ref. [5]).
using FeedbackControl =
    std::function<ControlSetting(double time, double max_chip_temperature)>;

struct TransientOptions {
  double time_step = 1e-3;   ///< [s]
  double duration = 1.0;     ///< [s]
  /// Record a sample every `record_stride` steps (1 = every step).
  std::size_t record_stride = 1;
  double runaway_temperature = 500.0;  ///< [K]
  /// Re-linearize the leakage tangent only once some chip cell has drifted
  /// more than this many kelvin from the temperatures of the previous
  /// linearization. 0 (the default) re-linearizes every step — the
  /// historical semantics. A small hold window (~0.1 K) keeps the step
  /// matrix bit-constant across quiet stretches, which is what lets
  /// TransientEngine reuse one factorization for thousands of steps; the
  /// linearization error it admits is O(β²·δ²) per cell, far below the
  /// O(dt) backward-Euler truncation error. TransientEngine honors the
  /// policy exactly as the per-step reference integrator does, so the two
  /// stay bit-equal at any setting.
  double relinearization_threshold = 0.0;  ///< [K]
};

/// Backward-Euler step plan for one horizon: `steps` steps of `time_step`
/// each, except the final step which runs `last_step` so the integration
/// lands exactly on `duration` instead of overshooting by up to one dt
/// (`ceil`-style step counts simulate past short horizons). A remainder
/// below time_step·1e-9 is treated as rounding noise and absorbed.
struct StepPlan {
  std::size_t steps = 0;
  double last_step = 0.0;  ///< dt of the final step; 0 when steps == 0
};

/// Plan a horizon. Throws std::invalid_argument unless time_step > 0 and
/// duration >= 0.
[[nodiscard]] StepPlan plan_steps(double duration, double time_step);

struct TransientSample {
  double time = 0.0;
  double max_chip_temperature = 0.0;
  double tec_power = 0.0;
  double fan_power = 0.0;
  double leakage_power = 0.0;
};

struct TransientResult {
  std::vector<TransientSample> samples;
  la::Vector final_temperatures;  ///< empty if runaway
  bool runaway = false;
  std::size_t steps = 0;
};

}  // namespace oftec::thermal
