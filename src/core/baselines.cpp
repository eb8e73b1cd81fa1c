#include "core/baselines.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace oftec::core {

BaselineResult run_variable_fan_baseline(const CoolingSystem& fan_only_system,
                                         const OftecOptions& options) {
  if (fan_only_system.has_tec()) {
    throw std::invalid_argument(
        "run_variable_fan_baseline: expected a no-TEC system");
  }
  const OftecResult r = run_oftec(fan_only_system, options);
  BaselineResult out;
  out.success = r.success;
  out.omega = r.omega;
  out.current = 0.0;
  out.max_chip_temperature =
      r.success ? r.max_chip_temperature : r.opt2_temperature;
  out.power = r.success ? r.power : r.opt2_power;
  out.runaway = !std::isfinite(out.max_chip_temperature);
  out.opt2_omega = r.opt2_omega;
  out.opt2_temperature = r.opt2_temperature;
  out.opt2_power = r.opt2_power;
  if (!r.success) {
    out.omega = r.opt2_omega;  // best the fan could do
  }
  return out;
}

BaselineResult run_fixed_fan_baseline(const CoolingSystem& fan_only_system,
                                      double omega_fixed) {
  if (fan_only_system.has_tec()) {
    throw std::invalid_argument(
        "run_fixed_fan_baseline: expected a no-TEC system");
  }
  const Evaluation ev = fan_only_system.evaluate(omega_fixed, 0.0);
  BaselineResult out;
  out.omega = omega_fixed;
  out.current = 0.0;
  out.runaway = ev.runaway;
  out.max_chip_temperature = ev.max_chip_temperature;
  if (!ev.runaway) out.power = ev.power;
  out.success =
      !ev.runaway && ev.max_chip_temperature <= fan_only_system.t_max();
  // The fixed baseline has no optimization phases; report the same point.
  out.opt2_omega = omega_fixed;
  out.opt2_temperature = ev.max_chip_temperature;
  out.opt2_power = out.power;
  return out;
}

BaselineResult run_tec_only(const CoolingSystem& hybrid_system,
                            std::size_t current_samples) {
  if (!hybrid_system.has_tec()) {
    throw std::invalid_argument("run_tec_only: expected a hybrid system");
  }
  if (current_samples < 2) {
    throw std::invalid_argument("run_tec_only: need >= 2 samples");
  }
  BaselineResult out;
  out.omega = 0.0;
  out.max_chip_temperature = std::numeric_limits<double>::infinity();
  out.runaway = true;

  const double i_max = hybrid_system.current_max();
  for (std::size_t s = 0; s < current_samples; ++s) {
    const double current = i_max * static_cast<double>(s) /
                           static_cast<double>(current_samples - 1);
    const Evaluation ev = hybrid_system.evaluate(0.0, current);
    if (ev.runaway) continue;
    out.runaway = false;
    if (ev.max_chip_temperature < out.max_chip_temperature) {
      out.max_chip_temperature = ev.max_chip_temperature;
      out.current = current;
      out.power = ev.power;
    }
  }
  out.success = !out.runaway &&
                out.max_chip_temperature <= hybrid_system.t_max();
  out.opt2_omega = 0.0;
  out.opt2_temperature = out.max_chip_temperature;
  out.opt2_power = out.power;
  return out;
}

}  // namespace oftec::core
