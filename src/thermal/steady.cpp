#include "thermal/steady.h"

#include <utility>

namespace oftec::thermal {

SteadyResult make_runaway_result(std::size_t iterations, SolveStatus status) {
  SteadyResult res;
  res.runaway = true;
  res.status = status;
  res.iterations = iterations;
  return res;
}

SteadyResult make_steady_result(
    const ThermalModel& model, la::Vector temperatures, bool converged,
    std::size_t iterations, const la::Vector& cell_current,
    const std::vector<power::ExponentialTerm>& cell_leakage) {
  SteadyResult res;
  res.temperatures = std::move(temperatures);
  res.converged = converged;
  res.status = converged ? SolveStatus::kOk : SolveStatus::kNotConverged;
  res.iterations = iterations;
  res.chip_temperatures =
      model.slab_temperatures(res.temperatures, Slab::kChip);
  res.cold_side_temperatures =
      model.slab_temperatures(res.temperatures, Slab::kTecAbs);
  res.hot_side_temperatures =
      model.slab_temperatures(res.temperatures, Slab::kTecRej);
  res.max_chip_temperature = la::max_element_value(res.chip_temperatures);
  res.leakage_power = model.leakage_power(res.temperatures, cell_leakage);
  res.tec_power = model.tec_power(res.temperatures, cell_current);
  return res;
}

}  // namespace oftec::thermal
