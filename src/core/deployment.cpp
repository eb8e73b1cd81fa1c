#include "core/deployment.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "floorplan/grid_map.h"
#include "thermal/model.h"
#include "thermal/solve_engine.h"

namespace oftec::core {

namespace {

struct PlacementEval {
  bool runaway = false;
  double max_chip_temperature = 0.0;
  la::Vector chip_temperatures;
};

PlacementEval evaluate_placement(const floorplan::Floorplan& fp,
                              const power::PowerMap& dynamic_power,
                              const power::LeakageModel& leakage,
                              const DeploymentOptions& options,
                              const std::vector<bool>& coverage,
                              std::size_t& evaluations) {
  const thermal::ThermalModel model(options.system.package, fp,
                                    options.system.grid_nx,
                                    options.system.grid_ny, coverage);
  const thermal::SteadyResult r =
      thermal::SolveEngine(model, model.distribute(dynamic_power),
                           model.cell_leakage(leakage), options.system.steady,
                           options.system.engine)
          .solve({options.omega, options.current});
  ++evaluations;
  PlacementEval out;
  out.runaway = r.runaway || !r.converged;
  if (!out.runaway) {
    out.max_chip_temperature = r.max_chip_temperature;
    out.chip_temperatures = r.chip_temperatures;
  }
  return out;
}

}  // namespace

DeploymentResult optimize_deployment(const floorplan::Floorplan& fp,
                                     const power::PowerMap& dynamic_power,
                                     const power::LeakageModel& leakage,
                                     const DeploymentOptions& options) {
  const std::size_t nx = options.system.grid_nx;
  const std::size_t ny = options.system.grid_ny;
  const floorplan::GridMap grid(fp, nx, ny);
  const std::size_t cells = grid.cell_count();

  std::vector<bool> candidate(cells, false);
  std::size_t candidate_count = 0;
  for (std::size_t cell = 0; cell < cells; ++cell) {
    if (!options.core_cells_only ||
        grid.kind_fraction(cell, floorplan::UnitKind::kCore) >= 0.5) {
      candidate[cell] = true;
      ++candidate_count;
    }
  }
  if (candidate_count == 0) {
    throw std::invalid_argument("optimize_deployment: no candidate cells");
  }

  DeploymentResult result;
  std::vector<bool> coverage(cells, false);

  PlacementEval current = evaluate_placement(fp, dynamic_power, leakage, options,
                                          coverage, result.evaluations);
  if (current.runaway) {
    throw std::invalid_argument(
        "optimize_deployment: operating point is in thermal runaway even "
        "before placement");
  }
  result.baseline_temperature = current.max_chip_temperature;
  result.coverage = coverage;
  result.covered_cells = 0;
  result.max_chip_temperature = current.max_chip_temperature;

  const std::size_t budget =
      options.max_cells == 0 ? candidate_count : options.max_cells;
  std::size_t since_best = 0;

  while (result.steps.size() < budget && since_best < options.patience) {
    // Hottest uncovered candidate cell under the current placement.
    std::size_t hottest = cells;
    double hottest_temp = -std::numeric_limits<double>::infinity();
    for (std::size_t cell = 0; cell < cells; ++cell) {
      if (!candidate[cell] || coverage[cell]) continue;
      if (current.chip_temperatures[cell] > hottest_temp) {
        hottest_temp = current.chip_temperatures[cell];
        hottest = cell;
      }
    }
    if (hottest == cells) break;  // all candidates covered

    coverage[hottest] = true;
    const PlacementEval next = evaluate_placement(
        fp, dynamic_power, leakage, options, coverage, result.evaluations);
    if (next.runaway) {
      // Over-driving this placement diverges — definitely past the optimum.
      coverage[hottest] = false;
      break;
    }
    current = next;
    result.steps.push_back({hottest, next.max_chip_temperature});

    if (next.max_chip_temperature < result.max_chip_temperature) {
      result.max_chip_temperature = next.max_chip_temperature;
      result.coverage = coverage;
      result.covered_cells = result.steps.size();
      since_best = 0;
    } else {
      ++since_best;
    }
  }

  return result;
}

}  // namespace oftec::core
