#include "core/cooling_system.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/obs.h"
#include "util/thread_pool.h"

namespace oftec::core {

namespace {

const obs::Counter g_obs_evaluations = obs::counter("cooling.evaluations");
const obs::Counter g_obs_cache_hits = obs::counter("cooling.cache_hits");
const obs::Gauge g_obs_cache_hit_rate = obs::gauge("cooling.eval_cache_hit_rate");

}  // namespace

double Evaluation::cooling_power() const noexcept {
  if (runaway) return std::numeric_limits<double>::infinity();
  return power.total();
}

Evaluation make_evaluation(const thermal::ThermalModel& model,
                           const thermal::SteadyResult& result, double omega) {
  Evaluation ev;
  ev.status = result.status;
  if (result.runaway || !result.converged) {
    ev.runaway = true;
    ev.max_chip_temperature = std::numeric_limits<double>::infinity();
  } else {
    ev.max_chip_temperature = result.max_chip_temperature;
    ev.power.leakage = result.leakage_power;
    ev.power.tec = result.tec_power;
    ev.power.fan = model.config().fan.power(omega);
  }
  ev.solver_iterations = result.iterations;
  return ev;
}

CoolingSystem::CoolingSystem(const floorplan::Floorplan& fp,
                             const power::PowerMap& dynamic_power,
                             const power::LeakageModel& leakage,
                             Config config)
    : cache_limit_(config.cache_limit) {
  // Validate the workload at the boundary: a NaN or negative watt entry
  // would otherwise surface deep inside the solver as a mysterious runaway
  // (or worse, a silently wrong answer fed to the optimizer).
  if (&dynamic_power.floorplan() != &fp) {
    throw std::invalid_argument(
        "CoolingSystem: power map is bound to a different floorplan");
  }
  if (dynamic_power.values().size() != fp.block_count()) {
    throw std::invalid_argument(
        "CoolingSystem: power map arity does not match the floorplan");
  }
  for (std::size_t b = 0; b < dynamic_power.values().size(); ++b) {
    const double w = dynamic_power.values()[b];
    if (!std::isfinite(w) || w < 0.0) {
      throw std::invalid_argument(
          "CoolingSystem: power map entry for block '" + fp.blocks()[b].name +
          "' is " + (std::isfinite(w) ? "negative" : "not finite"));
    }
  }
  model_ = std::make_unique<thermal::ThermalModel>(
      std::move(config.package), fp, config.grid_nx, config.grid_ny,
      std::move(config.tec_coverage));
  engine_ = std::make_unique<thermal::SolveEngine>(
      *model_, model_->distribute(dynamic_power), model_->cell_leakage(leakage),
      config.steady, config.engine);
}

void CoolingSystem::check_point(double omega, double current) const {
  if (!(omega >= 0.0) || omega > omega_max() * (1.0 + 1e-9)) {
    throw std::invalid_argument("CoolingSystem::evaluate: omega out of range");
  }
  if (!(current >= 0.0) || current > current_max() * (1.0 + 1e-9) ||
      (!has_tec() && current != 0.0)) {
    throw std::invalid_argument(
        "CoolingSystem::evaluate: current out of range");
  }
}

Evaluation CoolingSystem::evaluate(double omega, double current) const {
  check_point(omega, current);

  g_obs_evaluations.add();
  const auto key = std::make_pair(omega, current);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = cache_.find(key); it != cache_.end()) {
      ++cache_hits_;
      g_obs_cache_hits.add();
      if (obs::enabled()) {
        const auto total =
            static_cast<double>(cache_hits_ + solve_count_);
        if (total > 0.0) {
          g_obs_cache_hit_rate.set(static_cast<double>(cache_hits_) / total);
        }
      }
      return it->second;
    }
    if (cache_.size() >= cache_limit_) cache_.clear();
  }

  // Solve outside the lock — the engine is internally synchronized, and the
  // solve is a pure function of (ω, I), so concurrent duplicate solves of
  // the same point produce identical Evaluations.
  const thermal::SteadyResult sr = engine_->solve({omega, current});
  Evaluation ev = make_evaluation(*model_, sr, omega);

  const std::lock_guard<std::mutex> lock(mutex_);
  ++solve_count_;
  cache_.emplace(key, ev);
  return ev;
}

void CoolingSystem::prefetch(
    const std::vector<thermal::OperatingPoint>& points) const {
  for (const thermal::OperatingPoint& p : points) {
    check_point(p.omega, p.current);
  }
  std::vector<thermal::OperatingPoint> misses;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const thermal::OperatingPoint& p : points) {
      const bool queued = std::any_of(
          misses.begin(), misses.end(), [&](const thermal::OperatingPoint& m) {
            return m.omega == p.omega && m.current == p.current;
          });
      if (!queued && cache_.count({p.omega, p.current}) == 0) {
        misses.push_back(p);
      }
    }
  }
  // A lone miss gains nothing from the pool, and inside another pool's body
  // (LUT construction, a Pareto sweep) the batch could only run inline —
  // while creating this engine's pool would spawn idle threads per system.
  // evaluate() solves such points as they are read.
  if (misses.size() < 2 || util::ThreadPool::inside_parallel_body()) return;

  OBS_SPAN("cooling.prefetch");
  const std::vector<thermal::SteadyResult> results =
      engine_->solve_batch(misses);

  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < misses.size(); ++i) {
    g_obs_evaluations.add();
    ++solve_count_;
    if (cache_.size() >= cache_limit_) cache_.clear();
    cache_.emplace(std::make_pair(misses[i].omega, misses[i].current),
                   make_evaluation(*model_, results[i], misses[i].omega));
  }
}

double CoolingSystem::t_max() const noexcept { return model_->config().t_max; }

double CoolingSystem::ambient() const noexcept {
  return model_->config().ambient;
}

double CoolingSystem::omega_max() const noexcept {
  return model_->config().fan.max_speed;
}

double CoolingSystem::current_max() const noexcept {
  return has_tec() ? model_->config().tec.max_current : 0.0;
}

bool CoolingSystem::has_tec() const noexcept {
  return model_->tec_array() != nullptr;
}

const la::Vector& CoolingSystem::cell_dynamic_power() const noexcept {
  return engine_->cell_dynamic_power();
}

const std::vector<power::ExponentialTerm>& CoolingSystem::cell_leakage()
    const noexcept {
  return engine_->cell_leakage();
}

}  // namespace oftec::core
