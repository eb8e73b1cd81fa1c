// CoolingSystem: the facade the optimizers drive.
//
// Binds one workload (max dynamic-power map + leakage model) to one package
// on one floorplan, and evaluates the two quantities OFTEC's formulations
// need at a given (ω, I_TEC):
//   𝒯(ω, I) — maximum chip-layer temperature (Optimization 2 objective,
//              Optimization 1 constraint), +inf in thermal runaway;
//   𝒫(ω, I) — cooling-related power P_leakage + P_TEC + P_fan (Eq. 10).
// Evaluations are memoized: the SQP evaluates 𝒯 and 𝒫 at identical points
// (objective + constraint + finite differences), and each uncached point
// costs a full nonlinear thermal solve. prefetch() fills the memo with a
// whole finite-difference stencil as one parallel engine batch, so the
// serial gradient that follows only reads it.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "floorplan/floorplan.h"
#include "package/package_config.h"
#include "power/leakage.h"
#include "power/power_map.h"
#include "thermal/model.h"
#include "thermal/solve_engine.h"

namespace oftec::core {

/// Cooling-power breakdown (the three terms of Eq. 10).
struct CoolingBreakdown {
  double leakage = 0.0;  ///< Σ p_leak over chip cells, exact exponential [W]
  double tec = 0.0;      ///< Eq. 3 over the array [W]
  double fan = 0.0;      ///< Eq. 8 [W]

  [[nodiscard]] double total() const noexcept { return leakage + tec + fan; }
};

/// One evaluated operating point.
struct Evaluation {
  bool runaway = false;
  /// Structured solver outcome. runaway=true covers both "physically no
  /// fixed point" (kRunaway) and "the numerics failed" (kNotConverged /
  /// kNumericalError / kSingular); fallback layers branch on the distinction.
  SolveStatus status = SolveStatus::kNotConverged;
  double max_chip_temperature = 0.0;  ///< 𝒯 [K]; +inf when runaway
  CoolingBreakdown power;             ///< valid only when !runaway
  std::size_t solver_iterations = 0;

  /// 𝒫 [K]; +inf when runaway.
  [[nodiscard]] double cooling_power() const noexcept;
};

/// Convert a steady-state solve at fan speed ω into the Evaluation the
/// optimizers consume. This is the one place the 𝒯/𝒫 summary is derived
/// from a SteadyResult — CoolingSystem::evaluate and the serving layer's
/// batched path both call it, so a served response is bit-identical to a
/// direct library call.
[[nodiscard]] Evaluation make_evaluation(const thermal::ThermalModel& model,
                                         const thermal::SteadyResult& result,
                                         double omega);

class CoolingSystem {
 public:
  struct Config {
    package::PackageConfig package;  ///< default-constructed → paper_default()
    std::size_t grid_nx = 10;
    std::size_t grid_ny = 10;
    thermal::SteadyOptions steady;
    /// Options for the batched SolveEngine behind evaluate(). In particular
    /// use_iterative=false forces every linear solve through a direct
    /// banded factorization instead of warm-started CG.
    thermal::EngineOptions engine;
    std::size_t cache_limit = 1 << 14;
    /// Explicit TEC placement; empty → the paper's default policy (cover
    /// every core-majority cell).
    std::optional<std::vector<bool>> tec_coverage;

    Config() : package(package::PackageConfig::paper_default()) {}
  };

  /// The floorplan and models are copied/bound; `fp` must outlive the system.
  CoolingSystem(const floorplan::Floorplan& fp,
                const power::PowerMap& dynamic_power,
                const power::LeakageModel& leakage, Config config = {});

  /// Evaluate (memoized). ω in [0, ω_max] rad/s, I in [0, I_max] A; I must be
  /// 0 for packages without TECs.
  ///
  /// Solves run through the batched SolveEngine from a fixed initial guess,
  /// so every evaluation is a pure function of (ω, I): results are identical
  /// regardless of call order or thread count. Safe to call concurrently.
  [[nodiscard]] Evaluation evaluate(double omega, double current) const;

  /// Memoize `points` ahead of the evaluate() calls that will ask for them.
  /// Points already in the memo and duplicates are skipped; when two or more
  /// remain they are solved as one SolveEngine::solve_batch across the
  /// engine's pool. Inside another pool's parallel_for body, where the batch
  /// could only run inline, it does nothing and evaluate() solves. Each point
  /// solved counts in evaluation_count() exactly as an evaluate() miss would,
  /// and the later evaluate() reads count as cache hits. Results are the
  /// ones evaluate() would compute, bit for bit. Same range checks as
  /// evaluate(); safe to call concurrently with it.
  void prefetch(const std::vector<thermal::OperatingPoint>& points) const;

  [[nodiscard]] double t_max() const noexcept;     ///< [K]
  [[nodiscard]] double ambient() const noexcept;   ///< [K]
  [[nodiscard]] double omega_max() const noexcept; ///< [rad/s]
  [[nodiscard]] double current_max() const noexcept;  ///< [A]; 0 if no TECs
  [[nodiscard]] bool has_tec() const noexcept;

  [[nodiscard]] const thermal::ThermalModel& thermal_model() const noexcept {
    return *model_;
  }
  /// The steady solver backing evaluate() — exposed so sweeps can fan whole
  /// operating-point batches (and transient experiments can take full node
  /// temperatures) without round-tripping the memo cache.
  [[nodiscard]] const thermal::SolveEngine& engine() const noexcept {
    return *engine_;
  }
  /// Per-cell inputs (for transient experiments sharing this workload).
  [[nodiscard]] const la::Vector& cell_dynamic_power() const noexcept;
  [[nodiscard]] const std::vector<power::ExponentialTerm>& cell_leakage()
      const noexcept;

  [[nodiscard]] std::size_t evaluation_count() const noexcept {
    return solve_count_;
  }
  [[nodiscard]] std::size_t cache_hits() const noexcept { return cache_hits_; }

 private:
  /// Throws std::invalid_argument unless (ω, I) is in evaluate()'s domain.
  void check_point(double omega, double current) const;

  std::unique_ptr<thermal::ThermalModel> model_;
  std::unique_ptr<thermal::SolveEngine> engine_;
  std::size_t cache_limit_;
  mutable std::mutex mutex_;  // guards cache_ and the counters
  mutable std::map<std::pair<double, double>, Evaluation> cache_;
  mutable std::size_t solve_count_ = 0;
  mutable std::size_t cache_hits_ = 0;
};

}  // namespace oftec::core
