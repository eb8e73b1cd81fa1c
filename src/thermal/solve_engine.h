// Steady-state solve engine: the library's one steady thermal solver — the
// "thermal simulator" box of the paper's Fig. 5 evaluation flow.
//
// OFTEC's optimizer, every baseline controller, the Fig. 6 surface sweeps,
// the Pareto front, LUT construction, TEC placement and the DTM loop's
// initial state all reduce to evaluating the same nonlinear steady-state
// system at many independent operating points (ω, I_TEC). The engine binds
// one model and one workload (per-cell dynamic power + leakage terms) and
// gets its throughput from three levers:
//
//   1. Incremental assembly — the matrix's operating-point dependence is
//      diagonal-only, so the static network is assembled once and each
//      point's system is a value-copy plus ~4 diagonal stamp groups
//      (thermal::IncrementalAssembler).
//   2. Warm-started inexact Newton — Krylov solves inside the Newton loop
//      start from the previous iterate and run at a loose tolerance until
//      the outer loop converges, then a final polish solve tightens the
//      result to SteadyOptions::iterative_tolerance.
//   3. One symbolic analysis — direct solves (near thermal runaway, or when
//      use_iterative is off) factor each linearized system afresh with a
//      banded Cholesky bound to a symbolic analysis done once per package
//      stack, falling back to pivoted LU when the matrix is not SPD. No
//      factor outlives its solve: Newton re-linearizes leakage at every
//      iterate, so the matrix's bits change within a point, and
//      CoolingSystem's (ω, I) memo answers exact revisits across points.
//
// SolveBatch fans points across a work-stealing thread pool (util/): every
// point is computed independently from the same deterministic initial guess,
// so the batched result vector is identical — exact, bit-for-bit — to the
// serial reference path at any thread count (enforced by
// tests/thermal/test_batched_vs_serial.cpp).
//
// Thread-safety contract: solve()/solve_batch() are const and safe to call
// concurrently; every solve works on its own workspace and factors, and the
// statistics are relaxed atomics.
// The ThermalModel must outlive the engine and is never mutated.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "la/split_cholesky.h"
#include "thermal/steady.h"
#include "util/thread_pool.h"

namespace oftec::thermal {

/// One independent evaluation request: shared TEC current at fan speed ω.
struct OperatingPoint {
  double omega = 0.0;    ///< fan speed [rad/s]
  double current = 0.0;  ///< TEC driving current [A]
};

struct EngineOptions {
  /// Worker threads for solve_batch(); 0 → OFTEC_THREADS env or hardware
  /// concurrency (util::ThreadPool::default_thread_count()).
  std::size_t threads = 0;
  /// Try warm-started CG before the direct path. Off → every linear solve
  /// is a direct banded factorization.
  bool use_iterative = true;
};

/// Point-in-time snapshot of the engine's internally-atomic counters.
/// stats() may be called concurrently with solves; the snapshot is
/// per-counter consistent (each field is a single relaxed load, so totals
/// from an in-flight solve may be partially visible — never torn).
/// reset_stats() zeroes the accumulators: counters observed afterwards
/// belong to the new epoch, and in-flight solves split their increments
/// across the boundary. The same counters are mirrored into the process-wide
/// oftec::obs registry (when enabled) under the "solve_engine." prefix.
struct EngineStats {
  std::size_t points = 0;           ///< operating points evaluated
  std::size_t linear_solves = 0;    ///< linear systems solved (Newton iters)
  std::size_t cg_iterations = 0;    ///< total Krylov iterations
  std::size_t direct_fallbacks = 0; ///< solves that needed the direct path
                                    ///< (one fresh factorization each)
};

class SolveEngine {
 public:
  /// Binds one model to one workload. `steady` sets the leakage mode,
  /// tolerances and runaway threshold; `options` the execution strategy.
  /// Throws std::invalid_argument unless both per-cell vectors have
  /// cells_per_layer entries and every dynamic power is finite and >= 0.
  SolveEngine(const ThermalModel& model, la::Vector cell_dynamic_power,
              std::vector<power::ExponentialTerm> cell_leakage,
              SteadyOptions steady = {}, EngineOptions options = {});

  SolveEngine(const SolveEngine&) = delete;
  SolveEngine& operator=(const SolveEngine&) = delete;

  [[nodiscard]] const la::Vector& cell_dynamic_power() const noexcept {
    return assembler_.cell_dynamic_power();
  }
  [[nodiscard]] const std::vector<power::ExponentialTerm>& cell_leakage()
      const noexcept {
    return leakage_;
  }
  [[nodiscard]] const EngineOptions& options() const noexcept {
    return options_;
  }

  /// Evaluate one operating point (thread-safe, deterministic).
  [[nodiscard]] SteadyResult solve(const OperatingPoint& point) const;

  /// Multi-zone variant: an independent driving current per cell (entries
  /// for uncovered cells are ignored). Same determinism guarantees as
  /// solve().
  [[nodiscard]] SteadyResult solve_cells(double omega,
                                         const la::Vector& cell_current) const;

  /// Reference serial path: solve() per point, in order, on the caller's
  /// thread. Batched execution must match this exactly.
  [[nodiscard]] std::vector<SteadyResult> solve_serial(
      const std::vector<OperatingPoint>& points) const;

  /// Fan the batch across the engine's pool (created lazily from
  /// options().threads). Results are ordered by input index.
  [[nodiscard]] std::vector<SteadyResult> solve_batch(
      const std::vector<OperatingPoint>& points) const;

  /// Same, on a caller-provided pool.
  [[nodiscard]] std::vector<SteadyResult> solve_batch(
      const std::vector<OperatingPoint>& points, util::ThreadPool& pool) const;

  [[nodiscard]] EngineStats stats() const;

  /// Zero the stats accumulators (see EngineStats for epoch semantics).
  void reset_stats() const;

 private:
  struct Workspace;

  /// Core path: ws.cell_current must already hold the per-cell currents.
  [[nodiscard]] SteadyResult solve_point(double omega, Workspace& ws) const;
  [[nodiscard]] SteadyResult solve_point_impl(double omega,
                                              Workspace& ws) const;
  /// Solve one linearized system; false → singular/runaway indication.
  [[nodiscard]] bool solve_linear(
      double omega, const la::Vector& cell_current,
      const std::vector<power::TaylorCoefficients>& taylor, double tolerance,
      Workspace& ws, la::Vector& out) const;
  [[nodiscard]] bool solve_direct(
      double omega, const la::Vector& cell_current,
      const std::vector<power::TaylorCoefficients>& taylor, Workspace& ws,
      la::Vector& out) const;
  [[nodiscard]] bool physical(const la::Vector& temperatures) const;

  SteadyOptions steady_;
  EngineOptions options_;
  IncrementalAssembler assembler_;
  std::vector<power::ExponentialTerm> leakage_;
  std::shared_ptr<const la::BandedCholeskySymbolic> symbolic_;
  // EngineStats accumulators.
  mutable std::atomic<std::size_t> points_{0};
  mutable std::atomic<std::size_t> linear_solves_{0};
  mutable std::atomic<std::size_t> cg_iterations_{0};
  mutable std::atomic<std::size_t> direct_fallbacks_{0};
  mutable std::unique_ptr<util::ThreadPool> pool_;  // lazy
  mutable std::mutex pool_mutex_;
};

}  // namespace oftec::thermal
