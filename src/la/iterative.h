// Jacobi-preconditioned conjugate gradient.
//
// Every operating-point term of the steady thermal system — the fan's sink
// conductance, the leakage slope and the TEC Peltier terms ±α·I — lands on
// the diagonal, so the matrix stays symmetric, and it is positive definite
// away from thermal runaway. thermal::SolveEngine therefore tries CG first
// and falls back to a direct banded factorization only when CG does not
// converge (an indefinite system near runaway).
#pragma once

#include <cstddef>

#include "la/sparse.h"
#include "la/vector_ops.h"

namespace oftec::la {

/// Result of an iterative solve.
struct IterativeResult {
  Vector x;                 ///< solution (last iterate if not converged)
  bool converged = false;   ///< residual tolerance reached
  std::size_t iterations = 0;
  double residual_norm = 0.0;  ///< final ‖b − A·x‖₂
};

/// Reusable scratch for solve_cg. A caller that solves in a loop (the
/// steady-state Newton iteration, transient stepping) passes one of these
/// via IterativeOptions so the four iteration vectors are allocated once and
/// recycled; results are bit-identical with or without it.
struct CgWorkspace {
  Vector r;   ///< residual
  Vector z;   ///< preconditioned residual
  Vector p;   ///< search direction
  Vector ap;  ///< A·p
};

/// Options for solve_cg.
struct IterativeOptions {
  double tolerance = 1e-10;      ///< relative residual target ‖r‖/‖b‖
  std::size_t max_iterations = 0;  ///< 0 → 10·n
  bool jacobi_precondition = true;
  /// Optional warm start (must have size n when set). Krylov iterations then
  /// run on the residual system, which cuts the iteration count sharply when
  /// the guess is close — e.g. successive Newton linearizations of the
  /// steady-state thermal system. Not owned; must outlive the call.
  const Vector* initial_guess = nullptr;
  /// Optional scratch reused across solve_cg calls. Not owned; must outlive
  /// the call.
  CgWorkspace* workspace = nullptr;
};

/// Preconditioned conjugate gradient; caller asserts A is SPD.
[[nodiscard]] IterativeResult solve_cg(const CsrMatrix& a, const Vector& b,
                                       const IterativeOptions& opts = {});

}  // namespace oftec::la
