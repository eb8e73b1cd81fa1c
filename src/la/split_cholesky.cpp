// Panel-blocked banded Cholesky.
//
// Storage: the factor is column-major banded — column j occupies
// factor[j*(k+1) .. j*(k+1)+k], diagonal first, i.e. L(i,j) lives at
// factor[j*(k+1) + (i-j)] for 0 ≤ i−j ≤ k. Each column is contiguous in
// memory, which is what lets the panel kernels stream whole columns.
//
// Algorithm: left-looking by destination column. Column j receives, from
// every finalized source column m ∈ [j−k, j),
//     colj[r−j] += (−L(j,m)) · L(r,m)        for r = j .. min(n−1, m+k),
// applied in ascending m, and is then finalized (√diag, divide the
// sub-diagonal). Per destination *element* this is exactly the seed's
// sequential fold  acc −= L(i,m)·L(j,m)  in the same m order — (−a)·b is
// exactly −(a·b), x+(−p) ≡ x−p, and multiplication commutes — so the scalar
// backend reproduces the seed factor bit for bit. Every operation is
// element-wise (panel_update, axpy, divide), so the simd backends produce
// the *same* bits as scalar: the factorization is backend-invariant.
//
// Blocking: destination panels of kDestPanel columns; external sources
// stream through panel_update in blocks of kSrcBlock columns (block outer,
// destination column inner, so a ~(k·kSrcBlock)-double source block stays in
// cache across the whole panel). Sources inside the panel are applied
// per-column during finalization (at most kDestPanel−1 of them).
#include "la/split_cholesky.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "la/backend.h"
#include "util/obs.h"

namespace oftec::la {

namespace {

const obs::Counter g_obs_refactorizations =
    obs::counter("la.cholesky.refactorizations");

constexpr std::size_t kCholDestPanel = 16;
constexpr std::size_t kCholSrcBlock = 32;

/// Factor an SPD band matrix in place. `factor` is column-major banded
/// (layout above) and holds the lower band of A on entry, L on return.
/// Returns min_j L(j,j). Throws std::runtime_error on a non-positive pivot.
double factor_inplace(std::size_t n, std::size_t k, double* factor,
                      const BackendOps& ops) {
  const std::size_t stride = k + 1;
  double min_diag = std::numeric_limits<double>::infinity();

  const double* xs[kCholSrcBlock];
  double alpha[kCholSrcBlock];
  std::size_t lens[kCholSrcBlock];

  for (std::size_t j0 = 0; j0 < n; j0 += kCholDestPanel) {
    const std::size_t j1 = std::min(n, j0 + kCholDestPanel);

    // External sources m < j0, in ascending blocks. Block outer / dest
    // inner keeps the source block hot across the panel; per destination
    // element the sources still apply in ascending m.
    const std::size_t m_lo0 = j0 > k ? j0 - k : 0;
    for (std::size_t mb = m_lo0; mb < j0; mb += kCholSrcBlock) {
      const std::size_t p = std::min(j0, mb + kCholSrcBlock) - mb;
      for (std::size_t j = j0; j < j1; ++j) {
        bool any = false;
        for (std::size_t s = 0; s < p; ++s) {
          const std::size_t m = mb + s;
          const double* colm = factor + m * stride;
          if (m + k < j) {  // column m's band ends above row j
            alpha[s] = 0.0;
            xs[s] = colm;
            lens[s] = 0;
            continue;
          }
          alpha[s] = -colm[j - m];
          xs[s] = colm + (j - m);
          lens[s] = std::min(n - 1, m + k) - j + 1;
          any = true;
        }
        if (any) ops.panel_update(p, alpha, xs, lens, factor + j * stride);
      }
    }

    // Finalize the panel left-looking: apply the (≤ kCholDestPanel−1)
    // in-panel sources, then pivot.
    for (std::size_t j = j0; j < j1; ++j) {
      double* colj = factor + j * stride;
      const std::size_t m_lo = j > k ? j - k : 0;
      for (std::size_t m = std::max(m_lo, j0); m < j; ++m) {
        const double* colm = factor + m * stride;
        ops.axpy(std::min(n - 1, m + k) - j + 1, -colm[j - m], colm + (j - m),
                 colj);
      }
      const double diag = colj[0];
      if (!(diag > 0.0)) {
        throw std::runtime_error(
            "BandedCholeskyNumeric: matrix not positive definite");
      }
      const double ljj = std::sqrt(diag);
      colj[0] = ljj;
      min_diag = std::min(min_diag, ljj);
      const std::size_t sub = std::min(k, n - 1 - j);
      for (std::size_t r = 1; r <= sub; ++r) colj[r] /= ljj;
    }
  }
  return min_diag;
}

/// Copy the lower band of `a` into column-major banded storage (zero-filled
/// beyond the matrix edge).
void fill_lower_band(const BandedMatrix& a, std::size_t n, std::size_t k,
                     double* factor) {
  for (std::size_t j = 0; j < n; ++j) {
    double* colj = factor + j * (k + 1);
    const std::size_t i_hi = std::min(n - 1, j + k);
    for (std::size_t i = j; i <= i_hi; ++i) colj[i - j] = a.get(i, j);
  }
}

}  // namespace

BandedCholeskySymbolic::BandedCholeskySymbolic(std::size_t n,
                                               std::size_t bandwidth)
    : n_(n), k_(bandwidth) {
  if (n == 0) {
    throw std::invalid_argument("BandedCholeskySymbolic: empty matrix");
  }
}

BandedCholeskySymbolic BandedCholeskySymbolic::analyze(const BandedMatrix& a) {
  if (a.lower_bandwidth() != a.upper_bandwidth()) {
    throw std::invalid_argument(
        "BandedCholeskySymbolic: matrix must have symmetric bandwidths");
  }
  return {a.size(), a.lower_bandwidth()};
}

bool BandedCholeskySymbolic::matches(const BandedMatrix& a) const noexcept {
  return a.size() == n_ && a.lower_bandwidth() == k_ &&
         a.upper_bandwidth() == k_;
}

BandedCholeskyNumeric::BandedCholeskyNumeric(
    std::shared_ptr<const BandedCholeskySymbolic> symbolic)
    : symbolic_(std::move(symbolic)) {
  if (!symbolic_) {
    throw std::invalid_argument("BandedCholeskyNumeric: null symbolic");
  }
  factor_.assign(symbolic_->factor_storage(), 0.0);
}

void BandedCholeskyNumeric::refactorize(const BandedMatrix& a) {
  if (!symbolic_->matches(a)) {
    throw std::invalid_argument(
        "BandedCholeskyNumeric::refactorize: structure mismatch");
  }
  const std::size_t n = symbolic_->size();
  const std::size_t k = symbolic_->bandwidth();
  g_obs_refactorizations.add();
  factorized_ = false;
  factor_.assign(symbolic_->factor_storage(), 0.0);

  // Into reused storage; backend-invariant bits, since every operation of
  // the factorization is element-wise.
  fill_lower_band(a, n, k, factor_.data());
  min_diag_ = factor_inplace(n, k, factor_.data(), backend());
  factorized_ = true;
}

Vector BandedCholeskyNumeric::solve(const Vector& b) const {
  if (!factorized_) {
    throw std::logic_error("BandedCholeskyNumeric::solve: no valid factor");
  }
  const std::size_t n = symbolic_->size();
  const std::size_t k = symbolic_->bandwidth();
  if (b.size() != n) {
    throw std::invalid_argument("BandedCholeskyNumeric::solve: size mismatch");
  }
  const BackendOps& ops = backend();
  Vector x = b;
  ops.trsv_fwd(n, k, factor_.data(), x.data());
  ops.trsv_bwd(n, k, factor_.data(), x.data());
  return x;
}

}  // namespace oftec::la
