#include "opt/finite_diff.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace oftec::opt {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

[[nodiscard]] double step_for(const la::Vector& x, const Bounds& bounds,
                              const FiniteDiffOptions& options,
                              std::size_t i) {
  double floor_i = bounds.upper[i] - bounds.lower[i];
  if (!options.scale_floor.empty()) floor_i = options.scale_floor[i];
  return options.step_rel * std::max(std::abs(x[i]), floor_i);
}

}  // namespace

std::vector<la::Vector> central_stencil(const la::Vector& x,
                                        const Bounds& bounds,
                                        const FiniteDiffOptions& options) {
  std::vector<la::Vector> points;
  points.reserve(2 * x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double h = step_for(x, bounds, options, i);
    if (h <= 0.0) {
      throw std::invalid_argument("central_stencil: degenerate step");
    }
    la::Vector xp = x;
    la::Vector xm = x;
    xp[i] = std::min(x[i] + h, bounds.upper[i]);
    xm[i] = std::max(x[i] - h, bounds.lower[i]);
    if (xp[i] - x[i] > 0.0) points.push_back(std::move(xp));
    if (x[i] - xm[i] > 0.0) points.push_back(std::move(xm));
  }
  return points;
}

la::Vector gradient(const ScalarFn& f, const la::Vector& x,
                    const Bounds& bounds, const FiniteDiffOptions& options,
                    std::size_t* eval_count) {
  const std::size_t n = x.size();
  const std::vector<la::Vector> stencil = central_stencil(x, bounds, options);
  la::Vector grad(n, 0.0);
  double f0 = kInf;  // computed on demand
  bool have_f0 = false;
  auto eval = [&](const la::Vector& p) {
    if (eval_count != nullptr) ++(*eval_count);
    return f(p);
  };
  auto get_f0 = [&]() {
    if (!have_f0) {
      f0 = eval(x);
      have_f0 = true;
    }
    return f0;
  };

  // Walk the stencil in order: coordinate i's samples are the next points
  // whose i-th entry lies above (forward) or below (backward) x[i].
  std::size_t next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    double fp = kInf;
    double fm = kInf;
    double hp = 0.0;
    double hm = 0.0;
    if (next < stencil.size() && stencil[next][i] > x[i]) {
      hp = stencil[next][i] - x[i];
      fp = eval(stencil[next++]);
    }
    if (next < stencil.size() && stencil[next][i] < x[i]) {
      hm = x[i] - stencil[next][i];
      fm = eval(stencil[next++]);
    }

    if (std::isfinite(fp) && std::isfinite(fm)) {
      grad[i] = (fp - fm) / (hp + hm);
    } else if (std::isfinite(fp)) {
      grad[i] = (fp - get_f0()) / hp;  // one-sided forward
    } else if (std::isfinite(fm)) {
      grad[i] = (get_f0() - fm) / hm;  // one-sided backward
    } else {
      grad[i] = kInf;  // surrounded by runaway — caller must handle
    }
    if (!std::isfinite(get_f0())) grad[i] = kInf;
  }
  return grad;
}

la::DenseMatrix hessian(const ScalarFn& f, const la::Vector& x,
                        const Bounds& bounds, const FiniteDiffOptions& options,
                        std::size_t* eval_count) {
  const std::size_t n = x.size();
  la::DenseMatrix h_matrix(n, n);
  const la::Vector g0 = gradient(f, x, bounds, options, eval_count);

  for (std::size_t j = 0; j < n; ++j) {
    const double h = step_for(x, bounds, options, j);
    la::Vector xj = x;
    // Step toward the interior so the perturbed gradient stays in-box.
    const bool forward = x[j] + h <= bounds.upper[j];
    xj[j] = forward ? x[j] + h : std::max(x[j] - h, bounds.lower[j]);
    const double hj = xj[j] - x[j];
    if (hj == 0.0) continue;
    const la::Vector gj = gradient(f, xj, bounds, options, eval_count);
    for (std::size_t i = 0; i < n; ++i) {
      const double d = (gj[i] - g0[i]) / hj;
      h_matrix(i, j) = std::isfinite(d) ? d : 0.0;
    }
  }
  // Symmetrize.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double avg = 0.5 * (h_matrix(i, j) + h_matrix(j, i));
      h_matrix(i, j) = avg;
      h_matrix(j, i) = avg;
    }
  }
  return h_matrix;
}

}  // namespace oftec::opt
