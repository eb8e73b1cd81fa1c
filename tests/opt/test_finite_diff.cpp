#include "opt/finite_diff.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace oftec::opt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Bounds box(double lo, double hi, std::size_t n) {
  Bounds b;
  b.lower.assign(n, lo);
  b.upper.assign(n, hi);
  return b;
}

TEST(FiniteDiff, QuadraticGradientIsAccurate) {
  const ScalarFn f = [](const la::Vector& x) {
    return x[0] * x[0] + 3.0 * x[1] * x[1] + x[0] * x[1];
  };
  const la::Vector x = {1.0, -2.0};
  FiniteDiffOptions opts;
  opts.step_rel = 1e-5;
  const la::Vector g = gradient(f, x, box(-10.0, 10.0, 2), opts);
  EXPECT_NEAR(g[0], 2.0 * 1.0 + (-2.0), 1e-5);
  EXPECT_NEAR(g[1], 6.0 * (-2.0) + 1.0, 1e-5);
}

TEST(FiniteDiff, CountsEvaluations) {
  std::size_t count = 0;
  const ScalarFn f = [](const la::Vector& x) { return x[0]; };
  FiniteDiffOptions opts;
  (void)gradient(f, {0.5}, box(0.0, 1.0, 1), opts, &count);
  EXPECT_GE(count, 2u);
}

TEST(FiniteDiff, FallsBackToOneSidedAtInfSamples) {
  // f is +inf for x < 0.5 — the gradient at 0.5 must still be computed from
  // the finite side.
  const ScalarFn f = [](const la::Vector& x) {
    return x[0] < 0.5 ? kInf : 2.0 * x[0];
  };
  FiniteDiffOptions opts;
  opts.step_rel = 1e-4;
  const la::Vector g = gradient(f, {0.5}, box(0.0, 1.0, 1), opts);
  EXPECT_NEAR(g[0], 2.0, 1e-4);
}

TEST(FiniteDiff, ClampsStepsAtBounds) {
  // At the upper bound only the backward sample is available.
  const ScalarFn f = [](const la::Vector& x) { return -3.0 * x[0]; };
  FiniteDiffOptions opts;
  const la::Vector g = gradient(f, {1.0}, box(0.0, 1.0, 1), opts);
  EXPECT_NEAR(g[0], -3.0, 1e-6);
}

TEST(FiniteDiff, AllInfGivesInfGradient) {
  const ScalarFn f = [](const la::Vector&) { return kInf; };
  const la::Vector g = gradient(f, {0.5}, box(0.0, 1.0, 1), {});
  EXPECT_TRUE(std::isinf(g[0]));
}

TEST(FiniteDiff, HessianOfQuadraticIsExact) {
  const ScalarFn f = [](const la::Vector& x) {
    return 2.0 * x[0] * x[0] + 0.5 * x[1] * x[1] - x[0] * x[1];
  };
  FiniteDiffOptions opts;
  opts.step_rel = 1e-4;
  const la::DenseMatrix h = hessian(f, {0.3, 0.7}, box(-5.0, 5.0, 2), opts);
  EXPECT_NEAR(h(0, 0), 4.0, 1e-3);
  EXPECT_NEAR(h(1, 1), 1.0, 1e-3);
  EXPECT_NEAR(h(0, 1), -1.0, 1e-3);
  EXPECT_NEAR(h(0, 1), h(1, 0), 1e-12);  // symmetrized
}

TEST(FiniteDiff, ScaleFloorOverridesBoxWidth) {
  std::size_t count = 0;
  double seen_step = 0.0;
  const ScalarFn f = [&](const la::Vector& x) {
    seen_step = std::max(seen_step, std::abs(x[0] - 0.5));
    return x[0];
  };
  FiniteDiffOptions opts;
  opts.step_rel = 1e-2;
  opts.scale_floor = {10.0};
  (void)gradient(f, {0.5}, box(0.0, 1.0, 1), opts, &count);
  // Step = 1e-2 · 10 = 0.1, clamped to the bound distance 0.5.
  EXPECT_NEAR(seen_step, 0.1, 1e-12);
}

/// Wraps a ScalarFn and records every point it is asked for.
struct Recorder {
  ScalarFn f;
  std::vector<la::Vector> seen;

  [[nodiscard]] ScalarFn fn() {
    return [this](const la::Vector& x) {
      seen.push_back(x);
      return f(x);
    };
  }
};

/// gradient() must sample exactly central_stencil(x), in order, plus `x`
/// itself once (its finiteness guards every entry; it also anchors the
/// one-sided fallbacks).
void expect_samples_are_stencil_plus_x(const ScalarFn& f, const la::Vector& x,
                                       const Bounds& bounds,
                                       const FiniteDiffOptions& opts) {
  Recorder rec{f, {}};
  std::size_t count = 0;
  (void)gradient(rec.fn(), x, bounds, opts, &count);
  EXPECT_EQ(count, rec.seen.size());

  std::vector<la::Vector> without_x;
  std::size_t x_visits = 0;
  for (const la::Vector& p : rec.seen) {
    if (p == x) {
      ++x_visits;
    } else {
      without_x.push_back(p);
    }
  }
  EXPECT_EQ(x_visits, 1u);
  EXPECT_EQ(without_x, central_stencil(x, bounds, opts));
}

TEST(FiniteDiff, StencilIsScaledCentralPairsInside) {
  FiniteDiffOptions opts;
  opts.step_rel = 1e-2;
  const Bounds b = box(0.0, 2.0, 2);
  const la::Vector x = {0.5, 1.5};
  const std::vector<la::Vector> s = central_stencil(x, b, opts);
  // h_i = step_rel · max(|x_i|, box width) = 0.02 for both coordinates.
  const std::vector<la::Vector> expected = {
      {0.5 + 0.02, 1.5}, {0.5 - 0.02, 1.5}, {0.5, 1.5 + 0.02},
      {0.5, 1.5 - 0.02}};
  EXPECT_EQ(s, expected);
}

TEST(FiniteDiff, StencilDropsSamplesClampedOntoX) {
  FiniteDiffOptions opts;
  const Bounds b = box(0.0, 1.0, 2);
  // Lower bound on x0: no backward sample; upper bound on x1: no forward.
  const std::vector<la::Vector> s = central_stencil({0.0, 1.0}, b, opts);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_GT(s[0][0], 0.0);
  EXPECT_EQ(s[0][1], 1.0);
  EXPECT_EQ(s[1][0], 0.0);
  EXPECT_LT(s[1][1], 1.0);
}

TEST(FiniteDiff, GradientSamplesExactlyTheStencilInterior) {
  const ScalarFn f = [](const la::Vector& x) { return x[0] + 2.0 * x[1]; };
  expect_samples_are_stencil_plus_x(f, {0.3, 0.6}, box(0.0, 1.0, 2), {});
}

TEST(FiniteDiff, GradientSamplesExactlyTheStencilAtEachBound) {
  const ScalarFn f = [](const la::Vector& x) { return x[0] * x[1] + x[0]; };
  const Bounds b = box(0.0, 1.0, 2);
  expect_samples_are_stencil_plus_x(f, {0.0, 0.4}, b, {});  // x0 lower
  expect_samples_are_stencil_plus_x(f, {1.0, 0.4}, b, {});  // x0 upper
  expect_samples_are_stencil_plus_x(f, {0.4, 0.0}, b, {});  // x1 lower
  expect_samples_are_stencil_plus_x(f, {0.4, 1.0}, b, {});  // x1 upper
}

TEST(FiniteDiff, GradientSamplesExactlyTheStencilAcrossInfSamples) {
  // The backward x0 sample is +inf: the one-sided fallback reuses x and
  // samples nothing off the stencil.
  const ScalarFn f = [](const la::Vector& x) {
    return x[0] < 0.5 ? kInf : 2.0 * x[0] + x[1];
  };
  const la::Vector x = {0.5, 0.5};
  const Bounds b = box(0.0, 1.0, 2);
  expect_samples_are_stencil_plus_x(f, x, b, {});
  const la::Vector g = gradient(f, x, b, {});
  EXPECT_NEAR(g[0], 2.0, 1e-6);
  EXPECT_NEAR(g[1], 1.0, 1e-6);
}

}  // namespace
}  // namespace oftec::opt
