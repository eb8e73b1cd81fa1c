#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <thread>

#include "floorplan/ev6.h"
#include "package/package_config.h"
#include "thermal/model.h"

namespace perfbench {

namespace obs = oftec::obs;

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

std::size_t nearest_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  // Round the product first so p=90, n=100 gives rank 90, not 91 from
  // 0.9·100 = 90.00000000000001.
  const double product = std::round(p / 100.0 * static_cast<double>(n) * 1e9) / 1e9;
  const auto rank = static_cast<std::size_t>(std::ceil(product));
  return std::clamp<std::size_t>(rank, 1, n);
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

std::string percentile_label(double p) {
  if (p <= 0.0) return "max";
  char buf[16];
  std::snprintf(buf, sizeof buf, "p%g", p);
  return buf;
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  std::sort(samples.begin(), samples.end());
  s.n = samples.size();
  if (s.n == 0) return s;
  s.mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(s.n);
  s.max = samples.back();
  s.p50 = samples[nearest_rank(s.n, 50.0) - 1];
  s.sorted = std::move(samples);
  return s;
}

namespace {

/// Highest standard percentile ≤ p with ≥ kMinBeyond samples beyond it; 0
/// when none qualifies.
double supported_at_most(std::size_t n, double p) {
  for (const double q : kTailPercentiles) {
    if (q <= p && samples_beyond(n, q) >= kMinBeyond) return q;
  }
  return 0.0;
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double median_rate(const std::vector<double>& event_s, double window_s,
                   double bin_s) {
  const auto bins = static_cast<std::size_t>(window_s / bin_s);
  if (bins < 3) {
    return window_s > 0.0 ? static_cast<double>(event_s.size()) / window_s
                          : 0.0;
  }
  std::vector<double> count(bins, 0.0);
  for (const double t : event_s) {
    const auto b = static_cast<std::size_t>(t / bin_s);
    if (t >= 0.0 && b < bins) count[b] += 1.0;
  }
  return median(std::move(count)) / bin_s;
}

double Summary::at_most(double p) const {
  if (n == 0) return 0.0;
  const double q = supported_at_most(n, p);
  return q > 0.0 ? sorted[nearest_rank(n, q) - 1] : max;
}

std::string Summary::label_at_most(double p) const {
  return percentile_label(supported_at_most(n, p));
}

double highest_supported_percentile(std::size_t n) {
  return supported_at_most(n, 100.0);
}

std::string Ratio::base() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.0f/%.0f", num, den);
  return buf;
}

// ---------------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------------

void Result::fail(const std::string& why) {
  ++failed;
  if (failure_notes.size() < 20) failure_notes.push_back(why);
}

void Result::add_e2e(std::string name, double value, std::string unit,
                     std::string base) {
  end_to_end.push_back({std::move(name), value, std::move(unit),
                        std::move(base)});
}

void Result::add_named(std::string name, double value, std::string unit,
                       std::string base) {
  named.push_back({std::move(name), value, std::move(unit), std::move(base)});
}

void Result::add_layer(std::string name, double value, std::string unit,
                       std::string base) {
  per_layer.push_back({std::move(name), value, std::move(unit),
                       std::move(base)});
}

void Result::add_layer(std::string name, const Ratio& r, std::string unit) {
  add_layer(std::move(name), r.value(), std::move(unit), r.base());
}

// ---------------------------------------------------------------------------
// Process and library helpers
// ---------------------------------------------------------------------------

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

double counter(const obs::Snapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
}

obs::SpanStats span(const obs::Snapshot& s, const std::string& name) {
  for (const obs::SpanStats& st : s.spans) {
    if (st.name == name) return st;
  }
  obs::SpanStats none;
  none.name = name;
  return none;
}

const ModelShape& paper_model_shape() {
  static const ModelShape shape = [] {
    const oftec::floorplan::Floorplan fp =
        oftec::floorplan::make_ev6_floorplan();
    const oftec::thermal::ThermalModel model(
        oftec::package::PackageConfig::paper_default(), fp, 10, 10);
    return ModelShape{model.layout().node_count(), model.layout().bandwidth()};
  }();
  return shape;
}

namespace {

/// Mean self (or total) time per span call, with the call count as base.
void add_span_mean(Result& r, const std::string& metric,
                   const obs::SpanStats& st, bool self) {
  const double ms = self ? st.self_ms : st.total_ms;
  const Ratio per_call{ms, static_cast<double>(st.count)};
  r.add_layer(metric, per_call.value(), "ms",
              "n=" + std::to_string(st.count));
}

}  // namespace

void add_solver_layers(const obs::Snapshot& d, Result& r) {
  const double runs = counter(d, "oftec.runs");
  const double evaluations = counter(d, "cooling.evaluations");
  const double memo_hits = counter(d, "cooling.cache_hits");
  const double points = counter(d, "solve_engine.points");
  const double linear = counter(d, "solve_engine.linear_solves");
  const double factor_hits = counter(d, "solve_engine.factor_hits");
  const double factorizations = counter(d, "solve_engine.factorizations");
  const double cg_iterations = counter(d, "la.cg.iterations_total");
  const double refactorizations = counter(d, "la.cholesky.refactorizations");
  const ModelShape& shape = paper_model_shape();
  const auto n = static_cast<double>(shape.n);
  const auto b = static_cast<double>(shape.band);

  r.add_layer("opt.qp_solves_per_oftec",
              Ratio{counter(d, "opt.qp.solves"), runs}, "count");
  r.add_layer("opt.backtracks_per_oftec",
              Ratio{counter(d, "opt.sqp.line_search_backtracks"), runs},
              "count");
  const obs::SpanStats sqp = span(d, "opt.sqp");
  r.add_layer("opt.sqp_self_ms", Ratio{sqp.self_ms, runs}.value(), "ms",
              "self ms per OFTEC run, runs=" +
                  std::to_string(static_cast<long long>(runs)));

  r.add_layer("core.points_per_oftec", Ratio{evaluations - memo_hits, runs},
              "count");
  r.add_layer("core.memo_hit_frac", Ratio{memo_hits, evaluations}, "fraction");
  add_span_mean(r, "core.system_build_ms", span(d, "bench.core.system_build"),
                /*self=*/false);

  add_span_mean(r, "thermal.solve_point_self_ms",
                span(d, "solve_engine.solve_point"), /*self=*/true);
  r.add_layer("thermal.linear_solves_per_point", Ratio{linear, points},
              "count");
  r.add_layer("thermal.cg_iters_per_linear_solve",
              Ratio{counter(d, "solve_engine.cg_iterations_total"), linear},
              "count");
  r.add_layer("thermal.direct_fallback_frac",
              Ratio{counter(d, "solve_engine.direct_fallbacks"), points},
              "fraction");
  r.add_layer("thermal.factor_hit_frac",
              Ratio{factor_hits, factor_hits + factorizations}, "fraction");
  r.add_layer("thermal.transient_factorizations_per_step",
              Ratio{counter(d, "dtm.step_factorizations"),
                    static_cast<double>(span(d, "dtm.transient_step").count)},
              "count");

  r.add_layer("la.cg_iterations", cg_iterations, "count");
  // Computed, not measured: a band-stored matvec streams n·(2b+1) values
  // and a CG iteration five more n-vectors (x, r, p, q, z), 8 B each.
  r.add_layer("la.cg_bytes_computed", cg_iterations * 8.0 * n * (2.0 * b + 6.0),
              "bytes", "computed from n=" + std::to_string(shape.n) +
                           ", band=" + std::to_string(shape.band));
  r.add_layer("la.cholesky_refactorizations", refactorizations, "count");
  // Computed: a banded Cholesky costs n·b·(b+3) flops; the transient
  // stepper's banded LU (lower and upper band b, fill to 2b) about 4·n·b².
  const double lu_factorizations = counter(d, "dtm.step_factorizations");
  r.add_layer("la.factor_flops_computed",
              refactorizations * n * b * (b + 3.0) +
                  lu_factorizations * 4.0 * n * b * b,
              "flop",
              "computed from n=" + std::to_string(shape.n) + ", band=" +
                  std::to_string(shape.band) + ", " +
                  std::to_string(static_cast<long long>(refactorizations)) +
                  " Cholesky + " +
                  std::to_string(static_cast<long long>(lu_factorizations)) +
                  " LU");
}

IdleSpinners::IdleSpinners(cpu_set_t cpus) {
  if (CPU_COUNT(&cpus) == 0) sched_getaffinity(0, sizeof cpus, &cpus);
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &cpus)) continue;
    spinners_.emplace_back([this, c] {
      cpu_set_t own{};
      CPU_SET(c, &own);
      sched_setaffinity(0, sizeof own, &own);
      const sched_param idle{};
      sched_setscheduler(0, SCHED_IDLE, &idle);
      while (!stop_.load(std::memory_order_relaxed)) {
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_ = true;
  for (std::thread& t : spinners_) t.join();
}

}  // namespace perfbench
