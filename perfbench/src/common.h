// Shared machinery of the repository benchmark: the one percentile/ratio
// helper every metric goes through, and the result record each workload
// fills.
#pragma once

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "util/obs.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Percentiles and ratios
// ---------------------------------------------------------------------------

/// Summary of one latency sample set. Percentiles are nearest-rank: the
/// p-th percentile of n sorted samples is element ceil(p/100 · n) (1-based),
/// and "samples beyond" it are the n − rank larger-ranked samples.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double mean = 0.0;
  double max = 0.0;

  /// Value at percentile p when p has ≥ kMinBeyond samples beyond it;
  /// otherwise the value at the highest supported percentile below p.
  [[nodiscard]] double at_most(double p) const;
  /// "p90" / "p99" / "max" label of at_most(p).
  [[nodiscard]] std::string label_at_most(double p) const;

  std::vector<double> sorted;
};

inline constexpr std::size_t kMinBeyond = 10;
inline constexpr double kTailPercentiles[] = {99.9, 99.0, 95.0, 90.0, 75.0,
                                              50.0};

[[nodiscard]] std::size_t nearest_rank(std::size_t n, double p);
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);
/// Highest standard percentile with ≥ kMinBeyond samples beyond it; 0 if none.
[[nodiscard]] double highest_supported_percentile(std::size_t n);
[[nodiscard]] Summary summarize(std::vector<double> samples);
[[nodiscard]] std::string percentile_label(double p);
/// Median of a small sample (set-up samples, per-loop values); the mean of
/// the middle two when the count is even.
[[nodiscard]] double median(std::vector<double> v);

/// Events per second: the median, over the whole `bin_s` bins of
/// [0, window_s), of each bin's event count over `bin_s`. A burst of load
/// elsewhere on the machine slows a few bins, not the median. With fewer
/// than three whole bins, the count over the window instead.
[[nodiscard]] double median_rate(const std::vector<double>& event_s,
                                 double window_s, double bin_s);

/// A ratio kept with its base, printed as "num/den".
struct Ratio {
  double num = 0.0;
  double den = 0.0;
  [[nodiscard]] double value() const { return den > 0.0 ? num / den : 0.0; }
  [[nodiscard]] std::string base() const;
};

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string base;  ///< sample count or ratio base, for the text report
};

/// What one workload run measured. `end_to_end` uses the generic metric
/// names of BENCHMARK.json; `named` repeats the same numbers under the
/// workload-specific names of perfbench/README.md.
struct Result {
  std::vector<Metric> end_to_end;
  std::vector<Metric> named;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failure_notes;
  /// Mean cost of one measured operation [ms] (or ms per step for dtm) —
  /// what the traced run compares against the untraced one.
  double cost_ms = 0.0;
  /// This process's set-up: everything before the first timed call [s].
  double setup_s = 0.0;
  /// Peak RSS at the end of the measured window, before the correctness
  /// gates run [MB].
  double peak_rss_mb = 0.0;

  void fail(const std::string& why);
  void add_e2e(std::string name, double value, std::string unit,
               std::string base = {});
  void add_named(std::string name, double value, std::string unit,
                 std::string base = {});
  void add_layer(std::string name, double value, std::string unit,
                 std::string base = {});
  void add_layer(std::string name, const Ratio& r, std::string unit);
};

/// How one workload run is configured.
struct RunSpec {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  /// Untraced reference phase of a traced run: minimum sample sizes are
  /// relaxed, only cost_ms is used.
  bool reference_only = false;
  /// Set up, record Result::setup_s, and return without measuring.
  bool setup_only = false;
  std::string golden_path;
};

// ---------------------------------------------------------------------------
// Process and library helpers
// ---------------------------------------------------------------------------

/// Peak resident set size of this process [MB].
[[nodiscard]] double peak_rss_mb();

/// Counter value in an obs snapshot (0 when absent).
[[nodiscard]] double counter(const oftec::obs::Snapshot& s,
                             const std::string& name);
/// Span aggregate in an obs snapshot (zeroed when absent).
[[nodiscard]] oftec::obs::SpanStats span(const oftec::obs::Snapshot& s,
                                         const std::string& name);

/// Size of the paper's 10×10 thermal system: node count and band width.
struct ModelShape {
  std::size_t n = 0;
  std::size_t band = 0;
};
[[nodiscard]] const ModelShape& paper_model_shape();

/// Per-layer metrics of the solver stack (opt, core, thermal, la) derived
/// from an obs snapshot delta taken around the measured window. Benchmark
/// spans ("bench.*") sit around the library calls, so library span
/// self-times exclude the benchmark's own work.
void add_solver_layers(const oftec::obs::Snapshot& delta, Result& r);

/// Keeps CPUs out of idle while it lives: one SCHED_IDLE spinner per CPU,
/// which the kernel runs only when no other thread wants that CPU. This is
/// the same as disabling deep idle states. On a shared virtual machine the
/// wake-up latency of idle virtual CPUs otherwise decided every latency
/// with a thread hand-off in it, and it changed for minutes at a time. The
/// multi-threaded workloads (serve, cluster) hold one over their set-up and
/// measured window; see perfbench/README.md for the measurements.
class IdleSpinners {
 public:
  /// Spin on every CPU in `cpus`; the calling thread's CPUs when empty.
  explicit IdleSpinners(cpu_set_t cpus = {});
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> spinners_;
};

}  // namespace perfbench
