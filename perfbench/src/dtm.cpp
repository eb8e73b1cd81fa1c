// dtm — the paper's online-control story: exact OFTEC every control period
// while the transient model integrates a seeded Susan trace.
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/dtm_loop.h"
#include "floorplan/ev6.h"
#include "inputs.h"
#include "power/mcpat_like.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace core = oftec::core;
namespace wl = oftec::workload;

constexpr double kControlPeriod = 1.0;  // [s]
constexpr double kTimeStep = 10e-3;     // [s]

core::DtmOptions dtm_options() {
  core::DtmOptions opts;
  opts.policy = core::DtmPolicy::kExactOftec;
  opts.control_period = kControlPeriod;
  opts.time_step = kTimeStep;
  return opts;
}

struct Inputs {
  std::unique_ptr<oftec::floorplan::Floorplan> fp;
  std::unique_ptr<oftec::power::LeakageModel> leakage;
  std::array<wl::PowerTrace, kDtmWindows> windows;
  std::array<std::size_t, kDtmWindows> order{};
};

/// Floorplan, leakage characterization, the window pool, and a warm-up loop
/// over pool window 0. Warming up on a fixed window, not on whichever window
/// plays first, keeps the set-up time independent of the seed.
Inputs set_up(std::uint64_t seed) {
  Inputs in;
  in.fp = std::make_unique<oftec::floorplan::Floorplan>(
      oftec::floorplan::make_ev6_floorplan());
  in.leakage = std::make_unique<oftec::power::LeakageModel>(
      oftec::power::characterize_leakage(*in.fp,
                                         oftec::power::ProcessConfig{}));
  const auto options = dtm_trace_options();
  for (std::size_t t = 0; t < kDtmTraces; ++t) {
    const wl::PowerTrace trace = wl::generate_trace(
        wl::profile_for(wl::Benchmark::kSusan), *in.fp, options[t]);
    const std::size_t per_window = trace.size() / kDtmWindowsPerTrace;
    for (std::size_t w = 0; w < kDtmWindowsPerTrace; ++w) {
      wl::PowerTrace& window = in.windows[t * kDtmWindowsPerTrace + w];
      window.sample_interval = trace.sample_interval;
      const auto begin = trace.samples.begin() +
                         static_cast<std::ptrdiff_t>(w * per_window);
      window.samples.assign(begin,
                            begin + static_cast<std::ptrdiff_t>(per_window));
    }
  }
  in.order = dtm_window_order(seed);
  (void)core::run_dtm_loop(*in.fp, in.windows[0], *in.leakage, dtm_options());
  return in;
}

}  // namespace

Result run_dtm(const RunSpec& spec) {
  Result r;
  const Clock::time_point setup_start = Clock::now();
  const Inputs in = set_up(spec.seed);
  r.setup_s = ms_between(setup_start, Clock::now()) / 1000.0;
  if (spec.setup_only) return r;
  const double steps_per_window =
      std::round(in.windows[0].duration() / kTimeStep);
  const double periods_per_window =
      std::round(in.windows[0].duration() / kControlPeriod);

  // A run plays whole rounds of the pool, so every window weighs the same
  // whatever the machine's speed. A timed run plays at least two, so the
  // repeat gate covers every window and the tail has ten samples beyond its
  // p75.
  const std::size_t min_loops =
      spec.reference_only ? kDtmWindows : 2 * kDtmWindows;
  std::array<std::vector<double>, kDtmWindows> by_window;
  std::array<core::DtmResult, kDtmWindows> first;
  std::vector<double> period_ms;
  double control_ms = 0.0;
  double decisions = 0.0;
  double wall_ms = 0.0;
  const oftec::obs::Snapshot before = oftec::obs::snapshot();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(spec.seconds));
  for (std::size_t loop = 0; loop < min_loops || loop % kDtmWindows != 0 ||
                             Clock::now() < deadline;
       ++loop) {
    const std::size_t w = in.order[loop % kDtmWindows];
    const Clock::time_point t0 = Clock::now();
    core::DtmResult res;
    {
      OBS_SPAN("bench.core.run_dtm_loop");
      res = core::run_dtm_loop(*in.fp, in.windows[w], *in.leakage,
                               dtm_options());
    }
    const double ms = ms_between(t0, Clock::now());
    ++r.attempted;
    wall_ms += ms;
    by_window[w].push_back(ms / periods_per_window);
    period_ms.push_back(ms / periods_per_window);
    control_ms += res.control_time_ms;
    decisions += static_cast<double>(res.reoptimizations);

    if (res.runaway || res.status == core::ControlStatus::kRunaway) {
      r.fail("DTM loop ran away");
    } else if (by_window[w].size() == 1) {
      first[w] = std::move(res);
    } else if (res.peak_temperature != first[w].peak_temperature ||
               res.violation_time != first[w].violation_time ||
               res.average_cooling_power != first[w].average_cooling_power) {
      r.fail("DTM loop " + std::to_string(loop + 1) + " on window " +
             std::to_string(w) +
             ": peak temperature, violation time or average power differs "
             "from the first loop of the same window");
    }
  }
  r.peak_rss_mb = peak_rss_mb();
  const oftec::obs::Snapshot after = oftec::obs::snapshot();

  // Medians over many short loops: a burst of load elsewhere on the machine
  // slows a few loops, not the median.
  const Summary period = summarize(period_ms);
  const double steps_per_s =
      steps_per_window / periods_per_window / (period.p50 / 1000.0);
  const std::string n = "loops=" + std::to_string(period.n) + " over " +
                        std::to_string(kDtmWindows) + " 1 s windows";
  r.cost_ms = wall_ms / (static_cast<double>(period.n) * steps_per_window);

  r.add_e2e("latency_ms_p50", period.p50, "ms", "ms per control period, " + n);
  r.add_e2e("latency_ms_tail", period.at_most(90.0), "ms",
            period.label_at_most(90.0) + " ms per control period, " + n);
  r.add_e2e("throughput_per_s", steps_per_s, "1/s",
            "integration steps per second at the median loop, " + n);

  r.add_named("dtm_steps_per_s", steps_per_s, "1/s", n);
  r.add_named("dtm_period_ms_p50", period.p50, "ms", n);
  r.add_named("dtm_decision_ms_mean", Ratio{control_ms, decisions}.value(),
              "ms", Ratio{control_ms, decisions}.base() + " ms/decisions");
  for (std::size_t t = 0; t < kDtmTraces; ++t) {
    std::string note = "trace " + std::to_string(t) +
                       " windows (peak K, avg power W, median ms):";
    for (std::size_t w = 0; w < kDtmWindowsPerTrace; ++w) {
      const std::size_t i = t * kDtmWindowsPerTrace + w;
      if (by_window[i].empty()) continue;
      char cell[96];
      std::snprintf(cell, sizeof cell, " [%zu] %.2f %.2f %.1f", w,
                    first[i].peak_temperature, first[i].average_cooling_power,
                    median(by_window[i]));
      note += cell;
    }
    r.notes.push_back(note);
  }

  if (spec.traced) {
    add_solver_layers(oftec::obs::delta(before, after), r);
    r.add_layer("core.dtm_control_ms_per_decision",
                Ratio{control_ms, decisions}.value(), "ms",
                Ratio{control_ms, decisions}.base() + " ms/decisions");
    r.add_layer("core.dtm_integrate_ms",
                (wall_ms - control_ms) / static_cast<double>(period.n), "ms",
                "per loop (wall - control_time_ms), " + n);
  }
  return r;
}

}  // namespace perfbench
