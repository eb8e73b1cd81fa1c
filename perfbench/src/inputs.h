// Seeded workload inputs and the bit-identity gate.
//
// Every input a workload hands to the library is generated here from the
// run's --seed, so a seed names one input set exactly (the self-tests pin
// that down). The library only ever sees the generated values.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/cooling_system.h"
#include "floorplan/floorplan.h"
#include "serve/protocol.h"
#include "workload/benchmarks.h"
#include "workload/trace.h"

namespace perfbench {

// --- table2 -----------------------------------------------------------------

/// The eight Table-2 profiles in the seeded order of pass `pass`.
[[nodiscard]] std::array<oftec::workload::Benchmark, 8> table2_order(
    std::uint64_t seed, std::size_t pass);

// --- dtm ----------------------------------------------------------------------

/// The dtm workload's pool: kDtmTraces fixed seeded 10 s Susan traces (10 ms
/// samples), each cut into kDtmWindowsPerTrace 1 s control windows. A run
/// plays the windows in an order its seed picks; one run_dtm_loop call plays
/// one window. The pool does not change with the seed: one trace's noise
/// alone moved steps/s by about ±10 % and peak RSS by ±30 %, which would
/// hide a real change between commits.
inline constexpr std::size_t kDtmTraces = 2;
inline constexpr std::size_t kDtmWindowsPerTrace = 10;
inline constexpr std::size_t kDtmWindows = kDtmTraces * kDtmWindowsPerTrace;
[[nodiscard]] std::array<oftec::workload::TraceOptions, kDtmTraces>
dtm_trace_options();
/// Seeded play order of the pool: a permutation of the window indices
/// (trace · kDtmWindowsPerTrace + window).
[[nodiscard]] std::array<std::size_t, kDtmWindows> dtm_window_order(
    std::uint64_t seed);

// --- serve --------------------------------------------------------------------

/// The two chips every serve run binds. Fixed, not seeded: the seed varies
/// the request stream, not the chips, so runs with different seeds measure
/// the same service.
inline constexpr std::array<const char*, 2> kServeChips = {"susan",
                                                           "quicksort"};
/// Share of requests that are `control` (full OFTEC on chip 0) and share of
/// solves drawn from the per-chip hot set.
inline constexpr double kControlShare = 0.01;
inline constexpr double kHotShare = 0.3;
inline constexpr std::size_t kHotPoints = 4;

struct ServeRequest {
  double due_s = 0.0;     ///< send time, relative to the step start
  bool control = false;   ///< control (OFTEC) instead of solve
  std::uint32_t chip = 0;
  double f_omega = 0.0;   ///< ω / ω_max
  double f_current = 0.0; ///< I / I_max
};

struct ServeStep {
  double rate = 0.0;        ///< offered rate [requests/s]
  double duration_s = 0.0;  ///< schedule span
  std::vector<ServeRequest> requests;  ///< sorted by due_s
};

/// Open-loop schedule: each step holds round(rate · duration) arrivals of a
/// Poisson process conditioned on its count (sorted uniform times), fixed in
/// advance from the seed.
[[nodiscard]] ServeStep serve_step(std::uint64_t seed, std::size_t step,
                                   double rate, double duration_s);

// --- cluster ------------------------------------------------------------------

inline constexpr std::size_t kClusterSolvesPerSession = 3;

struct ClusterSession {
  std::vector<double> power_w;  ///< per-block dynamic power, floorplan order
  std::array<std::array<double, 2>, kClusterSolvesPerSession> points{};
  ///< (ω / ω_max, I / I_max) per solve
};

/// The k-th session connection `conn` opens: a distinct chip (a Table-2
/// profile, scaled and jittered per block) and its solve points.
[[nodiscard]] ClusterSession cluster_session(
    std::uint64_t seed, std::size_t conn, std::size_t k,
    const oftec::floorplan::Floorplan& fp);

// --- correctness gate ---------------------------------------------------------

/// True when a served solve reply carries exactly the bits of a direct
/// CoolingSystem::evaluate at the same (spec, ω, I).
[[nodiscard]] bool same_bits(const oftec::serve::SolveReply& reply,
                             const oftec::core::Evaluation& direct);

}  // namespace perfbench
