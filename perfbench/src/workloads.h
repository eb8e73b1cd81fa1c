// The four benchmark workloads. Each runs against the oftec library's
// public API for RunSpec::seconds, checks every output, and fills a Result.
#pragma once

#include "common.h"

namespace perfbench {

/// Closed loop, one caller: fresh 10×10 CoolingSystem per Table-2 profile,
/// then run_oftec, profiles in seeded order.
[[nodiscard]] Result run_table2(const RunSpec& spec);

/// Closed loop: run_dtm_loop (exact OFTEC every 1 s, 10 ms steps) over the
/// 1 s windows of two fixed 10 s Susan traces, in whole seeded rounds.
[[nodiscard]] Result run_dtm(const RunSpec& spec);

/// Open loop: seeded Poisson solve/control stream at three fixed rates
/// against an in-process serve::Server holding two bound chips.
[[nodiscard]] Result run_serve(const RunSpec& spec);

/// Closed loop: 4 connections through a 2-worker in-process cluster, each
/// repeatedly binding a fresh chip, solving, and unbinding.
[[nodiscard]] Result run_cluster(const RunSpec& spec);

}  // namespace perfbench
