// Table 2: OFTEC's optimum TEC current I*, fan speed ω*, and runtime for the
// eight MiBench benchmarks. The paper reports a 437 ms average on an
// i7-3770 (MATLAB SQP + MEX'd C thermal simulator); we report the measured
// wall clock of this all-C++ implementation at the default 10×10 grid.
//
// Also writes the `table2_oftec` section of the bench artifact
// (bench_artifact_path()): per-benchmark runtime and thermal solves, the
// average, and the hardware context the times were measured on.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <thread>

#include "common.h"
#include "la/backend.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/thread_pool.h"

int main() {
  using namespace oftec;
  using namespace oftec::bench;

  print_header("Table 2: OFTEC results for MiBench benchmarks",
               "I* and w* increase with the input dynamic power; average "
               "runtime 437 ms, slowest 693 ms");

  const std::vector<SweepRow> rows = run_paper_sweep();

  util::Table table;
  table.set_header({"Benchmark", "Pdyn [W]", "I* [A]", "w* [RPM]", "T [C]",
                    "P [W]", "Runtime [ms]", "solves"});
  double total_ms = 0.0, worst_ms = 0.0;
  util::json::Value per_benchmark = util::json::Value::object();
  for (const SweepRow& r : rows) {
    table.add_row({r.name, format_watts(r.dynamic_power, 1),
                   util::format_double(r.oftec.current, 2),
                   format_rpm(r.oftec.omega),
                   format_celsius(r.oftec.max_chip_temperature),
                   format_watts(r.oftec.power.total()),
                   util::format_double(r.oftec.runtime_ms, 0),
                   std::to_string(r.oftec.thermal_solves)});
    total_ms += r.oftec.runtime_ms;
    worst_ms = std::max(worst_ms, r.oftec.runtime_ms);
    util::json::Value row = util::json::Value::object();
    row["runtime_ms"] = r.oftec.runtime_ms;
    row["thermal_solves"] = r.oftec.thermal_solves;
    per_benchmark[r.name] = row;
  }
  table.print(std::cout);
  const double average_ms = total_ms / static_cast<double>(rows.size());
  std::printf("\nAverage runtime: %.0f ms (paper: 437 ms on i7-3770)\n",
              average_ms);
  std::printf("Slowest runtime: %.0f ms (paper: 693 ms)\n", worst_ms);

  util::json::Value j = util::json::Value::object();
  j["grid"] = "10x10";
  j["hardware_concurrency"] = std::thread::hardware_concurrency();
  j["pool_threads"] = util::ThreadPool::default_thread_count();
  j["backend"] = std::string(la::backend().name);
  j["benchmarks"] = per_benchmark;
  j["average_runtime_ms"] = average_ms;
  j["slowest_runtime_ms"] = worst_ms;
  update_bench_artifact("table2_oftec", j);
  return 0;
}
