// oftec_perfbench — the repository benchmark.
//
//   oftec_perfbench --workload table2|dtm|serve|cluster|all --seed N
//                   --seconds S --trace 0|1 --golden PATH [--commit SHA]
//   oftec_perfbench --selftest
//   oftec_perfbench --setup-only --workload NAME --seed N
//
// --trace 0 (timed run): obs off; prints the end-to-end metrics. setup_s is
//   the median of kSetupSamples cold set-ups: kSetupSamples - 1 fresh
//   processes of this binary run --setup-only (set up, print the time,
//   exit), then the run's own set-up.
// --trace 1 (traced run): an untraced reference phase over half the time,
//   then the workload again with obs on; prints the per-layer metrics and
//   trace.overhead_frac, the traced phase's cost over the reference's.
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}. Any failed correctness gate makes the exit code 1.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.h"
#include "la/backend.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

extern char** environ;

namespace perfbench {

int run_selftests();

namespace {

/// Cold set-ups behind setup_s, each in a fresh process.
constexpr int kSetupSamples = 9;

struct PerLayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in report order. A workload that does not
/// exercise a layer reports 0 for it, with "not exercised" as its base.
constexpr PerLayerMetric kPerLayer[] = {
    {"opt.qp_solves_per_oftec", "count"},
    {"opt.backtracks_per_oftec", "count"},
    {"opt.sqp_self_ms", "ms"},
    {"core.points_per_oftec", "count"},
    {"core.memo_hit_frac", "fraction"},
    {"core.system_build_ms", "ms"},
    {"core.dtm_control_ms_per_decision", "ms"},
    {"core.dtm_integrate_ms", "ms"},
    {"thermal.solve_point_self_ms", "ms"},
    {"thermal.linear_solves_per_point", "count"},
    {"thermal.cg_iters_per_linear_solve", "count"},
    {"thermal.direct_fallback_frac", "fraction"},
    {"thermal.factor_hit_frac", "fraction"},
    {"thermal.transient_factorizations_per_step", "count"},
    {"la.cg_iterations", "count"},
    {"la.cg_bytes_computed", "bytes"},
    {"la.cholesky_refactorizations", "count"},
    {"la.factor_flops_computed", "flop"},
    {"serve.queue_us_p50", "us"},
    {"serve.queue_us_p99", "us"},
    {"serve.batch_us_p50", "us"},
    {"serve.solve_us_p50", "us"},
    {"serve.solve_us_p99", "us"},
    {"serve.decode_us_p50", "us"},
    {"serve.wire_us_p50", "us"},
    {"serve.batch_size_mean", "count"},
    {"serve.dedup_frac", "fraction"},
    {"serve.engine_points_per_request", "count"},
    {"serve.control_solve_us_p50", "us"},
    {"serve.shed", "count"},
    {"serve.deadline_expired", "count"},
    {"cluster.bind_ms_p50", "ms"},
    {"cluster.bind_ms_p90", "ms"},
    {"cluster.solve_ms_p50", "ms"},
    {"cluster.hop_us_p50", "us"},
    {"cluster.worker_imbalance", "ratio"},
    {"cluster.migrations", "count"},
    {"gen.late_ms_p99", "ms"},
    {"gen.backlog_end", "count"},
    {"trace.overhead_frac", "fraction"},
};

using WorkloadFn = Result (*)(const RunSpec&);

const std::map<std::string, WorkloadFn>& workloads() {
  static const std::map<std::string, WorkloadFn> w = {
      {"table2", run_table2},
      {"dtm", run_dtm},
      {"serve", run_serve},
      {"cluster", run_cluster},
  };
  return w;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string golden = "tests/integration/data/table2_golden.csv";
  std::string commit = "unknown";
  bool selftest = false;
  bool setup_only = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "oftec_perfbench: %s\n"
               "usage: oftec_perfbench --workload table2|dtm|serve|cluster|all"
               " --seed N --seconds S --trace 0|1 [--golden PATH]"
               " [--commit SHA]\n"
               "       oftec_perfbench --selftest\n"
               "       oftec_perfbench --setup-only --workload NAME --seed N\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (flag == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--golden") {
      a.golden = value;
    } else if (flag == "--commit") {
      a.commit = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!a.selftest) {
    if (a.workload != "all" && workloads().count(a.workload) == 0) {
      usage("unknown --workload");
    }
    if (a.setup_only && a.workload == "all") usage("--setup-only needs one workload");
    if (!(a.seconds > 0.0) || a.seconds > 600.0) usage("bad --seconds");
  }
  return a;
}

void print_metric(const char* kind, const Metric& m) {
  std::printf("  %-6s %-42s %16.6g %-9s %s\n", kind, m.name.c_str(), m.value,
              m.unit.c_str(), m.base.c_str());
}

/// Set-up time [s] of workload `name` in a fresh process of this binary.
double cold_setup_s(const std::string& name, const Args& args) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  std::string argv0 = "oftec_perfbench", flag = "--setup-only",
              workload_flag = "--workload", workload = name,
              seed_flag = "--seed", seed = std::to_string(args.seed);
  char* argv[] = {argv0.data(), flag.data(), workload_flag.data(),
                  workload.data(), seed_flag.data(), seed.data(), nullptr};
  pid_t pid = -1;
  const int spawned =
      posix_spawn(&pid, "/proc/self/exe", &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buf[256];
  ssize_t got = 0;
  while (spawned == 0 && (got = read(fds[0], buf, sizeof buf)) != 0) {
    if (got > 0) out.append(buf, static_cast<std::size_t>(got));
    else if (errno != EINTR) break;
  }
  close(fds[0]);
  int status = 0;
  if (spawned == 0) {
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
  }
  if (spawned != 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("cold set-up process failed");
  }
  return std::stod(out);
}

/// Timed or traced run of one workload; prints the text report and returns
/// the metrics that go into the JSON line.
Result run_one(const std::string& name, const Args& args) {
  const WorkloadFn fn = workloads().at(name);
  RunSpec spec;
  spec.seed = args.seed;
  spec.seconds = args.seconds;
  spec.golden_path = args.golden;

  Result r;
  std::vector<double> setups;
  if (!args.trace) {
    oftec::obs::set_enabled(false);
    for (int i = 1; i < kSetupSamples; ++i) {
      setups.push_back(cold_setup_s(name, args));
    }
    r = fn(spec);
    setups.push_back(r.setup_s);
  } else {
    RunSpec reference = spec;
    reference.seconds = spec.seconds / 2.0;
    reference.reference_only = true;
    oftec::obs::set_enabled(false);
    const Result untraced = fn(reference);
    oftec::obs::set_enabled(true);
    spec.traced = true;
    r = fn(spec);
    oftec::obs::set_enabled(false);
    r.attempted += untraced.attempted;
    r.failed += untraced.failed;
    r.failure_notes.insert(r.failure_notes.end(),
                           untraced.failure_notes.begin(),
                           untraced.failure_notes.end());
    char base[96];
    std::snprintf(base, sizeof base, "%.4g ms traced / %.4g ms untraced",
                  r.cost_ms, untraced.cost_ms);
    r.add_layer("trace.overhead_frac",
                untraced.cost_ms > 0.0 ? r.cost_ms / untraced.cost_ms - 1.0
                                       : 0.0,
                "fraction", base);
  }
  const double attempted = static_cast<double>(std::max<std::uint64_t>(
      r.attempted, 1));
  const double fail_frac = static_cast<double>(r.failed) / attempted;
  const std::string setup_base =
      "median of " + std::to_string(setups.size()) + " cold set-ups (" +
      std::to_string(kSetupSamples - 1) + " in fresh processes, then this run's)";
  const std::string rss_base = "process peak at the end of the window";
  r.add_e2e("setup_s", median(setups), "s", setup_base);
  r.add_e2e("peak_rss_mb", r.peak_rss_mb, "MB", rss_base);
  r.add_e2e("ok_frac", 1.0 - fail_frac, "fraction",
            std::to_string(r.attempted - r.failed) + "/" +
                std::to_string(r.attempted));
  r.add_named("setup_s", median(setups), "s", setup_base);
  r.add_named("fail_frac", fail_frac, "fraction",
              std::to_string(r.failed) + "/" + std::to_string(r.attempted));
  r.add_named("peak_rss_mb", r.peak_rss_mb, "MB", rss_base);

  // Complete the per-layer list in canonical order.
  std::vector<Metric> layers;
  for (const PerLayerMetric& m : kPerLayer) {
    const auto it = std::find_if(r.per_layer.begin(), r.per_layer.end(),
                                 [&](const Metric& x) { return x.name == m.name; });
    layers.push_back(it != r.per_layer.end()
                         ? *it
                         : Metric{m.name, 0.0, m.unit, "not exercised"});
  }
  r.per_layer = std::move(layers);

  std::printf("== %s (%s run) ==\n", name.c_str(),
              args.trace ? "traced" : "timed");
  for (const std::string& note : r.notes) std::printf("  note   %s\n", note.c_str());
  // End-to-end numbers come from the timed run only; a traced run prints
  // its per-layer metrics.
  for (const Metric& m : args.trace ? r.per_layer : r.named) {
    print_metric(args.trace ? "layer" : "e2e", m);
  }
  for (const std::string& f : r.failure_notes) {
    std::printf("  FAIL   %s\n", f.c_str());
  }
  return r;
}

void append_json_metric(std::string& out, const std::string& name,
                        const Metric& m) {
  char value[64];
  std::snprintf(value, sizeof value, "%.17g",
                std::isfinite(m.value) ? m.value : 0.0);
  if (out.back() != '{') out += ", ";
  out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit +
         "\"}";
}

int run(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (args.selftest) return run_selftests();
  if (args.setup_only) {
    oftec::obs::set_enabled(false);
    RunSpec spec;
    spec.seed = args.seed;
    spec.setup_only = true;
    try {
      std::printf("%.17g\n", workloads().at(args.workload)(spec).setup_s);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "oftec_perfbench: %s set-up: %s\n",
                   args.workload.c_str(), e.what());
      return 1;
    }
    return 0;
  }

  std::printf("context: seed=%llu nproc=%u backend=%s build=%s commit=%s "
              "seconds=%g trace=%d\n",
              static_cast<unsigned long long>(args.seed),
              std::thread::hardware_concurrency(), oftec::la::backend().name,
              PERFBENCH_BUILD_TYPE, args.commit.c_str(), args.seconds,
              args.trace ? 1 : 0);
  std::fflush(stdout);

  std::vector<std::string> names;
  if (args.workload == "all") {
    for (const auto& [name, fn] : workloads()) names.push_back(name);
  } else {
    names.push_back(args.workload);
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string metrics = "{";
  for (const std::string& name : names) {
    Result r;
    try {
      r = run_one(name, args);
    } catch (const std::exception& e) {
      // A workload that cannot even run (set-up failed) prints no result.
      std::fprintf(stderr, "oftec_perfbench: %s: %s\n", name.c_str(), e.what());
      return 1;
    }
    attempted += r.attempted;
    failed += r.failed;
    const std::string prefix = names.size() > 1 ? name + "." : "";
    for (const Metric& m : args.trace ? r.per_layer : r.end_to_end) {
      append_json_metric(metrics, prefix + m.name, m);
    }
    std::fflush(stdout);
  }
  metrics += "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(attempted, 1)),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
