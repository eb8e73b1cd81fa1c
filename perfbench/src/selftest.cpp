// Self-tests of the benchmark itself (`oftec_perfbench --selftest`, run by
// run.py before every measurement): seeded inputs are reproducible, the
// percentile helper behaves at its sample-count edges, and the bit-identity
// gate trips on a corrupted reply.
#include <algorithm>
#include <bit>
#include <cstdio>
#include <string>

#include "core/cooling_system.h"
#include "floorplan/ev6.h"
#include "inputs.h"
#include "power/mcpat_like.h"
#include "workloads.h"

namespace perfbench {

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool same_step(const ServeStep& a, const ServeStep& b) {
  if (a.requests.size() != b.requests.size()) return false;
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    const ServeRequest& x = a.requests[i];
    const ServeRequest& y = b.requests[i];
    if (x.due_s != y.due_s || x.control != y.control || x.chip != y.chip ||
        x.f_omega != y.f_omega || x.f_current != y.f_current) {
      return false;
    }
  }
  return true;
}

bool same_trace(const oftec::workload::PowerTrace& a,
                const oftec::workload::PowerTrace& b) {
  if (a.size() != b.size() || a.sample_interval != b.sample_interval) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.samples[i].values() != b.samples[i].values()) return false;
  }
  return true;
}

void seeded_inputs_repeat(const oftec::floorplan::Floorplan& fp) {
  check(same_step(serve_step(7, 1, 120.0, 2.0), serve_step(7, 1, 120.0, 2.0)),
        "same seed gives an identical serve schedule");
  check(!same_step(serve_step(7, 1, 120.0, 2.0), serve_step(8, 1, 120.0, 2.0)),
        "another seed gives another serve schedule");

  const auto& susan =
      oftec::workload::profile_for(oftec::workload::Benchmark::kSusan);
  const auto first_trace = [&] {
    return generate_trace(susan, fp, dtm_trace_options()[0]);
  };
  check(same_trace(first_trace(), first_trace()),
        "the DTM trace pool generates identically every time");
  auto sorted_order = dtm_window_order(7);
  std::sort(sorted_order.begin(), sorted_order.end());
  bool permutation = true;
  for (std::size_t i = 0; i < sorted_order.size(); ++i) {
    permutation = permutation && sorted_order[i] == i;
  }
  check(dtm_window_order(7) == dtm_window_order(7) && permutation,
        "same seed gives the same DTM window order, a permutation of the pool");
  check(dtm_window_order(7) != dtm_window_order(8),
        "another seed plays the DTM window pool in another order");

  bool same = true;
  bool distinct = true;
  for (std::size_t c = 0; c < 4; ++c) {
    for (std::size_t k = 0; k < 8; ++k) {
      const ClusterSession a = cluster_session(7, c, k, fp);
      same = same && a.power_w == cluster_session(7, c, k, fp).power_w &&
             a.points == cluster_session(7, c, k, fp).points;
      distinct = distinct && a.power_w != cluster_session(7, c, k + 1, fp).power_w;
    }
  }
  check(same, "same seed gives an identical cluster power_w set");
  check(distinct, "consecutive cluster sessions bind distinct specs");
  check(table2_order(7, 0) == table2_order(7, 0),
        "same seed gives the same Table-2 order");
}

void percentile_edges() {
  check(highest_supported_percentile(0) == 0.0 &&
            highest_supported_percentile(19) == 0.0,
        "fewer than 20 samples support no percentile (p50 needs 10 beyond)");
  check(highest_supported_percentile(20) == 50.0, "20 samples support p50");
  check(highest_supported_percentile(99) == 75.0,
        "99 samples do not support p90 (9 beyond)");
  check(highest_supported_percentile(100) == 90.0,
        "100 samples support p90 (10 beyond)");
  check(highest_supported_percentile(999) == 95.0 &&
            highest_supported_percentile(1000) == 99.0,
        "p99 needs 1000 samples");
  check(highest_supported_percentile(10000) == 99.9,
        "p99.9 needs 10000 samples");

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  const Summary s = summarize(v);
  check(s.n == 100 && s.p50 == 50.0 && s.at_most(90.0) == 90.0 &&
            s.at_most(99.0) == 90.0 && s.label_at_most(99.0) == "p90" &&
            s.max == 100.0,
        "nearest-rank values on 1..100, p99 falls back to p90");
  const Summary one = summarize({3.0});
  check(one.p50 == 3.0 && one.at_most(90.0) == 3.0 &&
            one.label_at_most(90.0) == "max",
        "one sample: p50 is the sample, the tail is labelled max");
  const Summary none = summarize({});
  check(none.n == 0 && none.p50 == 0.0 && none.at_most(99.0) == 0.0,
        "no samples: zeros");
  check(Ratio{117, 225}.base() == "117/225" && Ratio{1, 0}.value() == 0.0,
        "ratios print their base; a zero base reads 0");
}

void bit_identity_gate(const oftec::floorplan::Floorplan& fp) {
  const oftec::power::LeakageModel leakage =
      oftec::power::characterize_leakage(fp, oftec::power::ProcessConfig{});
  const oftec::core::CoolingSystem system(
      fp,
      oftec::workload::peak_power_map(
          oftec::workload::profile_for(oftec::workload::Benchmark::kSusan), fp),
      leakage);
  const oftec::core::Evaluation& ev =
      system.evaluate(0.7 * system.omega_max(), 0.3 * system.current_max());
  oftec::serve::SolveReply reply;
  reply.runaway = ev.runaway;
  reply.max_chip_temperature_k = ev.max_chip_temperature;
  reply.leakage_w = ev.power.leakage;
  reply.tec_w = ev.power.tec;
  reply.fan_w = ev.power.fan;
  reply.iterations = ev.solver_iterations;
  check(same_bits(reply, ev), "an exact reply passes the bit-identity gate");

  // A wire round trip must not disturb a single bit.
  const oftec::serve::SolveReply wired = oftec::serve::parse_solve_reply(
      oftec::util::json::parse(
          oftec::serve::solve_result_json(reply).dump()));
  check(same_bits(wired, ev), "a JSON round-tripped reply passes the gate");

  oftec::serve::SolveReply corrupt = reply;
  corrupt.max_chip_temperature_k = std::bit_cast<double>(
      std::bit_cast<std::uint64_t>(corrupt.max_chip_temperature_k) ^ 1u);
  check(!same_bits(corrupt, ev),
        "a reply one ulp off in temperature trips the gate");
  corrupt = reply;
  corrupt.fan_w = std::bit_cast<double>(
      std::bit_cast<std::uint64_t>(corrupt.fan_w) ^ 1u);
  check(!same_bits(corrupt, ev), "a reply one ulp off in fan power trips the gate");
  corrupt = reply;
  corrupt.runaway = !corrupt.runaway;
  check(!same_bits(corrupt, ev), "a flipped runaway flag trips the gate");
}

}  // namespace

int run_selftests() {
  std::printf("perfbench self-tests\n");
  const oftec::floorplan::Floorplan fp = oftec::floorplan::make_ev6_floorplan();
  seeded_inputs_repeat(fp);
  percentile_edges();
  bit_identity_gate(fp);
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
