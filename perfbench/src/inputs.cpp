#include "inputs.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/rng.h"

namespace perfbench {

namespace wl = oftec::workload;

// Stream ids keep every generator's draws independent of the others.
namespace stream {
constexpr std::uint64_t kTable2 = 1000;
constexpr std::uint64_t kDtm = 2000;
constexpr std::uint64_t kDtmOrder = 2100;
constexpr std::uint64_t kServeHot = 3000;
constexpr std::uint64_t kServe = 3100;
constexpr std::uint64_t kCluster = 4000;
}  // namespace stream

namespace {
/// The generator of one (seed, stream) pair. Rng seeds itself through
/// SplitMix64, so neighbouring pairs still give unrelated sequences.
oftec::util::Rng stream_rng(std::uint64_t seed, std::uint64_t stream) {
  return oftec::util::Rng(seed * 0x9e3779b97f4a7c15ull ^
                          (stream + 1) * 0xd1b54a32d192ed03ull);
}
}  // namespace

std::array<wl::Benchmark, 8> table2_order(std::uint64_t seed,
                                          std::size_t pass) {
  std::array<wl::Benchmark, 8> order = wl::all_benchmarks();
  oftec::util::Rng rng = stream_rng(seed, stream::kTable2 + pass);
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.uniform_index(i + 1)]);
  }
  return order;
}

std::array<wl::TraceOptions, kDtmTraces> dtm_trace_options() {
  std::array<wl::TraceOptions, kDtmTraces> pool;
  for (std::size_t k = 0; k < kDtmTraces; ++k) {
    pool[k].sample_count = 1000;
    pool[k].sample_interval = 0.01;
    pool[k].seed = stream_rng(k, stream::kDtm).next_u64();
  }
  return pool;
}

std::array<std::size_t, kDtmWindows> dtm_window_order(std::uint64_t seed) {
  std::array<std::size_t, kDtmWindows> order;
  for (std::size_t i = 0; i < kDtmWindows; ++i) order[i] = i;
  oftec::util::Rng rng = stream_rng(seed, stream::kDtmOrder);
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.uniform_index(i + 1)]);
  }
  return order;
}

ServeStep serve_step(std::uint64_t seed, std::size_t step, double rate,
                     double duration_s) {
  // The hot set is shared by all steps of a seed, so batches at every rate
  // can deduplicate against it.
  std::array<std::array<std::array<double, 2>, kHotPoints>, 2> hot{};
  oftec::util::Rng hot_rng = stream_rng(seed, stream::kServeHot);
  for (auto& chip : hot) {
    for (auto& point : chip) {
      point = {hot_rng.uniform(0.4, 1.0), hot_rng.uniform(0.0, 0.6)};
    }
  }

  ServeStep s;
  s.rate = rate;
  s.duration_s = duration_s;
  oftec::util::Rng rng = stream_rng(seed, stream::kServe + step);
  const auto count =
      static_cast<std::size_t>(std::llround(rate * duration_s));
  s.requests.resize(count);
  for (ServeRequest& r : s.requests) {
    r.due_s = rng.uniform(0.0, duration_s);
    r.control = rng.uniform() < kControlShare;
    if (r.control) {
      r.chip = 0;
      continue;
    }
    r.chip = static_cast<std::uint32_t>(rng.uniform_index(2));
    if (rng.uniform() < kHotShare) {
      const auto& p = hot[r.chip][rng.uniform_index(kHotPoints)];
      r.f_omega = p[0];
      r.f_current = p[1];
    } else {
      r.f_omega = rng.uniform(0.4, 1.0);
      r.f_current = rng.uniform(0.0, 0.6);
    }
  }
  std::sort(s.requests.begin(), s.requests.end(),
            [](const ServeRequest& a, const ServeRequest& b) {
              return a.due_s < b.due_s;
            });
  return s;
}

ClusterSession cluster_session(std::uint64_t seed, std::size_t conn,
                               std::size_t k,
                               const oftec::floorplan::Floorplan& fp) {
  oftec::util::Rng rng = stream_rng(seed, stream::kCluster + (conn << 32) + k);
  const wl::Benchmark base = wl::all_benchmarks()[rng.uniform_index(8)];
  const oftec::power::PowerMap peak =
      wl::peak_power_map(wl::profile_for(base), fp);
  const double scale = rng.uniform(0.7, 1.0);
  ClusterSession s;
  s.power_w.reserve(peak.values().size());
  for (const double w : peak.values()) {
    s.power_w.push_back(w * scale * rng.uniform(0.9, 1.1));
  }
  for (auto& point : s.points) {
    point = {rng.uniform(0.4, 1.0), rng.uniform(0.0, 0.6)};
  }
  return s;
}

namespace {
[[nodiscard]] bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
}  // namespace

bool same_bits(const oftec::serve::SolveReply& reply,
               const oftec::core::Evaluation& direct) {
  return reply.runaway == direct.runaway &&
         bits_equal(reply.max_chip_temperature_k,
                    direct.max_chip_temperature) &&
         bits_equal(reply.leakage_w, direct.power.leakage) &&
         bits_equal(reply.tec_w, direct.power.tec) &&
         bits_equal(reply.fan_w, direct.power.fan) &&
         reply.iterations == direct.solver_iterations;
}

}  // namespace perfbench
