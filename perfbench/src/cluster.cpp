// cluster — bind churn through the router: every session binds a chip no
// other session shares, solves a few points, and unbinds.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "cluster/cluster.h"
#include "core/cooling_system.h"
#include "floorplan/ev6.h"
#include "inputs.h"
#include "power/mcpat_like.h"
#include "serve/client.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace serve = oftec::serve;
namespace core = oftec::core;

constexpr std::size_t kConnections = 4;
constexpr std::size_t kWorkers = 2;
/// 100 sessions give the p90 ten samples beyond it.
constexpr std::size_t kMinSessions = 100;
/// Bin width of the sessions-per-second median.
constexpr double kRateBinS = 1.0;

struct SessionRecord {
  std::size_t conn = 0;
  std::size_t k = 0;
  double session_ms = 0.0;
  double end_s = 0.0;  ///< completion, relative to the window start
  double bind_ms = 0.0;
  std::array<double, kClusterSolvesPerSession> solve_ms{};
  std::array<std::string, kClusterSolvesPerSession> trace_ids;
  std::array<double, kClusterSolvesPerSession> omega{};
  std::array<double, kClusterSolvesPerSession> current{};
  std::array<serve::SolveReply, kClusterSolvesPerSession> replies{};
  bool ok = false;
};

std::unique_ptr<oftec::cluster::Cluster> start_cluster() {
  oftec::cluster::ClusterOptions opts;
  opts.supervisor.workers = kWorkers;
  auto c = std::make_unique<oftec::cluster::Cluster>(opts);
  c->start();
  c->supervisor().probe_now();
  return c;
}

/// Live sessions per worker, sampled at every bind.
class PlacementSampler {
 public:
  void bound(std::uint32_t slot) {
    const std::lock_guard<std::mutex> lock(mu_);
    ++live_[slot];
    for (std::size_t s = 0; s < kWorkers; ++s) sum_[s] += live_[s];
  }
  void unbound(std::uint32_t slot) {
    const std::lock_guard<std::mutex> lock(mu_);
    --live_[slot];
  }
  [[nodiscard]] Ratio imbalance() const {
    const std::lock_guard<std::mutex> lock(mu_);
    double max = 0.0, total = 0.0;
    for (const double s : sum_) {
      max = std::max(max, s);
      total += s;
    }
    return {max, total / static_cast<double>(kWorkers)};
  }

 private:
  mutable std::mutex mu_;
  std::array<double, kWorkers> live_{};
  std::array<double, kWorkers> sum_{};
};

/// One session: bind a fresh chip, solve its points, unbind. Returns false
/// (with `error` set) when any RPC failed.
bool run_session(serve::Client& client, oftec::cluster::Cluster& cluster,
                 const ClusterSession& spec, bool traced,
                 PlacementSampler& placement, SessionRecord& rec,
                 std::string& error) {
  try {
    const Clock::time_point t0 = Clock::now();
    serve::BindParams bind;
    bind.power_w = spec.power_w;
    serve::BindReply chip;
    {
      OBS_SPAN("bench.cluster.bind");
      chip = client.bind(bind);
    }
    const Clock::time_point t1 = Clock::now();
    const std::uint32_t slot = cluster.router().owner_slot(chip.session);
    placement.bound(slot);
    rec.bind_ms = ms_between(t0, t1);
    for (std::size_t j = 0; j < kClusterSolvesPerSession; ++j) {
      rec.omega[j] = spec.points[j][0] * chip.omega_max;
      rec.current[j] = spec.points[j][1] * chip.current_max;
      if (traced) {
        rec.trace_ids[j] = "pb-" + std::to_string(rec.conn) + "-" +
                           std::to_string(rec.k) + "-" + std::to_string(j);
        client.set_next_trace_id(rec.trace_ids[j]);
      }
      const Clock::time_point s0 = Clock::now();
      {
        OBS_SPAN("bench.cluster.solve");
        rec.replies[j] = client.solve(chip.session, rec.omega[j], rec.current[j]);
      }
      rec.solve_ms[j] = ms_between(s0, Clock::now());
    }
    {
      OBS_SPAN("bench.cluster.unbind");
      if (!client.unbind(chip.session)) {
        throw std::runtime_error("unbind: the cluster no longer knew the session");
      }
    }
    placement.unbound(slot);
    rec.session_ms = ms_between(t0, Clock::now());
    rec.ok = true;
  } catch (const std::exception& e) {
    error = e.what();
  }
  return rec.ok;
}

}  // namespace

Result run_cluster(const RunSpec& spec) {
  Result r;
  const oftec::floorplan::Floorplan fp = oftec::floorplan::make_ev6_floorplan();
  // Set-up and the measured window both run with every CPU kept awake.
  auto awake = std::make_unique<IdleSpinners>();
  const Clock::time_point setup_start = Clock::now();
  std::unique_ptr<oftec::cluster::Cluster> cluster = start_cluster();
  {
    // Warm-up: one session per connection on chips outside the measured
    // stream (session index ~0).
    serve::Client client = serve::Client::connect(cluster->port());
    PlacementSampler ignore;
    for (std::size_t c = 0; c < kConnections; ++c) {
      SessionRecord rec;
      std::string error;
      if (!run_session(client, *cluster, cluster_session(spec.seed, c, ~0ull, fp),
                       false, ignore, rec, error)) {
        throw std::runtime_error("cluster warm-up session failed: " + error);
      }
    }
  }
  r.setup_s = ms_between(setup_start, Clock::now()) / 1000.0;
  if (spec.setup_only) return r;
  const std::uint64_t migrations0 = cluster->router().counters().migrations;

  if (spec.traced) {
    oftec::obs::clear_exemplars();
    oftec::obs::set_exemplar_capacity(std::size_t{1} << 16);
    oftec::obs::set_trace_sample_every(1);
  }
  PlacementSampler placement;
  std::vector<std::vector<SessionRecord>> records(kConnections);
  std::vector<std::vector<std::string>> errors(kConnections);
  const std::size_t min_per_conn =
      spec.reference_only ? 1 : kMinSessions / kConnections;
  const oftec::obs::Snapshot before = oftec::obs::snapshot();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(spec.seconds));
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        try {
          serve::Client client = serve::Client::connect(cluster->port());
          for (std::size_t k = 0;
               Clock::now() < deadline || records[c].size() < min_per_conn;
               ++k) {
            SessionRecord rec;
            rec.conn = c;
            rec.k = k;
            std::string error;
            if (!run_session(client, *cluster,
                             cluster_session(spec.seed, c, k, fp), spec.traced,
                             placement, rec, error)) {
              errors[c].push_back(error);
              client = serve::Client::connect(cluster->port());
            }
            rec.end_s = ms_between(start, Clock::now()) / 1000.0;
            records[c].push_back(std::move(rec));
          }
        } catch (const std::exception& e) {
          errors[c].push_back(std::string("connection: ") + e.what());
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  awake.reset();
  const double window_s = ms_between(start, Clock::now()) / 1000.0;
  r.peak_rss_mb = peak_rss_mb();
  const oftec::obs::Snapshot after = oftec::obs::snapshot();
  const std::uint64_t migrations =
      cluster->router().counters().migrations - migrations0;
  std::vector<oftec::obs::Exemplar> exemplars;
  if (spec.traced) {
    oftec::obs::set_trace_sample_every(0);
    exemplars = oftec::obs::exemplars();
    oftec::obs::set_exemplar_capacity(64);  // the library default; clears
  }
  cluster.reset();

  // --- correctness: every solve against a direct CoolingSystem::evaluate on
  // the same spec, outside the timed window ------------------------------------
  std::vector<const SessionRecord*> sessions;
  for (std::size_t c = 0; c < kConnections; ++c) {
    for (const std::string& e : errors[c]) r.fail("session failed: " + e);
    for (const SessionRecord& rec : records[c]) {
      r.attempted += 2 + kClusterSolvesPerSession;  // bind, solves, unbind
      if (rec.ok) sessions.push_back(&rec);
    }
  }
  const oftec::power::LeakageModel leakage =
      oftec::power::characterize_leakage(fp, oftec::power::ProcessConfig{});
  std::vector<int> mismatches(sessions.size(), 0);
  oftec::util::ThreadPool gate_threads(kConnections);
  gate_threads.parallel_for(sessions.size(), [&](std::size_t i) {
    const SessionRecord& rec = *sessions[i];
    try {
      const ClusterSession s = cluster_session(spec.seed, rec.conn, rec.k, fp);
      oftec::power::PowerMap map(fp);
      for (std::size_t b = 0; b < s.power_w.size(); ++b) map.set(b, s.power_w[b]);
      const core::CoolingSystem direct(fp, map, leakage);
      for (std::size_t j = 0; j < kClusterSolvesPerSession; ++j) {
        const core::Evaluation& ev = direct.evaluate(rec.omega[j], rec.current[j]);
        if (rec.replies[j].runaway || !same_bits(rec.replies[j], ev)) {
          ++mismatches[i];
        }
      }
    } catch (const std::exception&) {
      mismatches[i] = static_cast<int>(kClusterSolvesPerSession);
    }
  });
  for (const int m : mismatches) {
    for (int j = 0; j < m; ++j) {
      r.fail("routed solve is not bit-identical to CoolingSystem::evaluate "
             "(or ran away)");
    }
  }
  if (migrations != 0) {
    r.fail(std::to_string(migrations) + " unexpected session migrations");
  }

  // --- metrics ----------------------------------------------------------------
  std::vector<double> session_ms, end_s, bind_ms, solve_ms;
  for (const SessionRecord* rec : sessions) {
    session_ms.push_back(rec->session_ms);
    end_s.push_back(rec->end_s);
    bind_ms.push_back(rec->bind_ms);
    solve_ms.insert(solve_ms.end(), rec->solve_ms.begin(), rec->solve_ms.end());
  }
  const Summary session = summarize(session_ms);
  const Summary bind = summarize(bind_ms);
  const Summary solve = summarize(solve_ms);
  const double sessions_per_s = median_rate(end_s, window_s, kRateBinS);
  const std::string n = "n=" + std::to_string(session.n);
  char per_bin[96];
  std::snprintf(per_bin, sizeof per_bin,
                "median over the window's seconds, n=%zu in %.1f s", session.n,
                window_s);
  r.cost_ms = session.mean;

  r.add_e2e("latency_ms_p50", session.p50, "ms", n);
  r.add_e2e("latency_ms_tail", session.at_most(90.0), "ms",
            session.label_at_most(90.0) + ", " + n);
  r.add_e2e("throughput_per_s", sessions_per_s, "1/s", per_bin);

  r.add_named("session_ms_p50", session.p50, "ms", n);
  r.add_named("session_ms_" + session.label_at_most(90.0),
              session.at_most(90.0), "ms", n);
  r.add_named("cluster_sessions_per_s", sessions_per_s, "1/s", per_bin);
  r.add_named("bind_ms_p50", bind.p50, "ms", n);

  if (!spec.traced) return r;

  r.add_layer("cluster.bind_ms_p50", bind.p50, "ms",
              "n=" + std::to_string(bind.n));
  r.add_layer("cluster.bind_ms_p90", bind.at_most(90.0), "ms",
              bind.label_at_most(90.0) + ", n=" + std::to_string(bind.n));
  r.add_layer("cluster.solve_ms_p50", solve.p50, "ms",
              "n=" + std::to_string(solve.n));
  // The router does not forward the worker's timing block, so the worker's
  // time comes from its exemplar, matched by trace id.
  std::map<std::string, double> worker_us;
  for (const oftec::obs::Exemplar& e : exemplars) {
    if (e.name == "solve") worker_us[e.trace_id] = e.total_us;
  }
  std::vector<double> hop;
  for (const SessionRecord* rec : sessions) {
    for (std::size_t j = 0; j < kClusterSolvesPerSession; ++j) {
      const auto it = worker_us.find(rec->trace_ids[j]);
      if (it != worker_us.end()) {
        hop.push_back(rec->solve_ms[j] * 1000.0 - it->second);
      }
    }
  }
  const Summary h = summarize(hop);
  r.add_layer("cluster.hop_us_p50", h.p50, "us",
              "n=" + std::to_string(h.n) + " solves matched to exemplars");
  r.add_layer("cluster.worker_imbalance", placement.imbalance(), "ratio");
  r.add_layer("cluster.migrations", static_cast<double>(migrations), "count");
  add_solver_layers(oftec::obs::delta(before, after), r);
  return r;
}

}  // namespace perfbench
