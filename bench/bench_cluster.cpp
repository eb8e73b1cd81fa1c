// bench_cluster — the sharded serve cluster at scale, gated on bit-identity.
//
// A loopback cluster carries thousands of concurrent sessions (default
// 8192 — well past what one worker's session registry would hold) while
// plain protocol-v1 clients bind, solve, and unbind through the router
// exactly as they would against a single oftec-serve. Mid-run the cluster
// scales UP by one worker under full traffic: the router rehomes the ring
// delta (bounded movement, <2/N gated below) while in-flight pipelined
// solves finish wherever they were admitted. The acceptance gate is hard:
// every solve that completes must be bit-identical to the same (spec, ω, I)
// solved on a standalone single-node server — the cluster adds routing,
// supervision, and rebalancing, never arithmetic. Any mismatch, lost
// request, or movement-bound violation makes the binary exit non-zero.
//
// Flags:
//   --smoke           CI-sized run (1024 sessions) with the same hard gates
//   --process         fork/exec process-mode workers instead of in-process
//   --worker-bin P    oftec_client binary for --process (or $OFTEC_WORKER_BIN)
//   --sessions N      total concurrent sessions (default 8192; smoke 1024)
//
// Sessions cycle through a few distinct chip specs at small grids, so the
// run measures routing/sharding overhead rather than thermal-model build
// time.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common.h"
#include "serve/client.h"
#include "serve/server.h"

namespace {

using namespace oftec;

constexpr std::size_t kThreads = 16;
constexpr std::size_t kSolvesPerSession = 3;
constexpr std::size_t kFinalWorkers = 4;  // starts at 3, +1 mid-traffic

struct Config {
  std::size_t sessions = 8192;
  bool smoke = false;
  bool process = false;
  std::string worker_bin;
};

/// The distinct chip specs sessions cycle through (small grids: the bench
/// measures the cluster, not the thermal-model builder).
std::vector<serve::BindParams> spec_set() {
  std::vector<serve::BindParams> specs;
  for (const std::size_t grid : {4u, 5u, 6u}) {
    serve::BindParams p;
    p.benchmark = "susan";
    p.grid_nx = grid;
    p.grid_ny = grid;
    p.direct_solve = true;
    specs.push_back(p);
  }
  return specs;
}

struct Expected {
  double omega_max = 0.0;
  std::vector<serve::SolveReply> replies;  // one per solve point
};

double point_omega(const Expected& e, std::size_t i) {
  return (0.35 + 0.15 * static_cast<double>(i)) * e.omega_max;
}

bool same_bits(const serve::SolveReply& a, const serve::SolveReply& b) {
  return a.runaway == b.runaway &&
         a.max_chip_temperature_k == b.max_chip_temperature_k &&
         a.leakage_w == b.leakage_w && a.tec_w == b.tec_w &&
         a.fan_w == b.fan_w;
}

Config parse_args(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      cfg.smoke = true;
      cfg.sessions = 1024;
    } else if (arg == "--process") {
      cfg.process = true;
    } else if (arg == "--worker-bin" && i + 1 < argc) {
      cfg.worker_bin = argv[++i];
    } else if (arg == "--sessions" && i + 1 < argc) {
      cfg.sessions = static_cast<std::size_t>(std::strtoull(
          argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "usage: bench_cluster [--smoke] [--process] "
                   "[--worker-bin PATH] [--sessions N]\n");
      std::exit(2);
    }
  }
  // Keep the per-thread pipelining structure exact.
  cfg.sessions -= cfg.sessions % kThreads;
  if (cfg.sessions == 0) cfg.sessions = kThreads;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = parse_args(argc, argv);
  const std::size_t sessions_per_thread = cfg.sessions / kThreads;
  bench::print_header(
      "cluster",
      "a cluster carries thousands of concurrent sessions bit-identically "
      "to a single oftec-serve node while scaling up under load");

  const std::vector<serve::BindParams> specs = spec_set();

  // Single-node reference: one session per distinct spec, solved directly.
  std::vector<Expected> expected(specs.size());
  {
    serve::Server reference;
    reference.start();
    serve::Client client = serve::Client::connect(reference.port());
    for (std::size_t s = 0; s < specs.size(); ++s) {
      const serve::BindReply chip = client.bind(specs[s]);
      expected[s].omega_max = chip.omega_max;
      for (std::size_t i = 0; i < kSolvesPerSession; ++i) {
        expected[s].replies.push_back(
            client.solve(chip.session, point_omega(expected[s], i), 0.2));
      }
    }
    reference.stop();
  }

  cluster::ClusterOptions opts;
  opts.supervisor.workers = kFinalWorkers - 1;  // one more arrives mid-run
  // Every session could land on one worker in the worst imbalance, and the
  // clients pipeline a full thread's solves at once — size the registries
  // and queues so admission control never sheds a well-behaved run.
  opts.supervisor.worker_server.max_sessions = cfg.sessions;
  opts.supervisor.worker_server.max_queue_depth = cfg.sessions;
  if (cfg.process) {
    opts.worker_mode = cluster::WorkerMode::kProcess;
    opts.process.binary = cfg.worker_bin;  // "" = $OFTEC_WORKER_BIN fallback
    opts.process.extra_args = {"--sessions", std::to_string(cfg.sessions),
                               "--queue", std::to_string(cfg.sessions)};
  }
  cluster::Cluster cluster(opts);
  cluster.start();

  std::atomic<std::uint64_t> solves_ok{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<bool> done{false};
  const std::uint64_t want = cfg.sessions * kSolvesPerSession;

  // Scale-up-mid-traffic scenario: once a quarter of the solves have
  // landed, grow the cluster by one worker under full load. The router
  // rehomes the ring delta; clients must notice nothing.
  std::atomic<std::uint64_t> rehomed_after_add{0};
  std::thread scaler([&] {
    while (!done.load(std::memory_order_relaxed) &&
           solves_ok.load(std::memory_order_relaxed) < want / 4) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (done.load(std::memory_order_relaxed)) return;
    const std::uint32_t slot = cluster.add_worker();
    rehomed_after_add.store(cluster.router().counters().rehomed,
                            std::memory_order_relaxed);
    std::printf("scaled up: worker %u joined mid-traffic (%llu sessions "
                "rehomed)\n",
                slot,
                static_cast<unsigned long long>(
                    rehomed_after_add.load(std::memory_order_relaxed)));
  });

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        serve::Client client = serve::Client::connect(cluster.port());
        // Bind this thread's sessions pipelined: all of them are live on
        // the cluster at once.
        std::vector<std::uint64_t> bind_ids;
        std::vector<std::size_t> session_spec;
        bind_ids.reserve(sessions_per_thread);
        for (std::size_t s = 0; s < sessions_per_thread; ++s) {
          const std::size_t which =
              (t * sessions_per_thread + s) % specs.size();
          serve::Request bind;
          bind.type = serve::RequestType::kBind;
          bind.params = specs[which];
          bind_ids.push_back(client.send(std::move(bind)));
          session_spec.push_back(which);
        }
        std::vector<std::uint64_t> sessions(sessions_per_thread, 0);
        for (std::size_t s = 0; s < sessions_per_thread; ++s) {
          const serve::Response r = client.recv_for(bind_ids[s]);
          if (!r.ok) {
            errors.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          sessions[s] = serve::parse_bind_reply(r.result).session;
        }

        // Solve every session at the reference points, pipelined per
        // round, and compare bits on collection.
        for (std::size_t i = 0; i < kSolvesPerSession; ++i) {
          std::vector<std::uint64_t> ids(sessions_per_thread, 0);
          for (std::size_t s = 0; s < sessions_per_thread; ++s) {
            if (sessions[s] == 0) continue;
            const Expected& e = expected[session_spec[s]];
            ids[s] = client.send_solve(sessions[s], point_omega(e, i), 0.2);
          }
          for (std::size_t s = 0; s < sessions_per_thread; ++s) {
            if (ids[s] == 0) continue;
            const serve::Response r = client.recv_for(ids[s]);
            if (!r.ok) {
              errors.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            const serve::SolveReply got = serve::parse_solve_reply(r.result);
            const Expected& e = expected[session_spec[s]];
            if (same_bits(got, e.replies[i])) {
              solves_ok.fetch_add(1, std::memory_order_relaxed);
            } else {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }

        for (std::size_t s = 0; s < sessions_per_thread; ++s) {
          if (sessions[s] != 0) (void)client.unbind(sessions[s]);
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "client thread failed: %s\n", e.what());
        errors.fetch_add(1000000, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  done.store(true, std::memory_order_relaxed);
  scaler.join();
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();

  const cluster::Router::Counters rc = cluster.router().counters();
  std::printf("%zu sessions over %zu->%zu %s workers (%zu client threads), "
              "%zu solves/session\n",
              cfg.sessions, kFinalWorkers - 1, kFinalWorkers,
              cfg.process ? "process" : "in-process", kThreads,
              kSolvesPerSession);
  std::printf("wall %.1f ms  (%.0f solves/s)\n", wall_ms,
              1000.0 * static_cast<double>(solves_ok.load()) / wall_ms);
  std::printf("router: forwarded=%llu shed=%llu migrations=%llu "
              "rehomed=%llu transport_errors=%llu\n",
              static_cast<unsigned long long>(rc.forwarded),
              static_cast<unsigned long long>(rc.shed),
              static_cast<unsigned long long>(rc.migrations),
              static_cast<unsigned long long>(rc.rehomed),
              static_cast<unsigned long long>(rc.transport_errors));
  for (const auto& w : cluster.supervisor().snapshot()) {
    std::printf("  worker %u: port %u  state=%s  sessions(peak probe)=%llu\n",
                w.slot, w.port, cluster::worker_state_name(w.state),
                static_cast<unsigned long long>(w.load.sessions));
  }

  std::printf("\nbit-identical solves: %llu/%llu  mismatches=%llu  "
              "errors=%llu\n",
              static_cast<unsigned long long>(solves_ok.load()),
              static_cast<unsigned long long>(want),
              static_cast<unsigned long long>(mismatches.load()),
              static_cast<unsigned long long>(errors.load()));
  cluster.stop();

  if (mismatches.load() != 0 || errors.load() != 0 ||
      solves_ok.load() != want) {
    std::printf("FAIL: cluster results are not bit-identical to "
                "single-node\n");
    return 1;
  }
  // Consistent hashing's whole point: adding one worker to an N-node ring
  // moves ~1/N of the sessions, never more than twice that.
  const std::uint64_t movement_bound = 2 * cfg.sessions / kFinalWorkers;
  if (rehomed_after_add.load() > movement_bound) {
    std::printf("FAIL: scale-up moved %llu sessions (> 2/N bound %llu)\n",
                static_cast<unsigned long long>(rehomed_after_add.load()),
                static_cast<unsigned long long>(movement_bound));
    return 1;
  }
  std::printf("OK: every solve bit-identical to the single-node reference "
              "(scale-up moved %llu/%llu sessions, bound %llu)\n",
              static_cast<unsigned long long>(rehomed_after_add.load()),
              static_cast<unsigned long long>(cfg.sessions),
              static_cast<unsigned long long>(movement_bound));
  return 0;
}
