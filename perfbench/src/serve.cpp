// serve — open-loop served solves. A seeded Poisson stream of solve and
// control requests hits an in-process serve::Server at three fixed rates;
// latency is timed from when each request was due, not when it was sent.
#include <poll.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <thread>
#include <unordered_map>

#include "core/cooling_system.h"
#include "core/oftec.h"
#include "floorplan/ev6.h"
#include "inputs.h"
#include "power/mcpat_like.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace serve = oftec::serve;
namespace core = oftec::core;
namespace wl = oftec::workload;

/// Fixed offered rates [requests/s], chosen once at 1/4, 1/2 and 4/5 of the
/// 1200/s capacity measured on the parent commit (see README.md).
constexpr std::array<double, 3> kRates = {300.0, 600.0, 960.0};
constexpr std::size_t kLow = 0;
constexpr std::size_t kMiddle = 1;
/// Loaded steps first, so the unloaded step, whose latency the benchmark
/// gates, runs on a warm server.
constexpr std::array<std::size_t, 3> kPlayOrder = {1, 2, 0};
/// Solve p99 limit: one tenth of the DTM control period.
constexpr double kLatencyLimitMs = 100.0;
/// A step whose generator sent its p99 request later than a quarter of the
/// latency limit fell behind its schedule: the step is invalid.
constexpr double kMaxLateMs = kLatencyLimitMs / 4.0;
constexpr std::size_t kConnections = 4;
/// The middle rate must hold enough solves for a p99 with 10 beyond it.
constexpr double kMinMiddleRequests = 1100.0;
/// Share of --seconds given to the low, middle and high steps.
constexpr std::array<double, 3> kStepShare = {0.4, 0.35, 0.25};
constexpr double kReplyTimeoutS = 30.0;

struct Outcome {
  double sent_ms = -1.0;  ///< relative to the step start
  double done_ms = -1.0;  ///< reply received; < 0 when none arrived
  bool ok = false;
  std::string error;
  serve::TimingInfo timing;
  serve::SolveReply solve;
  serve::ControlReply control;
  double omega = 0.0;
  double current = 0.0;
};

struct Chip {
  std::uint64_t session = 0;
  double omega_max = 0.0;
  double current_max = 0.0;
};

struct Service {
  std::unique_ptr<serve::Server> server;
  std::array<Chip, 2> chips;
};

/// CPU placement for a serve run. The load generator gets the last CPU to
/// itself and busy-polls, so its sends are on time; the server, and every
/// thread it starts, runs on the other CPUs, which IdleSpinners keep awake
/// during the measured window. With a single CPU nothing is pinned and the
/// generator waits in ppoll instead of spinning.
class CpuPlan {
 public:
  CpuPlan() {
    sched_getaffinity(0, sizeof all_, &all_);
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) generator_cpu_ = c;
    }
    server_ = all_;
    if (!pinned()) return;
    CPU_CLR(generator_cpu_, &server_);
    sched_setaffinity(0, sizeof server_, &server_);
  }
  ~CpuPlan() { sched_setaffinity(0, sizeof all_, &all_); }
  CpuPlan(const CpuPlan&) = delete;
  CpuPlan& operator=(const CpuPlan&) = delete;

  [[nodiscard]] bool pinned() const { return CPU_COUNT(&all_) >= 2; }
  [[nodiscard]] const cpu_set_t& server_cpus() const { return server_; }

  /// Call on the generator thread.
  void pin_generator() const {
    if (!pinned()) return;
    cpu_set_t own{};
    CPU_SET(generator_cpu_, &own);
    sched_setaffinity(0, sizeof own, &own);
  }

 private:
  cpu_set_t all_{};
  cpu_set_t server_{};
  int generator_cpu_ = -1;
};

/// Start the server, bind both chips, and warm each with a few solves and
/// one control.
Service set_up() {
  Service s;
  s.server = std::make_unique<serve::Server>();
  s.server->start();
  serve::Client admin = serve::Client::connect(s.server->port());
  for (std::size_t c = 0; c < s.chips.size(); ++c) {
    serve::BindParams bind;
    bind.benchmark = kServeChips[c];
    const serve::BindReply reply = admin.bind(bind);
    s.chips[c] = {reply.session, reply.omega_max, reply.current_max};
    for (const double f : {0.5, 0.75, 1.0}) {
      (void)admin.solve(reply.session, f * reply.omega_max,
                        0.3 * reply.current_max);
    }
  }
  (void)admin.control(s.chips[0].session);
  return s;
}

/// Play one step from a single generator thread: send each request when
/// due on connection (index mod kConnections), read replies as they arrive,
/// until every request is answered or replies stop arriving.
void play(const std::array<serve::Socket, kConnections>& sockets,
          const ServeStep& step, const std::array<Chip, 2>& chips, bool spin,
          std::vector<Outcome>& out) {
  static constexpr timespec kNoWait{0, 0};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  const auto since_t0 = [t0] { return ms_between(t0, Clock::now()); };
  const auto due_ms = [&step](std::size_t i) {
    return step.requests[i].due_s * 1000.0;
  };
  std::array<pollfd, kConnections> fds{};
  for (std::size_t c = 0; c < kConnections; ++c) {
    fds[c] = {sockets[c].fd(), POLLIN, 0};
  }
  std::unordered_map<std::uint64_t, std::size_t> inflight;
  const std::size_t n = step.requests.size();
  std::size_t next = 0;
  std::size_t answered = 0;
  double last_progress_ms = 0.0;

  // A broken connection fails everything in flight on it.
  const auto drop = [&](std::size_t c) {
    fds[c].fd = -1;
    for (auto it = inflight.begin(); it != inflight.end();) {
      if (it->second % kConnections == c) {
        out[it->second].error = "connection lost";
        ++answered;
        it = inflight.erase(it);
      } else {
        ++it;
      }
    }
  };

  while (answered < n) {
    while (next < n && due_ms(next) <= since_t0()) {
      const std::size_t c = next % kConnections;
      const ServeRequest& q = step.requests[next];
      const Chip& chip = chips[q.chip];
      serve::Request req;
      req.id = next + 1;
      if (q.control) {
        req.type = serve::RequestType::kControl;
        req.params = serve::ControlParams{chip.session, "oftec"};
      } else {
        out[next].omega = q.f_omega * chip.omega_max;
        out[next].current = q.f_current * chip.current_max;
        req.type = serve::RequestType::kSolve;
        req.params = serve::SolveParams{chip.session, out[next].omega,
                                        out[next].current};
      }
      if (fds[c].fd < 0 ||
          !serve::write_frame(fds[c].fd, serve::encode_request(req))) {
        out[next].error = "send failed";
        ++answered;
      } else {
        inflight.emplace(req.id, next);
      }
      out[next].sent_ms = since_t0();
      last_progress_ms = out[next].sent_ms;
      ++next;
    }
    if (answered == n) break;

    // Wait for replies, but no later than the next due time. A generator
    // with a CPU of its own busy-polls instead, so no timer wake-up delays
    // its sends.
    const double wait_ms =
        next < n ? std::max(0.0, due_ms(next) - since_t0()) : 200.0;
    const timespec ts{static_cast<time_t>(wait_ms / 1000.0),
                      static_cast<long>(std::fmod(wait_ms, 1000.0) * 1e6)};
    if (ppoll(fds.data(), fds.size(), spin ? &kNoWait : &ts, nullptr) <= 0) {
      if (next == n && since_t0() - last_progress_ms > kReplyTimeoutS * 1000.0) {
        break;  // replies stopped arriving: the rest count as failed
      }
      continue;
    }
    for (std::size_t c = 0; c < kConnections; ++c) {
      if (fds[c].fd < 0 || fds[c].revents == 0) continue;
      std::string payload;
      if (serve::read_frame(fds[c].fd, payload,
                            serve::kDefaultMaxFrameBytes) !=
          serve::ReadStatus::kOk) {
        drop(c);
        continue;
      }
      const double done_ms = since_t0();
      last_progress_ms = done_ms;
      const serve::Response resp =
          serve::decode_response(payload, serve::kDefaultMaxFrameBytes);
      const auto it = inflight.find(resp.id);
      if (it == inflight.end()) continue;
      const std::size_t idx = it->second;
      inflight.erase(it);
      ++answered;
      Outcome& o = out[idx];
      o.done_ms = done_ms;
      o.timing = serve::timing_of(resp);
      if (!resp.ok) {
        o.error = resp.error.code + ": " + resp.error.message;
      } else if (step.requests[idx].control) {
        o.control = serve::parse_control_reply(resp.result);
        o.ok = true;
      } else {
        o.solve = serve::parse_solve_reply(resp.result);
        o.ok = true;
      }
    }
  }
}

/// What one rate step measured.
struct RateStats {
  double rate = 0.0;
  std::vector<double> solve_ms;   ///< due → reply
  std::vector<double> solve_due_s;  ///< due time of each solve_ms sample
  std::vector<double> control_ms;
  std::vector<double> late_ms;    ///< due → sent
  std::size_t requests = 0;
  std::size_t failed = 0;
  std::size_t backlog_end = 0;
  bool growing = false;
  double completed = 0.0;
  double busy_s = 0.0;  ///< schedule span, or until the last reply if later
  double duration_s = 0.0;  ///< schedule span

  [[nodiscard]] bool valid() const {
    return summarize(late_ms).at_most(99.0) <= kMaxLateMs;
  }
  [[nodiscard]] bool passes() const {
    return valid() && failed == 0 && !growing &&
           summarize(solve_ms).at_most(99.0) <= kLatencyLimitMs;
  }
};

/// Requests due by `t_ms` and not yet answered at `t_ms`.
std::size_t outstanding(const ServeStep& step, const std::vector<Outcome>& out,
                        double t_ms) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (step.requests[i].due_s * 1000.0 <= t_ms &&
        (out[i].done_ms < 0.0 || out[i].done_ms > t_ms)) {
      ++n;
    }
  }
  return n;
}

void add_step(RateStats& s, const ServeStep& step,
               const std::vector<Outcome>& out) {
  std::vector<double> solve;
  std::vector<double> solve_due_s;
  double last_done = 0.0;
  std::size_t failed = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Outcome& o = out[i];
    const double due_ms = step.requests[i].due_s * 1000.0;
    if (o.sent_ms >= 0.0) s.late_ms.push_back(o.sent_ms - due_ms);
    if (!o.ok) {
      ++failed;
      continue;
    }
    last_done = std::max(last_done, o.done_ms);
    if (step.requests[i].control) {
      s.control_ms.push_back(o.done_ms - due_ms);
    } else {
      solve.push_back(o.done_ms - due_ms);
      solve_due_s.push_back(step.requests[i].due_s);
    }
  }
  s.solve_ms.insert(s.solve_ms.end(), solve.begin(), solve.end());
  s.solve_due_s.insert(s.solve_due_s.end(), solve_due_s.begin(),
                       solve_due_s.end());
  s.requests += out.size();
  s.failed += failed;
  const double span_ms = step.duration_s * 1000.0;
  const std::size_t backlog = outstanding(step, out, span_ms);
  s.backlog_end = std::max(s.backlog_end, backlog);
  // Growing backlog: more than a latency limit's worth of arrivals still
  // outstanding when the schedule ends (in a steady state Little's law puts
  // it at rate × mean latency, far below that).
  s.growing = s.growing ||
              static_cast<double>(backlog) > step.rate * kLatencyLimitMs / 1000.0;
  s.completed += static_cast<double>(out.size() - failed);
  s.busy_s += std::max(last_done, span_ms) / 1000.0;
  s.duration_s += step.duration_s;
}

/// The step's solve-latency tail (p90 where supported) in each whole second
/// of its schedule, median over those seconds: a burst of load elsewhere on
/// the machine inflates the tail of a few seconds, not the median. With
/// fewer than three whole seconds, the tail over the whole step.
double typical_second_tail(const RateStats& s) {
  const auto seconds = static_cast<std::size_t>(s.duration_s);
  if (seconds < 3) return summarize(s.solve_ms).at_most(90.0);
  std::vector<std::vector<double>> by_second(seconds);
  for (std::size_t i = 0; i < s.solve_ms.size(); ++i) {
    const auto b = static_cast<std::size_t>(s.solve_due_s[i]);
    if (b < seconds) by_second[b].push_back(s.solve_ms[i]);
  }
  std::vector<double> tails;
  for (std::vector<double>& ms : by_second) {
    tails.push_back(summarize(std::move(ms)).at_most(90.0));
  }
  return median(std::move(tails));
}

/// A step's requests and what came back, kept for the correctness gate.
struct Played {
  ServeStep step;
  std::vector<Outcome> out;
};

}  // namespace

Result run_serve(const RunSpec& spec) {
  Result r;
  CpuPlan cpus;
  std::array<RateStats, kRates.size()> rates;
  for (std::size_t k = 0; k < kRates.size(); ++k) rates[k].rate = kRates[k];
  std::vector<Played> played;

  // Set-up and the measured window both run with the server CPUs awake.
  auto awake = std::make_unique<IdleSpinners>(cpus.server_cpus());
  const Clock::time_point setup_start = Clock::now();
  Service service = set_up();
  r.setup_s = ms_between(setup_start, Clock::now()) / 1000.0;
  if (spec.setup_only) {
    service.server->stop();
    return r;
  }
  std::array<serve::Socket, kConnections> sockets;
  for (serve::Socket& s : sockets) {
    s = serve::Socket::connect_loopback(service.server->port());
    if (!s.valid()) throw std::runtime_error("cannot connect to the server");
  }

  const serve::Server::Counters c0 = service.server->counters();
  const oftec::obs::Snapshot before = oftec::obs::snapshot();
  for (const std::size_t k : kPlayOrder) {
    double duration = spec.seconds * kStepShare[k];
    if (k == kMiddle && !spec.reference_only) {
      duration = std::max(duration, kMinMiddleRequests / kRates[k]);
    }
    Played p{serve_step(spec.seed, k, kRates[k], duration), {}};
    p.out.resize(p.step.requests.size());
    {
      OBS_SPAN("bench.serve.step");
      std::thread generator([&] {
        cpus.pin_generator();
        play(sockets, p.step, service.chips, cpus.pinned(), p.out);
      });
      generator.join();
    }
    add_step(rates[k], p.step, p.out);
    played.push_back(std::move(p));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  awake.reset();
  r.peak_rss_mb = peak_rss_mb();
  const oftec::obs::Snapshot layers =
      oftec::obs::delta(before, oftec::obs::snapshot());
  const serve::Server::Counters c1 = service.server->counters();
  for (serve::Socket& s : sockets) s.close();
  service.server->stop();

  // --- correctness: every reply against a direct library call, outside the
  // timed window --------------------------------------------------------------
  const oftec::floorplan::Floorplan fp = oftec::floorplan::make_ev6_floorplan();
  const oftec::power::LeakageModel leakage =
      oftec::power::characterize_leakage(fp, oftec::power::ProcessConfig{});
  // The gate's threads hold references into the memo, which evaluate()
  // evicts wholesale at cache_limit: no limit, so nothing is evicted.
  core::CoolingSystem::Config no_eviction;
  no_eviction.cache_limit = std::numeric_limits<std::size_t>::max();
  std::vector<std::unique_ptr<core::CoolingSystem>> reference;
  for (const char* name : kServeChips) {
    reference.push_back(std::make_unique<core::CoolingSystem>(
        fp, wl::peak_power_map(wl::profile_for(*wl::benchmark_by_name(name)),
                               fp),
        leakage, no_eviction));
  }
  const core::OftecResult control_ref = core::run_oftec(*reference[0]);

  std::vector<std::pair<const ServeRequest*, const Outcome*>> solves;
  for (const Played& p : played) {
    for (std::size_t i = 0; i < p.step.requests.size(); ++i) {
      const ServeRequest& q = p.step.requests[i];
      const Outcome& o = p.out[i];
      ++r.attempted;
      if (!o.ok) {
        r.fail("request failed: " +
               (o.error.empty() ? std::string("no reply") : o.error));
      } else if (q.control) {
        if (!o.control.success || o.control.omega != control_ref.omega ||
            o.control.current != control_ref.current ||
            o.control.max_chip_temperature_k !=
                control_ref.max_chip_temperature) {
          r.fail("control reply differs from run_oftec on the same chip");
        }
      } else if (o.solve.runaway) {
        r.fail("unexpected runaway at a served operating point");
      } else {
        solves.emplace_back(&q, &o);
      }
    }
  }
  std::vector<char> mismatch(solves.size(), 0);
  oftec::util::ThreadPool gate_threads(kConnections);
  gate_threads.parallel_for(solves.size(), [&](std::size_t i) {
    const auto& [q, o] = solves[i];
    try {
      mismatch[i] = !same_bits(o->solve,
                               reference[q->chip]->evaluate(o->omega, o->current));
    } catch (const std::exception&) {
      mismatch[i] = 1;
    }
  });
  for (std::size_t i = 0; i < solves.size(); ++i) {
    if (mismatch[i]) {
      r.fail("solve reply is not bit-identical to CoolingSystem::evaluate");
    }
  }

  // --- metrics ----------------------------------------------------------------
  double max_rate = 0.0;
  double max_rate_offered = 0.0;
  std::vector<double> all_late;
  std::vector<double> all_control;
  std::size_t backlog_end = 0;
  for (const RateStats& s : rates) {
    if (s.passes()) {
      max_rate = s.completed / s.busy_s;
      max_rate_offered = s.rate;
    }
    all_late.insert(all_late.end(), s.late_ms.begin(), s.late_ms.end());
    all_control.insert(all_control.end(), s.control_ms.begin(),
                       s.control_ms.end());
    backlog_end = std::max(backlog_end, s.backlog_end);
    const Summary solve = summarize(s.solve_ms);
    const Summary late = summarize(s.late_ms);
    char line[320];
    std::snprintf(
        line, sizeof line,
        "rate %.0f/s: %zu requests, solve p50 %.2f ms %s %.2f ms %s %.2f ms, "
        "late %s %.3f ms, backlog end %zu, failed %zu -> %s",
        s.rate, s.requests, solve.p50, solve.label_at_most(90.0).c_str(),
        solve.at_most(90.0), solve.label_at_most(99.0).c_str(),
        solve.at_most(99.0),
        late.label_at_most(99.0).c_str(), late.at_most(99.0), s.backlog_end,
        s.failed,
        !s.valid() ? "INVALID (generator fell behind)"
                   : (s.passes() ? "meets limit" : "misses limit"));
    r.notes.emplace_back(line);
  }
  const RateStats& low = rates[kLow];
  const RateStats& m = rates[kMiddle];
  const Summary unloaded = summarize(low.solve_ms);
  const Summary middle = summarize(m.solve_ms);
  const Summary control = summarize(all_control);
  const Summary late = summarize(all_late);
  const auto at = [](const RateStats& s) {
    return " at " + std::to_string(static_cast<int>(s.rate)) + "/s";
  };
  const std::string n_low = "n=" + std::to_string(unloaded.n) + at(low);
  const std::string n_mid = "n=" + std::to_string(middle.n) + at(m);
  r.cost_ms = middle.mean;

  r.add_e2e("latency_ms_p50", unloaded.p50, "ms", n_low);
  const double unloaded_tail = typical_second_tail(low);
  r.add_e2e("latency_ms_tail", unloaded_tail, "ms",
            "p90 per second of schedule, median over " +
                std::to_string(static_cast<int>(low.duration_s)) +
                " s, " + n_low);
  r.add_e2e("throughput_per_s", max_rate, "1/s",
            "completed/s at the highest rate meeting the limit (offered " +
                std::to_string(static_cast<int>(max_rate_offered)) + "/s)");

  r.add_named("solve_ms_p50", middle.p50, "ms", n_mid);
  r.add_named("solve_ms_" + middle.label_at_most(99.0), middle.at_most(99.0),
              "ms", n_mid);
  r.add_named("unloaded_solve_ms_p50", unloaded.p50, "ms", n_low);
  r.add_named("unloaded_solve_ms_" + unloaded.label_at_most(90.0),
              unloaded.at_most(90.0), "ms", n_low);
  r.add_named("unloaded_solve_ms_p90_per_second", unloaded_tail, "ms",
              "median over the step's seconds, " + n_low);
  r.add_named("control_ms_p50", control.p50, "ms",
              "n=" + std::to_string(control.n));
  r.add_named("serve_max_rate_rps", max_rate, "1/s",
              "offered " + std::to_string(static_cast<int>(max_rate_offered)) +
                  "/s, limit p99 <= 100 ms");

  if (!spec.traced) return r;

  // --- per layer: the middle rate's reply timing blocks ------------------------
  std::vector<double> queue, batch, solve, decode, wire, control_solve;
  for (const Played& p : played) {
    for (std::size_t i = 0; i < p.step.requests.size(); ++i) {
      const Outcome& o = p.out[i];
      if (!o.ok || !o.timing.present) continue;
      if (p.step.requests[i].control) {
        control_solve.push_back(o.timing.solve_us);
        continue;
      }
      if (p.step.rate != m.rate) continue;
      queue.push_back(o.timing.queue_us);
      batch.push_back(o.timing.batch_us);
      solve.push_back(o.timing.solve_us);
      decode.push_back(o.timing.decode_us);
      wire.push_back((o.done_ms - o.sent_ms) * 1000.0 - o.timing.total_us);
    }
  }
  const auto add_pct = [&r](const std::string& name, std::vector<double> v,
                            double p) {
    const Summary s = summarize(std::move(v));
    r.add_layer(name, p == 50.0 ? s.p50 : s.at_most(p), "us",
                (p == 50.0 ? std::string("p50") : s.label_at_most(p)) +
                    ", n=" + std::to_string(s.n));
  };
  add_pct("serve.queue_us_p50", queue, 50.0);
  add_pct("serve.queue_us_p99", queue, 99.0);
  add_pct("serve.batch_us_p50", batch, 50.0);
  add_pct("serve.solve_us_p50", solve, 50.0);
  add_pct("serve.solve_us_p99", solve, 99.0);
  add_pct("serve.decode_us_p50", decode, 50.0);
  add_pct("serve.wire_us_p50", wire, 50.0);
  add_pct("serve.control_solve_us_p50", control_solve, 50.0);

  const auto batched = static_cast<double>(c1.batched_points - c0.batched_points);
  r.add_layer("serve.batch_size_mean",
              Ratio{batched, static_cast<double>(c1.batches - c0.batches)},
              "count");
  r.add_layer("serve.dedup_frac",
              Ratio{static_cast<double>(c1.dedup_hits - c0.dedup_hits), batched},
              "fraction");
  r.add_layer("serve.engine_points_per_request",
              Ratio{counter(layers, "solve_engine.points"),
                    counter(layers, "serve.requests.solve") +
                        counter(layers, "serve.requests.control")},
              "count");
  r.add_layer("serve.shed", static_cast<double>(c1.shed - c0.shed), "count");
  r.add_layer("serve.deadline_expired",
              static_cast<double>(c1.deadline_expired - c0.deadline_expired),
              "count");
  r.add_layer("gen.late_ms_p99", late.at_most(99.0), "ms",
              late.label_at_most(99.0) + ", n=" + std::to_string(late.n));
  r.add_layer("gen.backlog_end", static_cast<double>(backlog_end), "count",
              "worst step");
  add_solver_layers(layers, r);
  return r;
}

}  // namespace perfbench
