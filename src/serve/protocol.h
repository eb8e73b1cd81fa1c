// oftec-serve wire protocol v1: versioned JSON messages inside the length-
// prefixed frames of wire.h. See docs/serving.md for the full specification.
//
// Request envelope:
//   {"v":1, "id":<n>, "type":"<name>", "deadline_ms":<n>?,
//    "trace_id":"..."?, "parent_span":"..."?, "params":{...}}
// Response envelope:
//   {"v":1, "id":<n>, "ok":true,  "result":{...},
//    "trace_id":"..."?, "timing":{...}?}
//   {"v":1, "id":<n>, "ok":false, "error":{"code":"...", "message":"...",
//                                          "retry_after_ms":<n>?}}
//
// `trace_id`/`parent_span` are optional opaque strings (≤ 128 bytes) the
// client attaches for distributed tracing; the server echoes `trace_id` on
// the response and stamps a `timing` object (per-stage µs breakdown, see
// TimingInfo). Peers that predate these fields interoperate unchanged:
// extractors on both ends ignore unknown keys, and all four fields are
// omitted from the wire when empty/absent.
//
// Responses are correlated by `id` (client-chosen, unique per connection)
// and may arrive out of request order — the server coalesces concurrent
// solve requests into batches. Numbers are IEEE doubles printed with %.17g,
// so every temperature/power value round-trips bit-exactly: a served solve
// equals a direct library call bit-for-bit.
//
// Decoding is hardened for untrusted input: frames are size-capped by the
// transport, then parsed with util::json::ParseOptions{max_depth,
// max_input_bytes, DuplicateKeyPolicy::kError}. Anything malformed throws
// ProtocolError, which the server turns into a structured error response
// (or a connection drop when the frame itself is unparseable).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/json.h"

namespace oftec::serve {

inline constexpr int kProtocolVersion = 1;

/// Upper bound on a request's `deadline_ms` (~11.5 days). Keeps
/// peer-controlled deadlines small enough that converting to microseconds
/// and adding to a steady_clock time_point can never overflow.
inline constexpr double kMaxDeadlineMs = 1e9;

// Error codes (stable strings on the wire).
inline constexpr const char* kErrBadRequest = "bad_request";
inline constexpr const char* kErrUnknownType = "unknown_type";
inline constexpr const char* kErrUnknownSession = "unknown_session";
inline constexpr const char* kErrOverloaded = "overloaded";
inline constexpr const char* kErrDeadlineExceeded = "deadline_exceeded";
inline constexpr const char* kErrShuttingDown = "shutting_down";
inline constexpr const char* kErrInternal = "internal";

/// Raised by the codec on malformed/unsupported messages and by the client
/// when the server returns an error response.
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(std::string code, std::string message)
      : std::runtime_error(code + ": " + message),
        code_(std::move(code)),
        message_(std::move(message)) {}

  [[nodiscard]] const std::string& code() const noexcept { return code_; }
  /// The human-readable part only (what() prepends the code).
  [[nodiscard]] const std::string& message() const noexcept {
    return message_;
  }
  /// Request id to correlate an error response with, when the decoder got
  /// far enough to learn it; 0 otherwise.
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  void set_id(std::uint64_t id) noexcept { id_ = id; }

  /// Backpressure hint carried by the error response, when the server sent
  /// one (kErrOverloaded / kErrShuttingDown); 0 otherwise.
  [[nodiscard]] double retry_after_ms() const noexcept {
    return retry_after_ms_;
  }
  void set_retry_after_ms(double ms) noexcept { retry_after_ms_ = ms; }

 private:
  std::string code_;
  std::string message_;
  std::uint64_t id_ = 0;
  double retry_after_ms_ = 0.0;
};

enum class RequestType {
  kPing,       ///< liveness check, handled inline by the reader
  kBind,       ///< create a chip session (queued — builds a thermal model)
  kUnbind,     ///< drop a session (inline)
  kSolve,      ///< steady-state 𝒯/𝒫 at (ω, I) — the batchable request
  kControl,    ///< OFTEC decision (Opt 1) or min-temperature (Opt 2)
  kLut,        ///< nearest-neighbor LUT control lookup
  kTransient,  ///< advance the session's transient state under fixed (ω, I)
  kStats,      ///< obs registry snapshot/delta + server counters (inline)
  kHealth,     ///< health/readiness probe, handled inline by the reader
  kTrace,      ///< dump slow-request exemplars as Chrome trace JSON (inline)
  kSleep,      ///< test-only: occupy the executor for a fixed time
};

[[nodiscard]] const char* request_type_name(RequestType t) noexcept;
[[nodiscard]] std::optional<RequestType> request_type_by_name(
    std::string_view name) noexcept;

// ---------------------------------------------------------------------------
// Request parameter payloads
// ---------------------------------------------------------------------------

/// Session creation. The workload comes either from a named benchmark
/// profile or from an explicit per-block power vector (floorplan block
/// order); exactly one of the two must be provided.
struct BindParams {
  std::string benchmark;        ///< workload::benchmark_by_name() key
  std::vector<double> power_w;  ///< explicit per-block dynamic power [W]
  std::size_t grid_nx = 10;
  std::size_t grid_ny = 10;
  double t_max_c = 0.0;  ///< thermal threshold override [°C]; 0 → default
  bool with_tec = true;
  /// Force every linear solve through a direct banded factorization
  /// (EngineOptions::use_iterative = false) instead of warm-started CG.
  bool direct_solve = false;
  /// Benchmark names to pre-train a LUT controller on (one OFTEC run each
  /// at bind time); empty → session has no LUT and lut requests fail.
  std::vector<std::string> lut_training;
};

struct SolveParams {
  std::uint64_t session = 0;
  double omega = 0.0;    ///< fan speed [rad/s]
  double current = 0.0;  ///< TEC current [A]
};

struct ControlParams {
  std::uint64_t session = 0;
  /// "oftec" (Algorithm 1 / Optimization 1) or "min_temperature"
  /// (Optimization 2 to convergence).
  std::string objective = "oftec";
};

struct LutParams {
  std::uint64_t session = 0;
  std::vector<double> power_w;  ///< query per-block power [W], floorplan order
};

struct TransientParams {
  std::uint64_t session = 0;
  double omega = 0.0;
  double current = 0.0;
  double duration_s = 0.0;
  double time_step_s = 1e-3;
  bool reset = false;  ///< restart from the all-ambient state first
};

struct SessionParams {
  std::uint64_t session = 0;  ///< unbind
};

/// Live stats scrape. `view` selects a full registry snapshot or a delta
/// since the snapshot stored under `cursor` (a token returned by a previous
/// stats response; unknown/stale cursors degrade to a full snapshot with
/// "delta": false so scrapers self-heal). `format` is "json" (structured
/// obs snapshot) or "prometheus" (text exposition in result["text"]).
struct StatsParams {
  std::uint64_t session = 0;  ///< optional: include this session's detail
  std::string view = "snapshot";  ///< "snapshot" | "delta"
  std::uint64_t cursor = 0;       ///< delta base token; 0 = none
  std::string format = "json";    ///< "json" | "prometheus"
};

/// Exemplar dump. Returns captured slow-request exemplars as Chrome
/// trace_event JSON, optionally filtered to one trace id.
struct TraceParams {
  std::string trace_id;      ///< empty = all exemplars in the ring
  std::uint64_t limit = 0;   ///< max exemplars returned; 0 = server default
};

struct SleepParams {
  double ms = 0.0;
};

struct Request {
  std::uint64_t id = 0;
  RequestType type = RequestType::kPing;
  /// Relative deadline [ms] from server-side arrival; 0 = none. Expired
  /// requests get kErrDeadlineExceeded instead of being executed.
  double deadline_ms = 0.0;
  /// Optional distributed-tracing context (opaque, ≤ 128 bytes each; empty =
  /// absent on the wire). The server echoes trace_id on the response and
  /// tags slow-request exemplars with it.
  std::string trace_id;
  std::string parent_span;
  std::variant<std::monostate, BindParams, SolveParams, ControlParams,
               LutParams, TransientParams, SessionParams, SleepParams,
               StatsParams, TraceParams>
      params;
};

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

struct ErrorInfo {
  std::string code;
  std::string message;
  double retry_after_ms = 0.0;  ///< backpressure hint; meaningful for
                                ///< kErrOverloaded / kErrShuttingDown
};

struct Response {
  std::uint64_t id = 0;
  bool ok = false;
  util::json::Value result;  ///< object payload when ok
  ErrorInfo error;           ///< populated when !ok
  std::string trace_id;      ///< echo of the request's trace_id (may be "")
  /// Server-side per-stage timing breakdown (object; see timing_json), or
  /// null when the server did not stamp one. Kept as raw JSON so unknown
  /// future stages pass through; use timing_of() for the typed view.
  util::json::Value timing;
};

/// Typed view of the response `timing` block. All values are microseconds
/// measured on the server's monotonic clock. queue/batch/solve are disjoint
/// stages of total (decode → write handoff), so their sum is ≤ total_us;
/// the remainder is envelope decode/encode and scheduling slack.
struct TimingInfo {
  double decode_us = 0.0;  ///< frame decode + request parse
  double queue_us = 0.0;   ///< admission queue wait (arrival → dequeue)
  double batch_us = 0.0;   ///< batch formation wait (dequeue → execute)
  double solve_us = 0.0;   ///< handler / engine execution
  double total_us = 0.0;   ///< arrival → response handoff to the writer
  bool present = false;    ///< false when the response carried no timing
};

[[nodiscard]] util::json::Value timing_json(const TimingInfo& t);
[[nodiscard]] TimingInfo parse_timing(const util::json::Value& v);
/// Extract the timing block from a decoded response ({present:false} when
/// absent or malformed — timing is advisory, never a protocol error).
[[nodiscard]] TimingInfo timing_of(const Response& response) noexcept;

/// Typed views of response payloads (client-side convenience; the server
/// encodes with the matching *_result() builders below so both ends share
/// one schema).
struct BindReply {
  std::uint64_t session = 0;
  double t_max_k = 0.0;
  double ambient_k = 0.0;
  double omega_max = 0.0;    ///< [rad/s]
  double current_max = 0.0;  ///< [A]
  bool has_tec = false;
  std::vector<std::string> blocks;  ///< floorplan block order for power_w
};

struct SolveReply {
  bool runaway = false;
  double max_chip_temperature_k = 0.0;
  double leakage_w = 0.0;
  double tec_w = 0.0;
  double fan_w = 0.0;
  std::uint64_t iterations = 0;
};

struct ControlReply {
  std::string objective;
  bool success = false;
  bool used_opt2 = false;
  double omega = 0.0;
  double current = 0.0;
  double max_chip_temperature_k = 0.0;
  double leakage_w = 0.0;
  double tec_w = 0.0;
  double fan_w = 0.0;
  double runtime_ms = 0.0;
  std::uint64_t thermal_solves = 0;
};

struct LutReply {
  double omega = 0.0;
  double current = 0.0;
  bool feasible = false;
  std::uint64_t entry_index = 0;
  double feature_distance = 0.0;
};

struct TransientReply {
  bool runaway = false;
  double final_max_chip_temperature_k = 0.0;
  double peak_max_chip_temperature_k = 0.0;
  std::uint64_t steps = 0;
  double time_s = 0.0;  ///< session transient clock after this step
};

/// Health/readiness probe. `healthy` means the server's threads are up and
/// the reader answered at all; `accepting` distinguishes readiness — false
/// once a shutdown has begun or the admission queue is saturated, signaling
/// clients to back off before they are shed.
///
/// The reply also carries placement-relevant load data so a cluster router's
/// prober learns everything it needs in one inline round trip (no separate
/// kStats scrape): `active_sessions` counts sessions that have served at
/// least one request, `queue_depth`/`queue_capacity` describe admission
/// headroom, and `uptime_ms` distinguishes a long-lived worker from one that
/// just restarted (and therefore lost its sessions). The three new fields
/// are optional on the wire — a v1 peer that predates them parses as 0.
struct HealthReply {
  bool healthy = false;
  bool accepting = false;
  std::uint64_t sessions = 0;
  std::uint64_t active_sessions = 0;  ///< sessions with ≥ 1 served request
  std::uint64_t queue_depth = 0;
  std::uint64_t queue_capacity = 0;
  double uptime_ms = 0.0;  ///< ms since the server's start()
};

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

/// ParseOptions used for every network-facing decode.
[[nodiscard]] util::json::ParseOptions wire_parse_options(
    std::size_t max_input_bytes) noexcept;

[[nodiscard]] std::string encode_request(const Request& request);
/// Throws ProtocolError (code kErrBadRequest / kErrUnknownType) on anything
/// malformed, unknown, or out of spec.
[[nodiscard]] Request decode_request(std::string_view payload,
                                     std::size_t max_input_bytes);

[[nodiscard]] std::string encode_response(const Response& response);
[[nodiscard]] Response decode_response(std::string_view payload,
                                       std::size_t max_input_bytes);

[[nodiscard]] Response make_error_response(std::uint64_t id, std::string code,
                                           std::string message,
                                           double retry_after_ms = 0.0);
[[nodiscard]] Response make_ok_response(std::uint64_t id,
                                        util::json::Value result);

// Result-object builders (server) and parsers (client). Parsers throw
// ProtocolError on schema mismatches.
[[nodiscard]] util::json::Value bind_result_json(const BindReply& r);
[[nodiscard]] BindReply parse_bind_reply(const util::json::Value& v);
[[nodiscard]] util::json::Value solve_result_json(const SolveReply& r);
[[nodiscard]] SolveReply parse_solve_reply(const util::json::Value& v);
[[nodiscard]] util::json::Value control_result_json(const ControlReply& r);
[[nodiscard]] ControlReply parse_control_reply(const util::json::Value& v);
[[nodiscard]] util::json::Value lut_result_json(const LutReply& r);
[[nodiscard]] LutReply parse_lut_reply(const util::json::Value& v);
[[nodiscard]] util::json::Value transient_result_json(const TransientReply& r);
[[nodiscard]] TransientReply parse_transient_reply(const util::json::Value& v);
[[nodiscard]] util::json::Value health_result_json(const HealthReply& r);
[[nodiscard]] HealthReply parse_health_reply(const util::json::Value& v);

}  // namespace oftec::serve
