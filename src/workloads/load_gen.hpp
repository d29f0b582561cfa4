#pragma once
// Open-loop load generator for the arithmetic service.
//
// Closed-loop drivers (submit, wait, submit) can never expose queueing
// collapse: the producer slows down with the server and the tail looks
// flat.  This generator is open-loop — arrival times come from a
// modeled process (Poisson, or a two-state bursty modulated Poisson),
// independent of how the service is doing; if the generator falls
// behind wall-clock schedule it submits in a catch-up burst rather
// than thinning the offered load.  Combined with the service's bounded
// queue this is what produces honest p99/p999 numbers: under Reject
// overload turns into a measured rejection rate, under Block into
// producer throttling.
//
// Operands come from the operand_stream distributions, so the same
// sweep covers the paper's uniform model and the adversarial
// `Complementary` traffic whose near-certain ER flags congest the
// recovery lane.

#include <atomic>
#include <cstdint>
#include <string>

#include "service/service.hpp"
#include "util/rng.hpp"
#include "workloads/operand_stream.hpp"

namespace vlsa::workloads {

/// Arrival process shapes.
enum class ArrivalProcess {
  Poisson,   ///< exponential interarrivals at `rate_per_sec`
  Bursty,    ///< two-state modulated Poisson (on/off), same mean rate
  Saturate,  ///< no pacing: submit as fast as the service accepts
};

const char* arrival_process_name(ArrivalProcess p);

struct LoadGenConfig {
  Distribution distribution = Distribution::Uniform;
  ArrivalProcess arrival = ArrivalProcess::Poisson;
  double rate_per_sec = 100'000.0;  ///< mean offered rate (not Saturate)
  long long requests = 1 << 16;     ///< total arrivals to offer
  std::uint64_t seed = 0x10adULL;
  /// Bursty shape: the on-state offers `burst_factor * rate_per_sec`
  /// for an expected `burst_fraction` of the time; the off-state rate
  /// is scaled down so the long-run mean stays `rate_per_sec`.
  /// Requires burst_factor * burst_fraction < 1.
  double burst_factor = 8.0;
  double burst_fraction = 0.1;
  double mean_burst_ms = 2.0;  ///< expected on-state sojourn
};

/// Backpressure accounting for one arrival phase.  The two overflow
/// policies push back in different currencies — Reject rejects
/// submissions, Block stalls the producer — and a single aggregate
/// `rejected` count collapsed them (Block always reported 0 and the
/// throttling was invisible).  Each phase now reports both.
struct PhaseStats {
  long long offered = 0;
  long long accepted = 0;
  long long rejected = 0;  ///< Reject policy (and pump-mode overflow)
  /// Wall time spent inside submit() for this phase's arrivals.  Under
  /// Block this is dominated by producer throttling on a full queue;
  /// under Reject it stays near zero.
  double submit_stall_s = 0.0;
};

struct LoadGenReport {
  long long offered = 0;
  long long accepted = 0;
  long long rejected = 0;
  double seconds = 0.0;        ///< submit window + drain (flush)
  double achieved_rate = 0.0;  ///< completed accepted requests / second
  /// Per-phase breakdown: `steady` covers Poisson/Saturate arrivals and
  /// the Bursty off-state; `burst` covers the Bursty on-state (always
  /// zero for the other processes).
  PhaseStats steady;
  PhaseStats burst;
};

/// Drive `service` with the configured arrival stream, then flush it.
/// Completions are consumed by the service's own telemetry — read the
/// latency histograms from `service.registry()` afterwards.
LoadGenReport run_load_gen(service::AdderService& service,
                           const LoadGenConfig& config);

// ---------------------------------------------------------------------
// Network mode: the same arrival processes and operand distributions,
// offered over TCP through net/client.hpp instead of in-process
// submit().  Each connection gets its own thread, client, and
// independent RNG substreams; the offered rate and request budget are
// split evenly across connections, so `base.rate_per_sec` stays the
// AGGREGATE rate.

struct NetLoadGenConfig {
  LoadGenConfig base;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Operand width in bits; must match the server's configured width or
  /// every frame comes back Status::Error.
  int width = 64;
  int connections = 4;
  /// Pipelining cap per connection: when this many requests are
  /// unanswered the sender blocks in recv() before sending more.  Keeps
  /// the bytes parked in socket buffers bounded (a TCP-deadlock guard:
  /// both sides writing with nobody reading) while still letting the
  /// server batch deeply.
  int max_outstanding = 256;
  /// When set, client-observed end-to-end latency lands in histograms
  /// here, timed from when a paced (Poisson/Bursty) request was due —
  /// so a generator that falls behind its schedule reports the delay —
  /// and from the actual send under Saturate: `netclient.e2e_ns`
  /// (aggregate), `netclient.e2e_steady_ns`,
  /// and, for Bursty arrivals, `netclient.e2e_burst_ns` (phase decided
  /// at send time) — and outcomes in `netclient.{ok,rejected,error}`
  /// counters.  Must outlive the call.
  telemetry::Registry* registry = nullptr;
  /// When set, arrival loops stop offering as soon as it turns true
  /// (the CLI's SIGINT hook); in-flight requests still drain.
  const std::atomic<bool>* stop = nullptr;
};

struct NetLoadGenReport {
  long long offered = 0;
  long long ok = 0;        ///< Status::Ok responses
  long long rejected = 0;  ///< Status::Rejected (server queue full)
  long long errors = 0;    ///< Status::Error or broken connections
  long long recovered = 0; ///< responses with the ER/recovery flag set
  double seconds = 0.0;
  double achieved_rate = 0.0;  ///< ok responses / second
};

/// Drive host:port with `connections` concurrent pipelined clients.
/// Throws net::ConnectionError when the initial connects fail.
NetLoadGenReport run_load_gen_net(const NetLoadGenConfig& config);

}  // namespace vlsa::workloads
