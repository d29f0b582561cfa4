#include "workloads/load_gen.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <optional>
#include <vector>

#include "net/client.hpp"

namespace vlsa::workloads {

namespace {

using Clock = std::chrono::steady_clock;

// Exponential variate with the given rate (events/sec), in seconds.
double exp_interval(util::Rng& rng, double rate_per_sec) {
  // 1 - next_double() is in (0, 1], so the log is finite.
  return -std::log(1.0 - rng.next_double()) / rate_per_sec;
}

// Two-state modulated Poisson process: on-state at burst_factor * rate,
// off-state scaled so the long-run mean is `rate`.  Sojourn times are
// exponential; interarrival sampling advances across state boundaries.
class ArrivalClock {
 public:
  ArrivalClock(const LoadGenConfig& config, util::Rng rng)
      : config_(config), rng_(std::move(rng)) {
    if (config_.arrival == ArrivalProcess::Bursty) {
      if (config_.burst_factor * config_.burst_fraction >= 1.0) {
        throw std::invalid_argument(
            "LoadGenConfig: burst_factor * burst_fraction must be < 1");
      }
      state_remaining_s_ = next_sojourn();
    }
  }

  /// Seconds (since the previous arrival) until the next one.
  double next_interval() {
    switch (config_.arrival) {
      case ArrivalProcess::Saturate:
        return 0.0;
      case ArrivalProcess::Poisson:
        return exp_interval(rng_, config_.rate_per_sec);
      case ArrivalProcess::Bursty: {
        double waited = 0.0;
        for (;;) {
          const double dt = exp_interval(rng_, current_rate());
          if (dt <= state_remaining_s_) {
            state_remaining_s_ -= dt;
            return waited + dt;
          }
          waited += state_remaining_s_;
          in_burst_ = !in_burst_;
          state_remaining_s_ = next_sojourn();
        }
      }
    }
    throw std::logic_error("ArrivalClock: bad arrival process");
  }

  /// Phase the most recently sampled arrival lands in (next_interval
  /// advances the on/off state machine before returning).
  bool in_burst() const { return in_burst_; }

 private:
  double current_rate() const {
    if (!in_burst_) {
      const double f = config_.burst_fraction;
      return config_.rate_per_sec * (1.0 - f * config_.burst_factor) /
             (1.0 - f);
    }
    return config_.rate_per_sec * config_.burst_factor;
  }

  double next_sojourn() {
    const double f = config_.burst_fraction;
    const double mean_s = in_burst_
                              ? config_.mean_burst_ms * 1e-3
                              : config_.mean_burst_ms * 1e-3 * (1.0 - f) / f;
    return exp_interval(rng_, 1.0 / mean_s);
  }

  const LoadGenConfig& config_;
  util::Rng rng_;
  bool in_burst_ = false;
  double state_remaining_s_ = 0.0;
};

}  // namespace

const char* arrival_process_name(ArrivalProcess p) {
  switch (p) {
    case ArrivalProcess::Poisson:
      return "poisson";
    case ArrivalProcess::Bursty:
      return "bursty";
    case ArrivalProcess::Saturate:
      return "saturate";
  }
  throw std::invalid_argument("arrival_process_name: bad process");
}

LoadGenReport run_load_gen(service::AdderService& service,
                           const LoadGenConfig& config) {
  const int width = service.config().pipeline.width;
  OperandStream operands(config.distribution, width, config.seed);
  // Arrival times draw from an independent substream so changing the
  // operand distribution never reshapes the arrival process.
  ArrivalClock arrivals(config, util::Rng(config.seed).split(0x715e));

  LoadGenReport report;
  const auto start = Clock::now();
  auto scheduled = start;
  for (long long i = 0; i < config.requests; ++i) {
    scheduled += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(arrivals.next_interval()));
    // Open loop: sleep only when ahead of schedule; when behind, submit
    // immediately (catch-up burst) instead of thinning the load.
    if (scheduled > Clock::now()) std::this_thread::sleep_until(scheduled);
    auto [a, b] = operands.next();
    PhaseStats& phase = arrivals.in_burst() ? report.burst : report.steady;
    ++report.offered;
    ++phase.offered;
    // Completions are discarded here — the service records latency and
    // outcome telemetry for every request; see service.registry().
    const auto submit_start = Clock::now();
    const bool accepted =
        service.submit(std::move(a), std::move(b)).has_value();
    phase.submit_stall_s +=
        std::chrono::duration<double>(Clock::now() - submit_start).count();
    if (accepted) {
      ++report.accepted;
      ++phase.accepted;
    } else {
      ++report.rejected;
      ++phase.rejected;
    }
  }
  service.flush();
  report.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  report.achieved_rate =
      report.seconds > 0.0 ? report.accepted / report.seconds : 0.0;
  return report;
}

namespace {

/// One connection's share of the run (its own thread).
struct ConnStats {
  long long offered = 0;
  long long ok = 0;
  long long rejected = 0;
  long long errors = 0;
  long long recovered = 0;
};

/// Send timestamps for in-flight requests.  The client's ids are
/// sequential and at most `max_outstanding` are unanswered, so a
/// power-of-two ring indexed by id replaces a hash map on the
/// per-request hot path.  A zero timestamp means "not in flight".
class SentAtRing {
 public:
  explicit SentAtRing(int max_outstanding) {
    std::size_t cap = 1;
    while (cap < static_cast<std::size_t>(max_outstanding) * 2) cap <<= 1;
    slots_.resize(cap);
  }

  struct Sent {
    Clock::time_point at{};
    bool burst = false;  ///< arrival phase at send time
  };

  void insert(std::uint64_t id, Clock::time_point t, bool burst) {
    slots_[id & (slots_.size() - 1)] = Slot{id, t, burst};
  }

  /// Removes and returns the send record, or nullopt if unknown.
  std::optional<Sent> take(std::uint64_t id) {
    Slot& slot = slots_[id & (slots_.size() - 1)];
    if (slot.id != id || slot.at == Clock::time_point{}) return std::nullopt;
    const Sent sent{slot.at, slot.burst};
    slot.at = Clock::time_point{};
    return sent;
  }

  long long in_flight() const {
    long long n = 0;
    for (const auto& slot : slots_) {
      if (slot.at != Clock::time_point{}) ++n;
    }
    return n;
  }

 private:
  struct Slot {
    std::uint64_t id = 0;
    Clock::time_point at{};
    bool burst = false;
  };
  std::vector<Slot> slots_;
};

/// Client-observed e2e latency sinks: the aggregate and the per-phase
/// split (steady vs burst arrivals).  Phase attribution happens at
/// *send* time — what matters for tail analysis is what the request
/// experienced, and a request launched inside a burst rides the
/// congested queue no matter when its response lands.
struct E2eHistograms {
  telemetry::Histogram* all = nullptr;
  telemetry::Histogram* steady = nullptr;
  telemetry::Histogram* burst = nullptr;
};

void count_response(const net::ResponseFrame& response, SentAtRing& sent_at,
                    const E2eHistograms& e2e, ConnStats& stats) {
  if (const auto sent = sent_at.take(response.id)) {
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             sent->at)
            .count());
    if (e2e.all != nullptr) e2e.all->record(ns);
    telemetry::Histogram* phase = sent->burst ? e2e.burst : e2e.steady;
    if (phase != nullptr) phase->record(ns);
  }
  switch (response.status) {
    case net::Status::Ok:
      ++stats.ok;
      if ((response.flags & net::kFlagRecovered) != 0) ++stats.recovered;
      break;
    case net::Status::Rejected:
      ++stats.rejected;
      break;
    case net::Status::Error:
      ++stats.errors;
      break;
  }
}

void run_connection(const NetLoadGenConfig& config, int index,
                    long long requests, ConnStats& stats) {
  // Per-connection substreams: the aggregate arrival process is the
  // superposition of `connections` thinned processes, and operands
  // never repeat across connections.
  const std::uint64_t seed =
      util::Rng(config.base.seed)
          .split(0xc0 + static_cast<std::uint64_t>(index))
          .next_u64();
  OperandStream operands(config.base.distribution, config.width, seed);
  LoadGenConfig arrival_config = config.base;
  arrival_config.rate_per_sec =
      config.base.rate_per_sec / std::max(config.connections, 1);
  ArrivalClock arrivals(arrival_config, util::Rng(seed).split(0x715e));

  E2eHistograms e2e;
  if (config.registry != nullptr) {
    e2e.all = &config.registry->histogram("netclient.e2e_ns");
    e2e.steady = &config.registry->histogram("netclient.e2e_steady_ns");
    // The burst histogram only exists for the arrival process that has
    // a burst phase, so scrapes never show a phantom all-zero phase.
    if (config.base.arrival == ArrivalProcess::Bursty) {
      e2e.burst = &config.registry->histogram("netclient.e2e_burst_ns");
    }
  }

  SentAtRing sent_at(config.max_outstanding);
  net::Client client(config.host, config.port);
  // Cork the client: back-to-back sends coalesce into one write(2) per
  // ~64 KiB.  Any pause flushes first (below, and recv() always does),
  // so paced arrivals still leave on schedule — only saturating bursts
  // batch up.
  client.cork(true);
  auto scheduled = Clock::now();
  try {
    for (long long i = 0; i < requests; ++i) {
      if (config.stop != nullptr &&
          config.stop->load(std::memory_order_relaxed)) {
        break;
      }
      scheduled += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(arrivals.next_interval()));
      if (scheduled > Clock::now()) {
        client.flush();
        std::this_thread::sleep_until(scheduled);
      }
      // Hysteresis on the pipelining window: draining to half (rather
      // than popping exactly one response per send) keeps the sender in
      // send-bursts and recv-bursts.  Lock-step send-1/recv-1 would
      // flush the cork every frame — one small write(2) per request —
      // and the syscall rate, not the service, becomes the ceiling.
      if (client.outstanding() >=
          static_cast<std::size_t>(config.max_outstanding)) {
        // Half of a window of 1 is 0: drain it completely.
        const auto low =
            static_cast<std::size_t>(config.max_outstanding / 2);
        while (client.outstanding() > low) {
          count_response(client.recv(), sent_at, e2e, stats);
        }
      }
      auto [a, b] = operands.next();
      // A paced request is timed from when it was due, so a generator
      // that falls behind its schedule (a full window, a slow server)
      // counts the delay as latency instead of hiding it; Saturate has
      // no schedule and times from the actual send.
      const auto t0 = config.base.arrival == ArrivalProcess::Saturate
                          ? Clock::now()
                          : scheduled;
      const std::uint64_t id = client.send(a, b);
      sent_at.insert(id, t0, arrivals.in_burst());
      ++stats.offered;
    }
    while (client.outstanding() > 0) {
      count_response(client.recv(), sent_at, e2e, stats);
    }
  } catch (const std::exception&) {
    // Broken connection or protocol violation: every unanswered request
    // is an error.  The other connections keep running.
    stats.errors += sent_at.in_flight();
  }
}

}  // namespace

NetLoadGenReport run_load_gen_net(const NetLoadGenConfig& config) {
  if (config.connections < 1) {
    throw std::invalid_argument("NetLoadGenConfig: connections must be >= 1");
  }
  if (config.max_outstanding < 1) {
    throw std::invalid_argument(
        "NetLoadGenConfig: max_outstanding must be >= 1");
  }
  // Probe the server before spawning threads so an unreachable address
  // fails fast with one clean error.
  { net::Client probe(config.host, config.port); }

  const int n = config.connections;
  std::vector<ConnStats> stats(static_cast<std::size_t>(n));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  const long long per_conn = config.base.requests / n;
  const long long remainder = config.base.requests % n;

  const auto start = Clock::now();
  for (int i = 0; i < n; ++i) {
    const long long share = per_conn + (i < remainder ? 1 : 0);
    threads.emplace_back([&config, i, share, &stats] {
      run_connection(config, i, share, stats[static_cast<std::size_t>(i)]);
    });
  }
  for (auto& t : threads) t.join();

  NetLoadGenReport report;
  for (const ConnStats& s : stats) {
    report.offered += s.offered;
    report.ok += s.ok;
    report.rejected += s.rejected;
    report.errors += s.errors;
    report.recovered += s.recovered;
  }
  report.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  report.achieved_rate =
      report.seconds > 0.0 ? report.ok / report.seconds : 0.0;
  if (config.registry != nullptr) {
    config.registry->counter("netclient.ok").increment(report.ok);
    config.registry->counter("netclient.rejected").increment(report.rejected);
    config.registry->counter("netclient.error").increment(report.errors);
  }
  return report;
}

}  // namespace vlsa::workloads
