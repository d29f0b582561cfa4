// In-process workloads.
//
//   inproc_adv_1024  closed loop into service::AdderService::submit_many,
//                    64-request chunks, a fixed number of chunks in
//                    flight; Complementary operands, so ER fires on
//                    almost every request and the recovery lane carries
//                    the load
//   mc_1024          workloads::run_batch_monte_carlo queries, 2 threads,
//                    lanes pinned; flag and wrong tallies checked against
//                    the analytic probabilities

#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <string>

#include "analysis/aca_probability.hpp"
#include "harness.hpp"
#include "sim/batch_engine.hpp"
#include "workloads/batch_monte_carlo.hpp"

namespace perfbench {
namespace {

using vlsa::service::AdderService;
using vlsa::service::Completion;

constexpr std::size_t kPoolSize = 4096;
constexpr int kChunk = 64;            // requests per submit_many
constexpr std::size_t kChunksInFlight = 8;    // closed-loop depth

struct Chunk {
  std::uint64_t submitted_ns = 0;
  std::size_t first = 0;  ///< pool index of element 0
  std::vector<std::optional<std::future<Completion>>> futures;
};

class InprocLoop {
 public:
  InprocLoop(const Pool& pool, AdderService& service, Result& out)
      : pool_(pool), service_(service), spans_(out.spans), out_(out) {}

  /// Closed loop until `end_ns`; the answered-OK rate of every
  /// kRateWindowNs window into `rates` when given, and a latency slice
  /// closed every `slice_windows` windows.
  void run(std::uint64_t end_ns, std::vector<double>* rates,
           int slice_windows) {
    std::uint64_t slice_start = now_ns();
    long long slice_ok = ok_;
    int slices = 0;
    while (now_ns() < end_ns) {
      while (in_flight_.size() < kChunksInFlight) submit();
      complete(in_flight_.front());
      in_flight_.pop_front();
      const std::uint64_t t = now_ns();
      if (rates != nullptr && t - slice_start >= kRateWindowNs) {
        rates->push_back(static_cast<double>(ok_ - slice_ok) * 1e9 /
                         static_cast<double>(t - slice_start));
        slice_start = t;
        slice_ok = ok_;
        if (++slices % slice_windows == 0 && latency != nullptr) {
          latency->cut();
        }
      }
    }
  }

  void drain() {
    while (!in_flight_.empty()) {
      complete(in_flight_.front());
      in_flight_.pop_front();
    }
  }

  long long ok() const { return ok_; }
  LatencySlices* latency = nullptr;

 private:
  void submit() {
    std::vector<std::pair<BitVec, BitVec>> ops;
    Chunk chunk;
    {
      // The operand copies are the caller's, not the program's.
      const AllocExclude own;
      ops.reserve(kChunk);
      for (int i = 0; i < kChunk; ++i) {
        ops.push_back(pool_.ops[(next_ + i) % pool_.size()]);
      }
    }
    chunk.first = next_ % pool_.size();
    next_ += kChunk;
    out_.attempted += kChunk;
    chunk.submitted_ns = now_ns();
    chunk.futures = service_.submit_many(std::move(ops));
    spans_.add("service.submit_many", chunk.submitted_ns, now_ns(), kChunk);
    const AllocExclude own;
    in_flight_.push_back(std::move(chunk));
  }

  void complete(Chunk& chunk) {
    for (std::size_t j = 0; j < chunk.futures.size(); ++j) {
      auto& f = chunk.futures[j];
      if (!f.has_value()) {
        out_.fail("submit_many rejected a request under Block");
        continue;
      }
      const std::uint64_t t0 = now_ns();
      const Completion c = f->get();
      const std::uint64_t t1 = now_ns();
      spans_.add("service.future_wait", t0, t1, 1);
      const std::size_t i = (chunk.first + j) % pool_.size();
      if (c.sum != pool_.sum[i]) {
        out_.fail("wrong sum");
      } else if (c.flagged != (pool_.flag[i] != 0)) {
        out_.fail("ER flag differs from core::aca_flag");
      } else if (c.speculative_wrong != (pool_.wrong[i] != 0)) {
        out_.fail("speculative_wrong differs from core::aca_add");
      } else {
        ++ok_;
        if (latency != nullptr) {
          latency->add(static_cast<double>(t1 - chunk.submitted_ns));
        }
      }
    }
  }

  const Pool& pool_;
  AdderService& service_;
  Spans& spans_;
  Result& out_;
  std::deque<Chunk> in_flight_;
  std::size_t next_ = 0;
  long long ok_ = 0;
};

}  // namespace

void run_inproc_adv(const Args& args, const WorkloadSpec& spec, Result& out) {
  const Pool pool = make_pool(spec, args.seed, kPoolSize);
  const auto config = serve_defaults(spec.width, spec.window);
  const double setup_s =
      median_setup_seconds(kSetupReps, [&] {
        return std::make_unique<AdderService>(config);
      });
  LatencySlices latency;
  {
    AdderService service(config);
    InprocLoop loop(pool, service, out);
    loop.run(ns_after(1.0), nullptr, 1);  // warm
    if (!args.trace) {
      std::vector<double> rates;
      loop.latency = &latency;
      const std::uint64_t t0 = now_ns();
      const long long ok0 = loop.ok();
      loop.run(ns_after(args.seconds), &rates, kP50SliceWindows);
      const auto answered = static_cast<double>(loop.ok() - ok0);
      const auto wall = static_cast<double>(now_ns() - t0);
      loop.drain();
      out.set("throughput_rps", closed_loop_rate(rates, answered, wall));
      out.set("p50_us", slice_stat("p50_us", latency.p50s(),
                                   kLatencySliceQuantile, 1e3));
    } else {
      // Untraced reference (it also gives latency.p99_us), then the same
      // loop traced.
      std::vector<double> ref_rates;
      loop.latency = &latency;
      const std::uint64_t r0 = now_ns();
      const long long ok_r = loop.ok();
      loop.run(ns_after(args.seconds * 0.3), &ref_rates, kP99SliceWindows);
      const double ref_ns = static_cast<double>(now_ns() - r0) /
                            static_cast<double>(loop.ok() - ok_r);
      loop.latency = nullptr;
      latency.cut();
      out.set("latency.p99_us",
              slice_stat("latency.p99_us", latency.p99s(), 0.5, 1e3));
      out.set("throughput.p90_over_mean",
              quantile(ref_rates, kRateQuantile) * ref_ns / 1e9);
      TracedPhase ph(out, &service.registry(), false);
      const long long ok0 = loop.ok();
      loop.run(ns_after(args.seconds * 0.4), nullptr, 1);
      ph.end(loop.ok() - ok0);
      loop.drain();
      record_registry_layers(ph.reg, out);
      const double n = ph.requests();
      const double e2e = ph.wall_ns() / n;
      out.set("trace.overhead_frac", e2e / ref_ns - 1.0);
      const double submit = out.spans.total_ns("service.submit_many") / n;
      out.set("service.submit_ns", submit);
      out.set("client.recv_ns",
              out.spans.total_ns("service.future_wait") / n);

      const double budget = args.seconds * 0.3;
      const int occupancy = std::max(
          1, static_cast<int>(std::lround(out.get("service.occupancy"))));
      replay_layers(pool, occupancy, budget * 0.7, out);
      const double pump = replay_pump_ns(pool, occupancy, budget * 0.3);
      out.set("service.pump_ns", pump);
      const double pack = out.get("sim.pack_ns"), eval = out.get("sim.eval_ns"),
                   unpack = out.get("sim.unpack_ns");
      const double recovery =
          out.get("service.recovered_frac") * out.get("core.exact_add_ns");
      out.e2e_ns = e2e;
      out.e2e_definition = "wall ns / answered request (closed loop)";
      // Busy time per request on the request path.  The dispatcher and
      // the recovery lane are separate threads, so with most requests
      // flagged the recovery lane is the serial resource: its row
      // carries the exact-add compute, the remainder of its per-request
      // time (hand-off, completion) lands in unattributed_ns.
      out.stages = {{"service.submit_many", submit},
                    {"service.dispatch",
                     pump - pack - eval - unpack - recovery},
                    {"sim.pack", pack},
                    {"sim.eval", eval},
                    {"sim.unpack", unpack},
                    {"core.recovery", recovery}};
    }
  }
  out.set("setup_s", setup_s);
}

namespace {

constexpr int kMcThreads = 2;
constexpr int kMcLanes = 256;
// Two shards of the driver (512 batches each) per query, so both
// threads have work.
constexpr long long kTrialsPerQuery = 2LL * 512 * kMcLanes;

vlsa::workloads::BatchMcConfig mc_config(int width, int window) {
  vlsa::workloads::BatchMcConfig config;
  config.width = width;
  config.window = window;
  config.threads = kMcThreads;
  config.lanes = kMcLanes;
  config.collect_runs = false;
  return config;
}

/// The MC oracle: flagged and wrong tallies against the analytic rates,
/// within 6 binomial standard deviations (plus one count of slack for
/// tiny expectations).
void check_mc_tallies(int width, int window, long long trials,
                      long long flagged, long long wrong, Result& out) {
  const double n = static_cast<double>(trials);
  auto within = [&](long long observed, double p, const char* what) {
    const double expect = n * p;
    const double sd = std::sqrt(n * p * (1 - p));
    const bool ok =
        std::fabs(static_cast<double>(observed) - expect) <= 6 * sd + 1;
    std::printf("# mc oracle: %s %lld of %lld (expected %.1f, sd %.1f)%s\n",
                what, observed, trials, expect, sd, ok ? "" : " FAIL");
    if (!ok) {
      out.fail(std::string("MC ") + what + " rate outside binomial bound");
    }
  };
  namespace analysis = vlsa::analysis;
  within(flagged, analysis::aca_flag_probability(width, window), "flagged");
  within(wrong, analysis::aca_wrong_probability(width, window), "wrong");
}

}  // namespace

double replay_mc_query_ns(double budget_s, Result& out) {
  constexpr int kWidth = 1024, kWindow = 23;  // as mc_1024
  auto config = mc_config(kWidth, kWindow);
  config.trials = kTrialsPerQuery;
  long long trials = 0, flagged = 0, wrong = 0;
  double ns = 0;
  const std::uint64_t end = ns_after(budget_s);
  do {
    config.seed = static_cast<std::uint64_t>(trials) + 1;
    const std::uint64_t t0 = now_ns();
    const auto r = vlsa::workloads::run_batch_monte_carlo(config);
    ns += static_cast<double>(now_ns() - t0);
    trials += r.tally.trials;
    flagged += r.tally.flagged;
    wrong += r.tally.wrong;
  } while (now_ns() < end);
  check_mc_tallies(kWidth, kWindow, trials, flagged, wrong, out);
  return ns / static_cast<double>(trials);
}

void run_mc(const Args& args, const WorkloadSpec& spec, Result& out) {
  const auto config = mc_config(spec.width, spec.window);

  // Set-up: the time to a first answer of the smallest query (one
  // batch), i.e. pool spawn and kernel dispatch.
  const double setup_s = median_setup_seconds(kSetupReps, [&] {
    auto c = config;
    c.trials = kMcLanes;
    c.seed = args.seed;
    return vlsa::workloads::run_batch_monte_carlo(c);
  });

  long long trials = 0, flagged = 0, wrong = 0;
  std::uint64_t query = 0;
  auto run_query = [&]() {
    auto c = config;
    c.trials = kTrialsPerQuery;
    c.seed = args.seed * 0x9E3779B97F4A7C15ULL + query++;
    const std::uint64_t t0 = now_ns();
    const auto r = vlsa::workloads::run_batch_monte_carlo(c);
    const std::uint64_t t1 = now_ns();
    out.spans.add("workloads.run_batch_monte_carlo", t0, t1,
              static_cast<std::uint64_t>(r.tally.trials));
    trials += r.tally.trials;
    flagged += r.tally.flagged;
    wrong += r.tally.wrong;
    out.attempted += r.tally.trials;
    if (r.tally.wrong > r.tally.flagged) out.fail("wrong > flagged in a query");
    return std::pair<double, long long>(static_cast<double>(t1 - t0),
                                        r.tally.trials);
  };

  for (const std::uint64_t warm_end = ns_after(0.5); now_ns() < warm_end;) {
    run_query();
  }
  if (!args.trace) {
    std::vector<double> lat_ns, rates;
    const std::uint64_t end = ns_after(args.seconds);
    while (now_ns() < end) {
      const auto [ns, n] = run_query();
      lat_ns.push_back(ns);
      rates.push_back(static_cast<double>(n) * 1e9 / ns);
    }
    // The median query: the kernel is compute-bound, so a query's rate
    // tracks the host's clock, and a high quantile only picks out the
    // rare fast ones.
    out.set("throughput_rps", slice_stat("throughput_rps", rates, 0.5));
    out.set("p50_us", quantile(lat_ns, 0.50) / 1e3);
  } else {
    // Untraced reference (it also gives latency.p99_us), then traced.
    std::vector<double> ref_lat_ns;
    const std::uint64_t r0 = now_ns();
    const long long tr0 = trials;
    for (const std::uint64_t end = ns_after(args.seconds * 0.3);
         now_ns() < end;) {
      ref_lat_ns.push_back(run_query().first);
    }
    const double ref_ns = static_cast<double>(now_ns() - r0) /
                          static_cast<double>(trials - tr0);
    out.set("latency.p99_us", quantile(ref_lat_ns, 0.99) / 1e3);
    TracedPhase ph(out, nullptr, false);
    const long long tr1 = trials;
    for (const std::uint64_t end = ns_after(args.seconds * 0.4);
         now_ns() < end;) {
      run_query();
    }
    ph.end(trials - tr1);
    const double e2e = ph.wall_ns() / ph.requests();
    out.set("trace.overhead_frac", e2e / ref_ns - 1.0);
    // Replays: the kernel per trial on one thread, every tier.
    Pool pool = make_pool(spec, args.seed, 512);
    replay_layers(pool, kMcLanes, args.seconds * 0.3, out);
    const double kernel = out.get("sim.mc_trial_ns") / kMcThreads;
    out.e2e_ns = e2e;
    out.e2e_definition = "wall ns / trial, 2 threads";
    out.stages = {{"sim.mc_trial (per thread-share)", kernel}};
  }

  check_mc_tallies(spec.width, spec.window, trials, flagged, wrong, out);
  out.set("setup_s", setup_s);
}

}  // namespace perfbench
