#pragma once
// Shared pieces of the perfbench driver: arguments, the operand pool and
// its oracles, raw-sample percentiles, process counters, the in-memory
// span recorder, and the result every workload fills in.
//
// Nothing here is timed code of the program under test; it is the
// benchmark's own scaffolding (see perfbench/NOTES.md).

#include <chrono>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/service.hpp"
#include "telemetry/registry.hpp"
#include "util/bitvec.hpp"
#include "workloads/operand_stream.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using vlsa::util::BitVec;

/// Nanoseconds on the steady clock (one epoch for every timestamp).
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// now_ns() `seconds` from now.
inline std::uint64_t ns_after(double seconds) {
  return now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  ///< where a traced run writes its spans
};

/// Settings of one workload (fixed per name; only the seed varies).
struct WorkloadSpec {
  std::string name;
  vlsa::workloads::Distribution distribution;
  int width = 1024;
  int window = 23;
};

/// A fixed-size pool of operand pairs with every expected output
/// computed up front by the slow oracles (BitVec::add_with_carry,
/// core::aca_flag, core::aca_add), outside any timed region.
struct Pool {
  int width = 0;
  int window = 0;
  std::vector<std::pair<BitVec, BitVec>> ops;
  std::vector<BitVec> sum;          ///< exact sum (width bits)
  std::vector<std::uint8_t> flag;   ///< ER
  std::vector<std::uint8_t> wrong;  ///< speculative sum or carry wrong
  std::size_t size() const { return ops.size(); }
};

Pool make_pool(const WorkloadSpec& spec, std::uint64_t seed,
               std::size_t size);

/// Quantile q in [0, 1] of raw samples, linearly interpolated between
/// order statistics.  Reorders `v`.  0 when empty.
double quantile(std::vector<double>& v, double q);

/// Quantile `q` of per-slice values divided by `scale`, after printing
/// their spread within the run as a `#` line (count, p10, p50, p90).
double slice_stat(const char* name, std::vector<double> v, double q,
                  double scale = 1.0);

/// Throughput windows.  A closed loop's throughput_rps is the
/// kRateQuantile quantile of its answered-OK rate over kRateWindowNs
/// windows: the rate the program sustains while the host lets it run.
/// On a shared 4-vCPU host, preemption bursts of 1-20 ms moved the
/// median over 250 ms windows by about 30% between runs.  The p90 over
/// 10 ms windows moved less, and over 2 ms windows less again: with
/// 12-14% of the host's CPU stolen, 2 ms windows still find stretches
/// no burst touched (perfbench/NOTES.md).
constexpr std::uint64_t kRateWindowNs = 2000000;
constexpr double kRateQuantile = 0.9;
/// A closed loop's throughput_rps from its window rates, after printing
/// the mean rate over the phase (`answered` ÷ `wall_ns`) beside it.  A
/// stall that touches fewer windows than the quantile skips moves the
/// mean but not the quantile, so a mean that falls while the quantile
/// holds marks such a change.
double closed_loop_rate(const std::vector<double>& rates, double answered,
                        double wall_ns);
/// Closed loops cut a latency slice every this many rate windows.  For
/// p50_us, every window: a slice then closes at the first window end
/// with 1000 samples in it, 2-4 ms on these workloads, short enough to
/// fall between host preemption bursts as the rate windows do.  With
/// 2-15% of the host's CPU stolen, eight tcp_sat_1024 runs spread 0.07
/// over slices of about 2 ms and 0.18 over 1 s slices.  The tail (latency.p99_us, traced
/// runs) keeps 1 s slices, so that one slice holds a burst whole.
constexpr int kP50SliceWindows = 1;
constexpr int kP99SliceWindows = 500;
/// p50_us is this quantile over the slices' p50s: the latency the
/// program delivers while the host lets it run, the mirror of
/// kRateQuantile.  In a period with 4-9% of the host's CPU stolen, ten
/// tcp_poisson_64 runs (1 s slices) spread 0.14 by the median over
/// slices and 0.05 by this (perfbench/NOTES.md).
constexpr double kLatencySliceQuantile = 0.1;

/// Raw latency samples cut into time slices.  Each slice with enough
/// samples for its p99 (>= 1000, so ten lie beyond it) yields its own
/// p50 and p99; a run reports a quantile over slices, so one stall
/// moves one slice instead of the whole run.  Storage is allocated and
/// touched up front so memory does not grow with the request rate.
///
/// cut() only marks where a slice ends.  The quantiles are computed when
/// p50s() or p99s() are read, or when the buffer could not hold two more
/// slices of the last one's size, so a cut does not stall a load
/// generator once a second (a 25 s open loop at 50 000 req/s computes
/// nothing before it ends).
class LatencySlices {
 public:
  LatencySlices();
  void add(double ns) {
    if (samples_.size() < samples_.capacity()) {
      samples_.push_back(static_cast<float>(ns));
    }
    sum_ += ns;
    ++count_;
  }
  /// Close the current slice (kept open when it is still too small).
  void cut();
  /// Quantile of the open slice's samples (the ladder judges each step
  /// whole).
  double current(double q);
  /// Drop the open slice's samples.
  void clear_current() { samples_.resize(open_); }
  const std::vector<double>& p50s() {
    settle();
    return p50_;
  }
  const std::vector<double>& p99s() {
    settle();
    return p99_;
  }
  /// Mean of every sample since construction or reset().
  double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  void reset();

 private:
  /// Quantiles of every closed slice; their samples are dropped.
  void settle();
  /// Copy samples [begin, end) into scratch_.
  void load(std::size_t begin, std::size_t end);

  std::vector<float> samples_;
  std::vector<std::size_t> ends_;  ///< end offsets of closed slices
  std::size_t open_ = 0;           ///< where the open slice starts
  std::vector<double> scratch_;
  std::vector<double> p50_, p99_;
  double sum_ = 0;
  std::size_t count_ = 0;
};

/// getrusage(RUSAGE_SELF) figures.
struct Usage {
  double cpu_us = 0;
  long long ctx_switches = 0;
};
/// Whole process, or only the calling thread.
Usage usage_now(bool this_thread = false);
double peak_rss_mb();

/// The counting operator new in alloc.cpp: off by default (one relaxed
/// load per allocation), switched on for the traced run.
void alloc_counting(bool on);
struct AllocCount {
  long long count = 0;
  long long bytes = 0;
};
AllocCount alloc_now();
/// While one is alive, allocations on the constructing thread are not
/// counted: they are the benchmark's, not the program's.
class AllocExclude {
 public:
  AllocExclude();
  ~AllocExclude();
  AllocExclude(const AllocExclude&) = delete;
  AllocExclude& operator=(const AllocExclude&) = delete;

 private:
  bool previous_;
};

/// Spans the benchmark records around its own calls into the program
/// (traced runs only).  Kept in memory; written out when the run ends.
class Spans {
 public:
  struct Span {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t dur_ns;
    std::uint64_t items;  ///< requests the call covered
  };
  /// Reserve the storage and start recording, so recording itself
  /// does not allocate.
  void start() {
    spans_.reserve(kKeep);
    totals_.reserve(16);
    on = true;
  }
  bool on = false;
  void add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
           std::uint64_t items) {
    if (!on) return;
    if (spans_.size() < kKeep) {
      spans_.push_back({name, start_ns, end_ns - start_ns, items});
    }
    for (auto& t : totals_) {
      if (std::strcmp(t.name, name) == 0) {
        t.ns += end_ns - start_ns;
        t.calls += 1;
        return;
      }
    }
    totals_.push_back({name, end_ns - start_ns, 1});
  }
  /// Total nanoseconds spent in spans named `name`.
  double total_ns(const char* name) const;
  /// Chrome trace_event JSON of the first kKeep spans.
  void write_json(const std::string& path) const;

 private:
  static constexpr std::size_t kKeep = 200000;
  struct Total {
    const char* name;
    std::uint64_t ns;
    std::uint64_t calls;
  };
  std::vector<Span> spans_;
  std::vector<Total> totals_;
};

/// What a run reports.  `metrics` are the contract's metrics; `stages`
/// is the traced run's stage table (ns per request, reconciled against
/// `e2e_ns` by an `unattributed_ns` row); `spans` are written out after
/// a traced run.
struct Result {
  Spans spans;
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> errors;  ///< first few oracle mismatches
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, double>> stages;
  double e2e_ns = 0;
  std::string e2e_definition;

  void set(const std::string& name, double value);
  double get(const std::string& name) const;
  void fail(const std::string& what, long long n = 1);
};

/// Registry counters and histograms over one phase of a run: the
/// difference of two snapshots, so warm-up traffic is excluded.
struct RegistryDelta {
  vlsa::telemetry::Snapshot before, after;
  long long counter(const std::string& name) const;
  vlsa::telemetry::HistogramSnapshot histogram(const std::string& name) const;
};

/// net.* and service.* per-layer metrics from a phase's registry delta
/// (metrics of a layer the workload does not use stay unset).
void record_registry_layers(const RegistryDelta& reg, Result& out);

/// The traced phase of a run.  Construction switches the spans and the
/// allocation counter on and snapshots the registry (when the workload
/// has one) and the process counters; end() switches them off and
/// records allocs, CPU and context switches per answered request.  With
/// `exclude_caller`, allocations, CPU and context switches of the
/// calling thread (a pure load generator) are left out, so they count
/// the program's threads only.
class TracedPhase {
 public:
  TracedPhase(Result& out, const vlsa::telemetry::Registry* registry,
              bool exclude_caller);
  void end(long long requests);
  double requests() const { return requests_; }
  double wall_ns() const { return static_cast<double>(t1_ - t0_); }
  RegistryDelta reg;

 private:
  Result& out_;
  const vlsa::telemetry::Registry* registry_;
  bool exclude_caller_;
  Usage u0_, self0_;
  AllocCount a0_;
  std::optional<AllocExclude> caller_;
  std::uint64_t t0_ = 0, t1_ = 0;
  double requests_ = 0;
};

/// The service exactly as `vlsa_tool serve` builds it by default: one
/// shard, one dispatcher worker, auto max_batch, default linger and
/// queue, Block policy.
vlsa::service::ServiceConfig serve_defaults(int width, int window);

/// Median over `reps` set-ups of the time `make()` takes to return a
/// ready object; tearing the object down is not timed.  Each set-up
/// starts after a kSetupPause of idling, as a first set-up on an idle
/// host does.  Back to back, whether the new threads landed on a CPU
/// still awake from the last teardown split the set-ups into a fast
/// and a slow mode about 2x apart, and the median flipped between them
/// from run to run; after a pause every set-up takes the slow path.
constexpr auto kSetupPause = std::chrono::milliseconds(20);
template <typename Make>
double median_setup_seconds(int reps, Make&& make) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    std::this_thread::sleep_for(kSetupPause);
    const auto t0 = Clock::now();
    auto ready = make();
    t.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return slice_stat("setup_s", std::move(t), 0.5);
}
constexpr int kSetupReps = 21;

// Workloads (tcp.cpp, inproc.cpp) and the isolated layer replays
// (replay.cpp).
void run_tcp_sat(const Args& args, const WorkloadSpec& spec, Result& out);
void run_tcp_poisson(const Args& args, const WorkloadSpec& spec,
                     Result& out);
void run_inproc_adv(const Args& args, const WorkloadSpec& spec, Result& out);
void run_mc(const Args& args, const WorkloadSpec& spec, Result& out);

/// Replay the pool through each layer's public entry point in isolation
/// and record net.encode_req_ns, net.decode_frame_ns, sim.* (every ISA
/// tier the host supports, at `occupancy` requests per batch), core.*
/// and workloads.mc_trial_ns.  `budget_s` bounds the time spent.
void replay_layers(const Pool& pool, int occupancy, double budget_s,
                   Result& out);

/// ns per trial of run_batch_monte_carlo queries exactly as mc_1024
/// issues them, repeated for `budget_s`; their tallies are checked
/// against the analytic rates (workloads.mc_trial_ns).
double replay_mc_query_ns(double budget_s, Result& out);

/// Per request ns of submit_many and pump() through a workers = 0
/// service fed the pool in chunks of `occupancy` (service.pump_ns).
double replay_pump_ns(const Pool& pool, int occupancy, double budget_s);

}  // namespace perfbench
