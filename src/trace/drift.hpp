#pragma once
// ER-rate drift monitor: does the live flag rate still track the
// paper's analytical model?
//
// The ACA's deployment contract is statistical — ACA(n, k) on uniform
// operands flags with exactly P(longest propagate run >= k), the
// longest-run probability of Sec. 3.1 (computed exactly in
// analysis/aca_probability.hpp).  A production service whose observed
// flag rate leaves that band is either (a) serving a correlated /
// adversarial operand mix (the Sec. 6 caveat: error rate is
// input-dependent), (b) misconfigured (wrong k for the advertised
// accuracy), or (c) broken.  All three are operator-page-worthy, and
// none shows up in a latency histogram until the recovery lane is
// already congested.
//
// Mechanism: observations accumulate into fixed-size windows of
// `window` requests.  When a window fills, its flag count is tested
// against Binomial(window, p) exactly: the window is out of band when
// the tail on the count's side of the mean is at most half the
// two-sided rate 2Φ(−z_threshold) — so in-distribution traffic trips
// the alarm in at most 2Φ(−z_threshold) of its windows, even where the
// model expects about one flag per window and a normal test would cry
// wolf.  The reported score is the normal z = (p̂ - p) /
// sqrt(p (1 - p) / window), its standard error floored at 1/window so
// p ≈ 0 — large k — still yields a finite z.  The verdict lands in
// telemetry gauges (drift.observed_ppm, drift.expected_ppm,
// drift.zscore_centi, drift.out_of_band) and counters (drift.windows,
// drift.windows_out_of_band), and an optional log line fires on each
// out-of-band window.
//
// Granularity: the service reports once per *batch*
// (record_batch(n, flagged)), so the monitor's lock is off the
// per-request path entirely — one mutex acquisition per ~64 requests.

#include <cstdint>
#include <iosfwd>

#include "telemetry/registry.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace vlsa::trace {

struct DriftConfig {
  int width = 64;  ///< operand bits (the model's n)
  int k = 8;       ///< speculation window
  /// Observations per evaluation window.
  std::uint64_t window = std::uint64_t{1} << 14;
  /// Names the false-alarm rate per window, 2Φ(−z_threshold): 4 gives
  /// ≈ 6.3e-5, held exactly by the binomial test.
  double z_threshold = 4.0;
  /// Expected flag probability; < 0 (default) derives the Theorem-1 /
  /// longest-run value analysis::aca_flag_probability(width, k).
  double expected = -1.0;
};

/// Verdict of the most recent completed window plus lifetime tallies.
struct DriftStatus {
  std::uint64_t total = 0;    ///< lifetime observations
  std::uint64_t flagged = 0;  ///< lifetime ER=1 observations
  std::uint64_t windows = 0;  ///< completed windows
  std::uint64_t windows_out_of_band = 0;
  double expected = 0.0;       ///< model flag probability
  double last_observed = 0.0;  ///< p̂ of the last completed window
  double last_z = 0.0;         ///< normal z of the last completed window
  bool out_of_band = false;    ///< last completed window verdict
};

class DriftMonitor {
 public:
  /// `registry` (optional) receives the drift.* gauges/counters and
  /// must outlive the monitor; `log` (optional) receives one line per
  /// out-of-band window.  Both may be nullptr.
  explicit DriftMonitor(const DriftConfig& config,
                        telemetry::Registry* registry = nullptr,
                        std::ostream* log = nullptr);

  const DriftConfig& config() const { return config_; }
  double expected_rate() const { return expected_; }

  /// Fold one dispatched batch in: `n` observations, `flagged` of them
  /// with ER=1.  Thread-safe; windows may close mid-call.
  void record_batch(std::uint64_t n, std::uint64_t flagged);

  DriftStatus status() const;

 private:
  void close_window_locked() REQUIRES(mutex_);

  const DriftConfig config_;
  const double expected_;
  std::ostream* const log_;

  // Telemetry handles (null when no registry was given).
  telemetry::Gauge* observed_ppm_ = nullptr;
  telemetry::Gauge* expected_ppm_ = nullptr;
  telemetry::Gauge* zscore_centi_ = nullptr;
  telemetry::Gauge* out_of_band_gauge_ = nullptr;
  telemetry::Counter* windows_counter_ = nullptr;
  telemetry::Counter* windows_out_counter_ = nullptr;

  mutable util::Mutex mutex_;
  std::uint64_t window_total_ GUARDED_BY(mutex_) = 0;
  std::uint64_t window_flagged_ GUARDED_BY(mutex_) = 0;
  DriftStatus lifetime_ GUARDED_BY(mutex_);
};

}  // namespace vlsa::trace
