#include "trace/drift.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "analysis/aca_probability.hpp"

namespace vlsa::trace {

namespace {

double resolve_expected(const DriftConfig& config) {
  if (config.expected >= 0.0) return std::min(config.expected, 1.0);
  return analysis::aca_flag_probability(config.width, config.k);
}

/// For X ~ Binomial(n, p): the tail on x's side of the mean — P(X <= x)
/// when x <= np, P(X >= x) otherwise.  Summed outward from x, where the
/// terms fall monotonically, until they stop moving the sum.
double binomial_tail(std::uint64_t n, std::uint64_t x, double p) {
  if (p <= 0.0) return x == 0 ? 1.0 : 0.0;
  if (p >= 1.0) return x == n ? 1.0 : 0.0;
  const auto nd = static_cast<double>(n);
  const auto xd = static_cast<double>(x);
  double term = std::exp(std::lgamma(nd + 1) - std::lgamma(xd + 1) -
                         std::lgamma(nd - xd + 1) + xd * std::log(p) +
                         (nd - xd) * std::log1p(-p));
  double tail = term;
  if (xd <= nd * p) {
    const double odds = (1.0 - p) / p;
    for (double i = xd; i > 0 && term > tail * 1e-17; --i) {
      term *= i / (nd - i + 1) * odds;
      tail += term;
    }
  } else {
    const double odds = p / (1.0 - p);
    for (double i = xd; i < nd && term > tail * 1e-17; ++i) {
      term *= (nd - i) / (i + 1) * odds;
      tail += term;
    }
  }
  return std::min(tail, 1.0);
}

}  // namespace

DriftMonitor::DriftMonitor(const DriftConfig& config,
                           telemetry::Registry* registry, std::ostream* log)
    : config_(config), expected_(resolve_expected(config)), log_(log) {
  if (registry != nullptr) {
    observed_ppm_ = &registry->gauge("drift.observed_ppm");
    expected_ppm_ = &registry->gauge("drift.expected_ppm");
    zscore_centi_ = &registry->gauge("drift.zscore_centi");
    out_of_band_gauge_ = &registry->gauge("drift.out_of_band");
    windows_counter_ = &registry->counter("drift.windows");
    windows_out_counter_ = &registry->counter("drift.windows_out_of_band");
    expected_ppm_->set(static_cast<long long>(expected_ * 1e6));
  }
}

void DriftMonitor::record_batch(std::uint64_t n, std::uint64_t flagged) {
  if (n == 0) return;
  util::LockGuard lock(mutex_);
  lifetime_.total += n;
  lifetime_.flagged += flagged;
  window_total_ += n;
  window_flagged_ += flagged;
  // Batches can overshoot the boundary by up to one batch; the window
  // closes on whatever it holds (documented: window is a minimum).
  while (window_total_ >= config_.window) close_window_locked();
}

void DriftMonitor::close_window_locked() {
  const auto total = static_cast<double>(window_total_);
  const double observed = static_cast<double>(window_flagged_) / total;
  // Reported z: normal-approximation standard error under H0 (rate ==
  // expected), floored at one observation per window so p ≈ 0 keeps z
  // finite.
  const double se = std::max(std::sqrt(expected_ * (1.0 - expected_) / total),
                             1.0 / total);
  const double z = (observed - expected_) / se;
  // Verdict: the exact binomial tail against the two-sided rate the z
  // bound names, 2Φ(−z_threshold), split evenly between the tails.  The
  // normal test is far too eager where the model expects about one flag
  // per window: at ACA(1024, 23) five flags read z ≈ 4.
  const double tail =
      binomial_tail(window_total_, window_flagged_, expected_);
  const double alpha = std::erfc(config_.z_threshold / std::sqrt(2.0));
  const bool out = tail <= alpha / 2;

  lifetime_.windows += 1;
  lifetime_.windows_out_of_band += out ? 1 : 0;
  lifetime_.expected = expected_;
  lifetime_.last_observed = observed;
  lifetime_.last_z = z;
  lifetime_.out_of_band = out;
  window_total_ = 0;
  window_flagged_ = 0;

  if (observed_ppm_ != nullptr) {
    observed_ppm_->set(static_cast<long long>(observed * 1e6));
    zscore_centi_->set(static_cast<long long>(z * 100.0));
    out_of_band_gauge_->set(out ? 1 : 0);
    windows_counter_->increment();
    if (out) windows_out_counter_->increment();
  }
  if (out && log_ != nullptr) {
    *log_ << "[drift] window " << lifetime_.windows << ": observed ER "
          << observed << " vs expected " << expected_ << " over "
          << static_cast<std::uint64_t>(total) << " ops (z = " << z
          << ", tail " << tail << ", band ±" << config_.z_threshold
          << "σ) — OUT OF BAND for ACA(" << config_.width << ", "
          << config_.k << ")\n";
  }
}

DriftStatus DriftMonitor::status() const {
  util::LockGuard lock(mutex_);
  DriftStatus out = lifetime_;
  out.expected = expected_;
  return out;
}

}  // namespace vlsa::trace
