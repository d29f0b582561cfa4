#pragma once
// Behavioral model of the Almost Correct Adder (ACA) — the paper's first
// contribution (Sec. 3).
//
// ACA(n, k) computes every carry c_i from the k bit positions
// [i-k+1 .. i] (clamped at bit 0) assuming the carry into that window is
// 0.  Every sum bit therefore depends on at most k+1 input positions and
// the carry network has O(log k) = O(log log n) depth — exponentially
// faster than the Ω(log n) bound for exact adders — at the price of a
// deterministic error on the rare inputs with an activated propagate
// chain of length >= k.
//
// This model is the executable specification: the gate-level generators
// in core/aca_netlist.hpp are verified against it, and it is fast enough
// (O(n) per add) for Monte-Carlo error studies and the cryptographic
// workload.

#include <atomic>
#include <cstdint>
#include <span>

#include "util/bitvec.hpp"

namespace vlsa::core {

using util::BitVec;

/// Result of one speculative addition.
struct AcaResult {
  BitVec sum;        ///< speculative sum (width n)
  bool carry_out;    ///< speculative carry out of bit n-1
  bool flagged;      ///< ER: a propagate chain of length >= k exists
};

/// Speculative sum of `a` and `b` with window `k` (1 <= k; a,b same width).
/// `carry_in` feeds bit 0 exactly (a clamped window *knows* the carry-in;
/// only full k-propagate windows speculate), so subtraction via
/// a + ~b + 1 keeps the ACA's soundness guarantee.
AcaResult aca_add(const BitVec& a, const BitVec& b, int k,
                  bool carry_in = false);

/// Speculative subtraction a - b (two's complement: a + ~b + 1).
AcaResult aca_sub(const BitVec& a, const BitVec& b, int k);

/// Just the error-detection signal ER (Sec. 4.1): true iff the addenda
/// contain a propagate chain of length >= k.  ER == false guarantees
/// `aca_add(a, b, k).sum == a + b` (tested property).
bool aca_flag(const BitVec& a, const BitVec& b, int k);

/// The three per-request facts of one row-wise evaluation.
struct AcaEval {
  bool flagged = false;            ///< ER, as aca_flag
  bool speculative_wrong = false;  ///< aca_add's sum or carry out is wrong
};

/// Allocation-free row-wise ACA(width, k) over 64-bit limbs (the
/// serving path's evaluator).  `a`, `b`, `sum` and `scratch` each hold
/// ceil(width / 64) limbs; bits of `a`/`b` at and above `width` must be
/// zero (the BitVec invariant).  Writes the exact sum mod 2^width into
/// `sum`, clobbers `scratch`, and returns what aca_add(a, b, k) would
/// report: its ER flag, and whether its sum or carry out differs from
/// the exact one.  A k-window errs exactly when it is all-propagate and
/// the exact carry into it is 1 — an all-propagate window speculates
/// carry 0 while its true carry out equals its carry in — so with
/// S[j] = p[j] & ... & p[j+k-1] (p = a ^ b, built in ceil(log2 k)
/// shift-and passes), ER = any(S) and wrong = any(S & (sum ^ p)).
AcaEval aca_eval_limbs(std::span<const std::uint64_t> a,
                       std::span<const std::uint64_t> b, int width, int k,
                       std::span<std::uint64_t> sum,
                       std::span<std::uint64_t> scratch);

/// Convenience: does ACA(n, k) return the exact sum for these operands?
bool aca_is_exact(const BitVec& a, const BitVec& b, int k);

/// Length of the longest propagate chain of the operand pair — the
/// quantity whose distribution drives the whole design (Sec. 3.1).
int longest_propagate_chain(const BitVec& a, const BitVec& b);

/// A configured speculative adder with running statistics; the software
/// twin of the VLSA datapath.
///
/// Thread safety: `add`/`sub` may be called concurrently from any number
/// of threads — the statistics counters are relaxed atomics, so totals
/// are never lost or torn (tests/test_parallel.cpp hammers this).  The
/// three counters are sampled independently; a reader racing with
/// writers can observe `flagged_adds() > 0` a moment before the matching
/// `total_adds()` increment, so compute rates from a quiescent adder.
class SpeculativeAdder {
 public:
  /// `width` = operand bits, `window` = k.
  SpeculativeAdder(int width, int window);

  /// Pick the smallest window whose flag probability (on uniform random
  /// operands) is at most `1 - target_accuracy` — e.g. 0.9999 reproduces
  /// the paper's "99.99% accurate" design points.
  static SpeculativeAdder with_target_accuracy(int width,
                                               double target_accuracy);

  int width() const { return width_; }
  int window() const { return window_; }

  /// One addition: speculative result plus the exact sum (what the
  /// recovery stage would produce).
  struct Outcome {
    BitVec speculative;
    BitVec exact;
    bool flagged;      ///< ER fired — VLSA would stall for recovery
    bool was_wrong;    ///< speculative != exact (implies flagged)
  };
  Outcome add(const BitVec& a, const BitVec& b);

  /// Speculative subtraction with the same statistics accounting.
  Outcome sub(const BitVec& a, const BitVec& b);

  /// Copies carry the configuration and a snapshot of the counters.
  SpeculativeAdder(const SpeculativeAdder& other);
  SpeculativeAdder& operator=(const SpeculativeAdder& other);

  // Running statistics over every `add`/`sub` call.
  long long total_adds() const {
    return total_.load(std::memory_order_relaxed);
  }
  long long flagged_adds() const {
    return flagged_.load(std::memory_order_relaxed);
  }
  long long wrong_adds() const {
    return wrong_.load(std::memory_order_relaxed);
  }
  double observed_flag_rate() const;
  double observed_error_rate() const;

 private:
  void record(const Outcome& out);

  int width_;
  int window_;
  std::atomic<long long> total_ = 0;
  std::atomic<long long> flagged_ = 0;
  std::atomic<long long> wrong_ = 0;
};

}  // namespace vlsa::core
