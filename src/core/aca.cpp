#include "core/aca.hpp"

#include <algorithm>
#include <stdexcept>

#include "analysis/aca_probability.hpp"

namespace vlsa::core {

namespace {

void check_args(const BitVec& a, const BitVec& b, int k) {
  if (a.width() != b.width()) {
    throw std::invalid_argument("aca_add: operand width mismatch");
  }
  if (a.width() < 1) throw std::invalid_argument("aca_add: empty operands");
  if (k < 1) throw std::invalid_argument("aca_add: window must be >= 1");
}

// Windowed carry chain of aca_add: bit i of `carries` is the
// speculative carry out of position i.
struct CarryTrace {
  BitVec carries;
  bool flagged = false;
};

CarryTrace window_carries(const BitVec& a, const BitVec& b, int k,
                          bool carry_in) {
  const int n = a.width();
  const BitVec p = a ^ b;
  const BitVec g = a & b;

  CarryTrace out{BitVec(n), false};
  int run = 0;  // propagate run length ending at the current bit
  for (int i = 0; i < n; ++i) {
    run = p.bit(i) ? run + 1 : 0;
    if (run >= k) out.flagged = true;
    bool carry;
    if (run >= k) {
      // Window is all-propagate: speculate 0 (this is the error source).
      carry = false;
    } else if (run > i) {
      // Window extends past bit 0: the architectural carry-in is known
      // exactly and propagates through the (short) chain.
      carry = carry_in;
    } else {
      // The nearest non-propagate position inside the window decides.
      carry = g.bit(i - run);
    }
    out.carries.set_bit(i, carry);
  }
  return out;
}

}  // namespace

AcaResult aca_add(const BitVec& a, const BitVec& b, int k, bool carry_in) {
  check_args(a, b, k);
  const int n = a.width();
  const BitVec p = a ^ b;
  const CarryTrace trace = window_carries(a, b, k, carry_in);

  AcaResult out{BitVec(n), false, trace.flagged};
  bool carry_prev = carry_in;  // speculative c_{i-1}; c_{-1} = carry_in
  for (int i = 0; i < n; ++i) {
    out.sum.set_bit(i, p.bit(i) ^ carry_prev);
    carry_prev = trace.carries.bit(i);
  }
  out.carry_out = carry_prev;
  return out;
}

AcaResult aca_sub(const BitVec& a, const BitVec& b, int k) {
  return aca_add(a, ~b, k, /*carry_in=*/true);
}

bool aca_flag(const BitVec& a, const BitVec& b, int k) {
  check_args(a, b, k);
  return (a ^ b).longest_one_run() >= k;
}

AcaEval aca_eval_limbs(std::span<const std::uint64_t> a,
                       std::span<const std::uint64_t> b, int width, int k,
                       std::span<std::uint64_t> sum,
                       std::span<std::uint64_t> scratch) {
  if (width < 1) throw std::invalid_argument("aca_eval_limbs: width < 1");
  if (k < 1) throw std::invalid_argument("aca_eval_limbs: window < 1");
  const std::size_t limbs = (static_cast<std::size_t>(width) + 63) / 64;
  if (a.size() != limbs || b.size() != limbs || sum.size() != limbs ||
      scratch.size() != limbs) {
    throw std::invalid_argument("aca_eval_limbs: limb count mismatch");
  }
  const std::uint64_t top_mask =
      width % 64 == 0 ? ~std::uint64_t{0}
                      : (std::uint64_t{1} << (width % 64)) - 1;
  std::uint64_t* runs = scratch.data();  // p, then the run-start mask S
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < limbs; ++i) {
    const std::uint64_t partial = a[i] + b[i];
    const std::uint64_t total = partial + carry;
    carry = static_cast<std::uint64_t>(partial < a[i]) |
            static_cast<std::uint64_t>(total < partial);
    sum[i] = total;
    runs[i] = a[i] ^ b[i];
  }
  sum[limbs - 1] &= top_mask;
  runs[limbs - 1] &= top_mask;
  // S_t[j] covers p[j .. j+t-1]; S_{t+s} = S_t & (S_t >> s) for s <= t.
  // Shifting in place is safe low limb first: limb i reads limbs >= i.
  // A pass that leaves no bit set ends the search (the common case).
  for (int t = 1; t < k;) {
    const int shift = std::min(t, k - t);
    const auto skip = static_cast<std::size_t>(shift / 64);
    const int bits = shift % 64;
    std::uint64_t alive = 0;
    for (std::size_t i = 0; i < limbs; ++i) {
      const std::uint64_t lo = i + skip < limbs ? runs[i + skip] : 0;
      const std::uint64_t hi = i + skip + 1 < limbs ? runs[i + skip + 1] : 0;
      const std::uint64_t shifted =
          bits == 0 ? lo : (lo >> bits) | (hi << (64 - bits));
      runs[i] &= shifted;
      alive |= runs[i];
    }
    if (alive == 0) return {};
    t += shift;
  }
  // sum ^ p is the exact carry into each bit.
  std::uint64_t flagged = 0, wrong = 0;
  for (std::size_t i = 0; i < limbs; ++i) {
    flagged |= runs[i];
    wrong |= runs[i] & (sum[i] ^ a[i] ^ b[i]);
  }
  return {flagged != 0, wrong != 0};
}

bool aca_is_exact(const BitVec& a, const BitVec& b, int k) {
  return aca_add(a, b, k).sum == a + b;
}

int longest_propagate_chain(const BitVec& a, const BitVec& b) {
  if (a.width() != b.width()) {
    throw std::invalid_argument("longest_propagate_chain: width mismatch");
  }
  return (a ^ b).longest_one_run();
}

SpeculativeAdder::SpeculativeAdder(int width, int window)
    : width_(width), window_(window) {
  if (width < 1 || window < 1) {
    throw std::invalid_argument("SpeculativeAdder: bad configuration");
  }
}

SpeculativeAdder SpeculativeAdder::with_target_accuracy(
    int width, double target_accuracy) {
  if (target_accuracy <= 0.0 || target_accuracy >= 1.0) {
    throw std::invalid_argument(
        "SpeculativeAdder: accuracy must be in (0, 1)");
  }
  const int k = analysis::choose_window(width, 1.0 - target_accuracy);
  return SpeculativeAdder(width, k);
}

SpeculativeAdder::SpeculativeAdder(const SpeculativeAdder& other)
    : width_(other.width_),
      window_(other.window_),
      total_(other.total_adds()),
      flagged_(other.flagged_adds()),
      wrong_(other.wrong_adds()) {}

SpeculativeAdder& SpeculativeAdder::operator=(const SpeculativeAdder& other) {
  width_ = other.width_;
  window_ = other.window_;
  total_.store(other.total_adds(), std::memory_order_relaxed);
  flagged_.store(other.flagged_adds(), std::memory_order_relaxed);
  wrong_.store(other.wrong_adds(), std::memory_order_relaxed);
  return *this;
}

void SpeculativeAdder::record(const Outcome& out) {
  total_.fetch_add(1, std::memory_order_relaxed);
  if (out.flagged) flagged_.fetch_add(1, std::memory_order_relaxed);
  if (out.was_wrong) wrong_.fetch_add(1, std::memory_order_relaxed);
}

SpeculativeAdder::Outcome SpeculativeAdder::add(const BitVec& a,
                                                const BitVec& b) {
  if (a.width() != width_ || b.width() != width_) {
    throw std::invalid_argument("SpeculativeAdder::add: width mismatch");
  }
  const AcaResult spec = aca_add(a, b, window_);
  const auto exact = a.add_with_carry(b);
  Outcome out{spec.sum, exact.sum, spec.flagged,
              spec.sum != exact.sum || spec.carry_out != exact.carry_out};
  record(out);
  return out;
}

SpeculativeAdder::Outcome SpeculativeAdder::sub(const BitVec& a,
                                                const BitVec& b) {
  if (a.width() != width_ || b.width() != width_) {
    throw std::invalid_argument("SpeculativeAdder::sub: width mismatch");
  }
  const AcaResult spec = aca_sub(a, b, window_);
  const auto exact = a.add_with_carry(~b, /*carry_in=*/true);
  Outcome out{spec.sum, exact.sum, spec.flagged,
              spec.sum != exact.sum || spec.carry_out != exact.carry_out};
  record(out);
  return out;
}

double SpeculativeAdder::observed_flag_rate() const {
  const long long total = total_adds();
  return total == 0 ? 0.0 : static_cast<double>(flagged_adds()) / total;
}

double SpeculativeAdder::observed_error_rate() const {
  const long long total = total_adds();
  return total == 0 ? 0.0 : static_cast<double>(wrong_adds()) / total;
}

}  // namespace vlsa::core
