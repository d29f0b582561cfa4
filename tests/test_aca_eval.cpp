// Differential tests for the row-wise evaluator core::aca_eval_limbs —
// the serving path's only evaluator — against its two oracles: the
// behavioral core::aca_add / aca_flag, and the bit-sliced wide engine
// (scalar tier, 512 lanes) on the same operand pairs.  Each case checks
// the exact sum, the ER flag, and speculative_wrong including the
// carry-out term.  Exhaustive at widths <= 8 for every window up to
// n + 1; at larger widths random pairs plus planted propagate runs of
// length k-1 / k / k+1 that straddle limb boundaries, each fed by a
// generate (the run speculates wrong) or by a kill (it does not).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/aca.hpp"
#include "sim/batch_engine.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace vlsa {
namespace {

using util::BitVec;
using Pair = std::pair<BitVec, BitVec>;

constexpr int kWidths[] = {63, 64, 65, 127, 128, 200, 1024, 2048};
constexpr int kWindows[] = {1, 2, 23, 63, 64, 65, 100};

struct RowResult {
  BitVec sum;
  core::AcaEval eval;
};

RowResult eval_row(const BitVec& a, const BitVec& b, int k) {
  RowResult out{BitVec(a.width()), {}};
  std::vector<std::uint64_t> scratch(a.limbs().size());
  out.eval = core::aca_eval_limbs(a.limbs(), b.limbs(), a.width(), k,
                                  out.sum.limbs(), scratch);
  return out;
}

// Empty when the row-wise evaluator agrees with aca_add / aca_flag.
std::string oracle_mismatch(const BitVec& a, const BitVec& b, int k) {
  const RowResult row = eval_row(a, b, k);
  const core::AcaResult spec = core::aca_add(a, b, k);
  const auto exact = a.add_with_carry(b);
  const bool wrong =
      spec.sum != exact.sum || spec.carry_out != exact.carry_out;
  if (row.sum == exact.sum && row.eval.flagged == spec.flagged &&
      row.eval.flagged == core::aca_flag(a, b, k) &&
      row.eval.speculative_wrong == wrong) {
    return {};
  }
  std::ostringstream out;
  out << "n=" << a.width() << " k=" << k << " a=" << a.to_hex()
      << " b=" << b.to_hex() << ": flagged " << row.eval.flagged << " vs "
      << spec.flagged << ", wrong " << row.eval.speculative_wrong << " vs "
      << wrong << ", sum " << (row.sum == exact.sum ? "ok" : "differs");
  return out.str();
}

// Random pairs plus planted runs of exactly k-1, k and k+1 propagate
// bits placed across every limb boundary and at both ends of the word.
// The bit below a run is a generate or a kill; the bit above it is not
// a propagate, so the run has exactly the planted length.
std::vector<Pair> cases_for(util::Rng& rng, int width, int k) {
  std::vector<Pair> cases;
  for (int i = 0; i < 48; ++i) {
    cases.emplace_back(rng.next_bits(width), rng.next_bits(width));
  }
  for (const int length : {k - 1, k, k + 1}) {
    if (length < 1 || length > width) continue;
    std::vector<int> starts = {0, width - length};
    for (int edge = 64; edge < width; edge += 64) {
      for (const int start :
           {edge - length / 2, edge - length + 1, edge - 1, edge}) {
        starts.push_back(std::clamp(start, 0, width - length));
      }
    }
    for (const int start : starts) {
      for (const bool generate : {true, false}) {
        BitVec a = rng.next_bits(width);
        BitVec b = rng.next_bits(width);
        for (int i = start; i < start + length; ++i) b.set_bit(i, !a.bit(i));
        if (start > 0) {
          a.set_bit(start - 1, generate);
          b.set_bit(start - 1, generate);
        }
        if (start + length < width) {
          b.set_bit(start + length, a.bit(start + length));
        }
        cases.emplace_back(std::move(a), std::move(b));
      }
    }
  }
  return cases;
}

TEST(AcaEvalLimbs, MatchesAcaAddExhaustivelyUpToWidth8) {
  long long checked = 0, mismatches = 0;
  for (int n = 1; n <= 8; ++n) {
    for (int k = 1; k <= n + 1; ++k) {
      for (std::uint64_t x = 0; x < (1u << n); ++x) {
        const BitVec a = BitVec::from_u64(n, x);
        for (std::uint64_t y = 0; y < (1u << n); ++y) {
          const BitVec b = BitVec::from_u64(n, y);
          const std::string why = oracle_mismatch(a, b, k);
          ++checked;
          if (!why.empty() && ++mismatches <= 5) ADD_FAILURE() << why;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << checked << " checks";
}

TEST(AcaEvalLimbs, MatchesAcaAddOnPlantedRunsAcrossLimbBoundaries) {
  util::Rng rng(0xace1);
  long long checked = 0, mismatches = 0, wrong = 0, flagged_right = 0;
  for (const int width : kWidths) {
    for (const int k : kWindows) {
      for (const auto& [a, b] : cases_for(rng, width, k)) {
        const std::string why = oracle_mismatch(a, b, k);
        ++checked;
        if (!why.empty() && ++mismatches <= 5) ADD_FAILURE() << why;
        const core::AcaEval eval = eval_row(a, b, k).eval;
        wrong += eval.speculative_wrong ? 1 : 0;
        flagged_right += eval.flagged && !eval.speculative_wrong ? 1 : 0;
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << checked << " checks";
  // The planted runs exercise both sides of every flagged outcome.
  EXPECT_GT(wrong, 0);
  EXPECT_GT(flagged_right, 0);
}

TEST(AcaEvalLimbs, CarryOutOnlyErrorCountsAsWrong) {
  // Bits 56..63 propagate, bit 55 generates: with k = 8 the only
  // speculative carry that differs from the exact one is the carry out
  // of bit 63, so the sum itself is exact.
  const BitVec a = BitVec::from_u64(64, 0xff80000000000000ull);
  const BitVec b = BitVec::from_u64(64, 0x0080000000000000ull);
  const core::AcaResult spec = core::aca_add(a, b, 8);
  const auto exact = a.add_with_carry(b);
  ASSERT_EQ(spec.sum, exact.sum);
  ASSERT_NE(spec.carry_out, exact.carry_out);
  const RowResult row = eval_row(a, b, 8);
  EXPECT_EQ(row.sum, exact.sum);
  EXPECT_TRUE(row.eval.flagged);
  EXPECT_TRUE(row.eval.speculative_wrong);
}

TEST(AcaEvalLimbs, MatchesWideEngineScalarTier) {
  constexpr int kLanes = sim::kMaxBatchLanes;
  util::Rng rng(0xace2);
  sim::WideResult result;
  long long checked = 0, mismatches = 0;
  for (const int width : kWidths) {
    for (const int k : kWindows) {
      const std::vector<Pair> cases = cases_for(rng, width, k);
      for (std::size_t first = 0; first < cases.size(); first += kLanes) {
        const std::vector<Pair> batch(
            cases.begin() + static_cast<std::ptrdiff_t>(first),
            cases.begin() + static_cast<std::ptrdiff_t>(std::min(
                                cases.size(), first + kLanes)));
        const sim::WideBatch ops =
            sim::wide_transpose_batch(batch, width, kLanes, sim::Isa::Scalar);
        sim::wide_aca_add_into(ops, k, nullptr, result, sim::Isa::Scalar);
        const std::vector<BitVec> sums = sim::wide_lane_values(
            result.sum_exact, width, kLanes, sim::Isa::Scalar);
        for (std::size_t lane = 0; lane < batch.size(); ++lane) {
          const auto& [a, b] = batch[lane];
          const RowResult row = eval_row(a, b, k);
          const int j = static_cast<int>(lane);
          ++checked;
          if (row.sum != sums[lane] ||
              row.eval.flagged != result.flagged_lane(j) ||
              row.eval.speculative_wrong != result.wrong_lane(j)) {
            if (++mismatches <= 5) {
              ADD_FAILURE() << "n=" << width << " k=" << k
                            << " a=" << a.to_hex() << " b=" << b.to_hex();
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << checked << " lanes";
}

TEST(AcaEvalLimbs, RejectsBadArguments) {
  std::vector<std::uint64_t> a(2), b(2), sum(2), scratch(2), short_buf(1);
  EXPECT_THROW(core::aca_eval_limbs(a, b, 65, 0, sum, scratch),
               std::invalid_argument);
  EXPECT_THROW(core::aca_eval_limbs(a, b, 0, 4, sum, scratch),
               std::invalid_argument);
  EXPECT_THROW(core::aca_eval_limbs(a, b, 129, 4, sum, scratch),
               std::invalid_argument);
  EXPECT_THROW(core::aca_eval_limbs(a, b, 65, 4, sum, short_buf),
               std::invalid_argument);
  EXPECT_NO_THROW(core::aca_eval_limbs(a, b, 65, 4, sum, scratch));
}

}  // namespace
}  // namespace vlsa
