// Differential property tests for the bit-sliced batch engine: every
// output lane must match the scalar specification in core/aca.hpp
// bit-for-bit, on every kernel tier the machine supports.  This
// equivalence is what licenses the batch Monte-Carlo driver as a
// *reproduction* instrument rather than a new model — the paper's
// statistics are only as trustworthy as this file.  Under
// VLSA_FORCE_ISA=<tier> the whole suite additionally reruns with that
// tier as the default, so CI exercises the scalar fallback on any
// hardware.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <utility>
#include <vector>

#include "core/aca.hpp"
#include "sim/batch_engine.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace vlsa {
namespace {

using core::aca_add;
using core::aca_flag;
using core::aca_sub;
using core::longest_propagate_chain;
using sim::Isa;
using sim::kMaxBatchLanes;
using sim::WideBatch;
using sim::WideResult;
using util::BitVec;
using util::Rng;

// The differential grid: every width crossed with windows
// {1, 4, log2 n, n}.  333 is deliberately not a multiple of 64 and 8
// exercises windows wider than the operand.
const int kWidths[] = {8, 16, 64, 256, 333};

std::vector<int> windows_for(int n) {
  const int log2n = std::max(1, static_cast<int>(std::lround(std::log2(n))));
  std::vector<int> ks{1, 4, log2n, n};
  // Dedup while keeping order (width 8 yields {1, 4, 3, 8}).
  std::vector<int> out;
  for (int k : ks) {
    bool seen = false;
    for (int o : out) seen = seen || o == k;
    if (!seen) out.push_back(k);
  }
  return out;
}

/// Every tier this build + machine can actually run.  Scalar is always
/// first: the wide tiers are compared against its outputs.
std::vector<Isa> testable_isas() {
  std::vector<Isa> out{Isa::Scalar};
  for (Isa isa : {Isa::Avx2, Isa::Avx512}) {
    if (sim::isa_supported(isa)) out.push_back(isa);
  }
  return out;
}

/// Lane mask for the wide layout: bit (j % 64) of word (j / 64).
std::vector<std::uint64_t> random_lane_mask(Rng& rng, int lanes) {
  std::vector<std::uint64_t> mask(static_cast<std::size_t>(lanes) / 64);
  for (auto& w : mask) w = rng.next_u64();
  return mask;
}

/// a + b + cin (`cin` empty = no carry in), or a - b when `subtract`.
void evaluate(const WideBatch& ops, int k,
              const std::vector<std::uint64_t>& cin, bool subtract, Isa isa,
              WideResult& out) {
  if (subtract) {
    sim::wide_aca_sub_into(ops, k, out, isa);
  } else {
    sim::wide_aca_add_into(ops, k, cin.empty() ? nullptr : cin.data(), out,
                           isa);
  }
}

// Check every lane of `got` against the scalar model for the same
// operands: a + b + cin through aca_add, or a - b through aca_sub.
void expect_lanes_match_core(const WideBatch& ops,
                             const std::vector<std::uint64_t>& cin, int k,
                             bool subtract, const WideResult& got) {
  const int n = ops.width;
  const int words = ops.words();
  for (int lane = 0; lane < ops.lanes; ++lane) {
    const BitVec a = sim::wide_lane_value(ops.a, n, words, lane);
    const BitVec b = sim::wide_lane_value(ops.b, n, words, lane);
    const bool lane_cin =
        !cin.empty() &&
        ((cin[static_cast<std::size_t>(lane / 64)] >> (lane % 64)) & 1) != 0;
    const auto scalar =
        subtract ? aca_sub(a, b, k) : aca_add(a, b, k, lane_cin);
    const BitVec addend = subtract ? ~b : b;
    const auto exact = a.add_with_carry(addend, subtract || lane_cin);
    ASSERT_EQ(sim::wide_lane_value(got.sum_spec, n, words, lane), scalar.sum)
        << "spec sum lane " << lane << " n=" << n << " k=" << k;
    ASSERT_EQ(sim::wide_lane_value(got.sum_exact, n, words, lane), exact.sum)
        << "exact sum lane " << lane << " n=" << n << " k=" << k;
    ASSERT_EQ(got.flagged_lane(lane), aca_flag(a, addend, k))
        << "ER lane " << lane << " n=" << n << " k=" << k;
    // `wrong` compares the carry out too, so check it against the full
    // scalar comparison.
    ASSERT_EQ(got.wrong_lane(lane),
              scalar.sum != exact.sum || scalar.carry_out != exact.carry_out)
        << "wrong lane " << lane << " n=" << n << " k=" << k;
  }
}

void expect_same_result(const WideResult& got, const WideResult& ref,
                        Isa isa) {
  ASSERT_EQ(got.sum_spec, ref.sum_spec) << sim::isa_name(isa);
  ASSERT_EQ(got.sum_exact, ref.sum_exact) << sim::isa_name(isa);
  ASSERT_EQ(got.flagged, ref.flagged) << sim::isa_name(isa);
  ASSERT_EQ(got.wrong, ref.wrong) << sim::isa_name(isa);
}

// Run the oracle once per input: the scalar tier is checked against
// core::aca_*, every other tier must reproduce the scalar tier's output
// vectors word for word.
void expect_every_tier_matches_core(const WideBatch& ops,
                                    const std::vector<std::uint64_t>& cin,
                                    int k, bool subtract = false) {
  WideResult ref;
  evaluate(ops, k, cin, subtract, Isa::Scalar, ref);
  expect_lanes_match_core(ops, cin, k, subtract, ref);
  WideResult got;
  for (Isa isa : testable_isas()) {
    if (isa == Isa::Scalar) continue;
    evaluate(ops, k, cin, subtract, isa, got);
    expect_same_result(got, ref, isa);
  }
}

TEST(BatchEngineDifferential, RandomBatchesAcrossWidthAndWindowGrid) {
  // ~45k random lanes per grid point on the cheap widths, ~10k on the
  // others, with a random carry-in lane mask on every other batch.
  // Full-width batches so every SIMD tier runs its own kernel.
  Rng rng(0xba7c4);
  for (int n : kWidths) {
    for (int k : windows_for(n)) {
      const int batches = n <= 64 ? 88 : 19;
      WideBatch ops(n, kMaxBatchLanes);
      for (int t = 0; t < batches; ++t) {
        sim::fill_uniform(rng, ops);
        const auto cin = (t % 2 == 0) ? random_lane_mask(rng, ops.lanes)
                                      : std::vector<std::uint64_t>{};
        expect_every_tier_matches_core(ops, cin, k);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(BatchEngineDifferential, ExhaustiveWidth8Agreement) {
  // All 2^16 operand pairs at width 8, both carry-in values, every window
  // 1..9 (k = 9 > n: the window is wider than the operand) — the engine
  // and the scalar model must be indistinguishable on the entire input
  // space.  Full-width batches, transposed on every tier: at 64 lanes
  // every tier resolves to the scalar kernels.
  std::vector<std::pair<BitVec, BitVec>> pairs;
  pairs.reserve(kMaxBatchLanes);
  for (int av = 0; av < 256; ++av) {
    for (int bv = 0; bv < 256; ++bv) {
      pairs.emplace_back(BitVec::from_u64(8, av), BitVec::from_u64(8, bv));
      if (static_cast<int>(pairs.size()) < kMaxBatchLanes) continue;
      const WideBatch ops =
          sim::wide_transpose_batch(pairs, 8, kMaxBatchLanes, Isa::Scalar);
      for (Isa isa : testable_isas()) {
        const WideBatch tiered =
            sim::wide_transpose_batch(pairs, 8, kMaxBatchLanes, isa);
        ASSERT_EQ(tiered.a, ops.a) << sim::isa_name(isa);
        ASSERT_EQ(tiered.b, ops.b) << sim::isa_name(isa);
      }
      for (int k = 1; k <= 9; ++k) {
        for (bool cin_all : {false, true}) {
          const std::vector<std::uint64_t> cin(
              static_cast<std::size_t>(ops.words()),
              cin_all ? ~std::uint64_t{0} : 0);
          expect_every_tier_matches_core(ops, cin, k);
          if (HasFatalFailure()) return;
        }
      }
      pairs.clear();
    }
  }
  ASSERT_TRUE(pairs.empty());  // 65536 pairs = exactly 128 batches
}

TEST(BatchEngineDifferential, SubtractionPathMatchesScalar) {
  // a - b on every lane: speculative and exact sums, ER flag and
  // mispredict mask across the width/window grid.
  Rng rng(0x5ab);
  for (int n : kWidths) {
    for (int k : windows_for(n)) {
      WideBatch ops(n, kMaxBatchLanes);
      for (int t = 0; t < 5; ++t) {
        sim::fill_uniform(rng, ops);
        expect_every_tier_matches_core(ops, {}, k, /*subtract=*/true);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(BatchEngine, SoundnessWrongLanesAreAlwaysFlagged) {
  // The paper's safety property, ER = 0 => exact, holds per lane: the
  // wrong mask must be a subset of the flag mask.  Complementary-style
  // operands make wrong lanes actually occur.
  Rng rng(0x50);
  std::uint64_t wrong_seen = 0;
  for (int n : {64, 256}) {
    WideBatch ops(n, kMaxBatchLanes);
    WideResult got;
    for (int t = 0; t < 200; ++t) {
      sim::fill_uniform(rng, ops);
      if (t % 2 == 0) {
        // b ~= ~a with a few flipped words: long propagate chains.
        for (std::size_t i = 0; i < ops.b.size(); ++i) ops.b[i] = ~ops.a[i];
        for (int f = 0; f < ops.words(); ++f) {
          ops.b[rng.next_below(ops.b.size())] = rng.next_u64();
        }
      }
      for (int k : {2, 4, 8}) {
        sim::wide_aca_add_into(ops, k, nullptr, got);
        for (int w = 0; w < ops.words(); ++w) {
          ASSERT_EQ(got.wrong[w] & ~got.flagged[w], 0u)
              << "unflagged wrong lane at n=" << n << " k=" << k;
          wrong_seen |= got.wrong[w];
        }
      }
    }
  }
  EXPECT_NE(wrong_seen, 0u);  // the property was exercised
}

TEST(BatchEngine, LongestRunsMatchScalarChainLength) {
  // One-word batches (64 lanes): every tier resolves to the scalar
  // kernel here, so the default dispatch covers them all.
  Rng rng(0x10e);
  for (int n : {8, 64, 333}) {
    WideBatch ops(n, 64);
    for (int t = 0; t < 100; ++t) {
      sim::fill_uniform(rng, ops);
      const auto runs = sim::wide_longest_runs(ops);
      ASSERT_EQ(static_cast<int>(runs.size()), 64);
      for (int lane = 0; lane < 64; ++lane) {
        const BitVec a = sim::wide_lane_value(ops.a, n, ops.words(), lane);
        const BitVec b = sim::wide_lane_value(ops.b, n, ops.words(), lane);
        ASSERT_EQ(runs[lane], longest_propagate_chain(a, b))
            << "lane " << lane << " n=" << n;
      }
    }
  }
}

TEST(BatchEngine, TransposeRoundTrip) {
  Rng rng(0x77);
  const int n = 96;
  std::vector<std::pair<BitVec, BitVec>> pairs;
  for (int i = 0; i < 37; ++i) {  // deliberately a partial batch
    pairs.emplace_back(rng.next_bits(n), rng.next_bits(n));
  }
  const auto ops = sim::wide_transpose_batch(pairs, n, 64);
  for (int lane = 0; lane < 37; ++lane) {
    EXPECT_EQ(sim::wide_lane_value(ops.a, n, ops.words(), lane),
              pairs[lane].first);
    EXPECT_EQ(sim::wide_lane_value(ops.b, n, ops.words(), lane),
              pairs[lane].second);
  }
  for (int lane = 37; lane < 64; ++lane) {
    EXPECT_TRUE(sim::wide_lane_value(ops.a, n, ops.words(), lane).is_zero());
    EXPECT_TRUE(sim::wide_lane_value(ops.b, n, ops.words(), lane).is_zero());
  }
}

TEST(BatchEngine, RejectsBadArguments) {
  WideBatch ops(8, 64);
  WideResult out;
  EXPECT_THROW(sim::wide_aca_add_into(ops, 0, nullptr, out),
               std::invalid_argument);
  EXPECT_THROW(sim::wide_aca_add_into(WideBatch(0, 64), 4, nullptr, out),
               std::invalid_argument);
  EXPECT_THROW(sim::wide_aca_sub_into(ops, 0, out), std::invalid_argument);
  // A slice whose size does not match width * words.
  WideBatch corrupt(8, 64);
  corrupt.a.pop_back();
  EXPECT_THROW(sim::wide_aca_add_into(corrupt, 4, nullptr, out),
               std::invalid_argument);
  EXPECT_THROW(sim::wide_aca_sub_into(corrupt, 4, out), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(sim::wide_longest_runs(corrupt)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(sim::wide_lane_value(ops.a, 8, 1, 64)),
               std::invalid_argument);
  EXPECT_THROW(
      sim::wide_transpose_batch(
          std::vector<std::pair<BitVec, BitVec>>(65,
                                                 {BitVec(8), BitVec(8)}),
          8, 64),
      std::invalid_argument);
}

TEST(BatchEngineWide, EveryTierMatchesScalarModelOnRandomOperands) {
  // Every batch size the dispatcher accepts, including the ones where a
  // SIMD tier's group does not divide the batch and dispatch silently
  // resolves to a narrower tier (checked in
  // BatchEngineIsa.ResolvedIsaFallsBackToDividingTier).
  Rng rng(0x51d0);
  for (int lanes : {64, 128, 256, 512}) {
    for (int n : {8, 64, 333}) {
      for (int k : windows_for(n)) {
        WideBatch ops(n, lanes);
        for (int t = 0; t < 6; ++t) {
          sim::fill_uniform(rng, ops);
          const auto cin = (t % 2 == 0) ? random_lane_mask(rng, lanes)
                                        : std::vector<std::uint64_t>{};
          expect_every_tier_matches_core(ops, cin, k);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(BatchEngineWide, EveryTierMatchesScalarOnAllPropagateOperands) {
  // Adversarial case: b = ~a makes every bit position a propagate, so
  // the chain spans the whole operand — the worst case for speculation
  // and the exact pattern where window seeding bugs would show.  With
  // carry-in set the speculative sum is wrong on every lane; without it
  // the speculative sum happens to be right but the flag still fires.
  const int n = 256;
  for (int lanes : {64, 256, 512}) {
    Rng rng(0xadf);
    WideBatch ops(n, lanes);
    sim::fill_uniform(rng, ops);
    for (std::size_t i = 0; i < ops.b.size(); ++i) ops.b[i] = ~ops.a[i];
    const std::vector<std::uint64_t> ones(
        static_cast<std::size_t>(lanes) / 64, ~std::uint64_t{0});
    for (int k : {4, n / 2, n}) {
      expect_every_tier_matches_core(ops, ones, k);
      if (HasFatalFailure()) return;
      for (Isa isa : testable_isas()) {
        WideResult got;
        sim::wide_aca_add_into(ops, k, ones.data(), got, isa);
        WideResult no_cin;
        sim::wide_aca_add_into(ops, k, nullptr, no_cin, isa);
        for (int lane = 0; lane < lanes; ++lane) {
          ASSERT_TRUE(got.flagged_lane(lane));  // chain = n >= k always
          // With carry-in, the length-k window seeds 0 where the exact
          // chain carries 1 — at minimum the carry-out mispredicts.
          ASSERT_TRUE(got.wrong_lane(lane));
          ASSERT_TRUE(no_cin.flagged_lane(lane));
          // All-propagate with cin=0: every window ripples to 0 carries,
          // which matches the exact chain — flagged but not wrong.
          ASSERT_FALSE(no_cin.wrong_lane(lane));
        }
      }
    }
  }
}

TEST(BatchEngineWide, AllTiersProduceBitIdenticalOutputs) {
  // Stronger than per-lane agreement: the raw output vectors of every
  // supported tier must equal the scalar tier's word for word.
  Rng rng(0xb17);
  for (int lanes : {256, 512}) {
    for (int n : {64, 333}) {
      WideBatch ops(n, lanes);
      sim::fill_uniform(rng, ops);
      const auto cin = random_lane_mask(rng, lanes);
      const int k = 8;
      WideResult ref;
      sim::wide_aca_add_into(ops, k, cin.data(), ref, Isa::Scalar);
      for (Isa isa : testable_isas()) {
        WideResult got;
        sim::wide_aca_add_into(ops, k, cin.data(), got, isa);
        expect_same_result(got, ref, isa);
        EXPECT_EQ(sim::wide_longest_runs(ops, isa),
                  sim::wide_longest_runs(ops, Isa::Scalar))
            << sim::isa_name(isa);
      }
    }
  }
}

TEST(BatchEngineWide, LongestRunsMatchScalarChainLength) {
  Rng rng(0x3a1);
  for (int lanes : {256, 512}) {
    for (int n : {8, 64, 333}) {
      WideBatch ops(n, lanes);
      for (int t = 0; t < 6; ++t) {
        sim::fill_uniform(rng, ops);
        const auto runs = sim::wide_longest_runs(ops, Isa::Scalar);
        ASSERT_EQ(static_cast<int>(runs.size()), lanes);
        for (int lane = 0; lane < lanes; ++lane) {
          const BitVec a = sim::wide_lane_value(ops.a, n, ops.words(), lane);
          const BitVec b = sim::wide_lane_value(ops.b, n, ops.words(), lane);
          ASSERT_EQ(runs[lane], longest_propagate_chain(a, b))
              << "lane " << lane << " n=" << n;
        }
        for (Isa isa : testable_isas()) {
          ASSERT_EQ(sim::wide_longest_runs(ops, isa), runs)
              << sim::isa_name(isa) << " n=" << n;
        }
      }
    }
  }
}

TEST(BatchEngineWide, SubtractionPathMatchesScalar) {
  // a - b with b ~= a: a ^ ~b is then mostly ones, so the borrow chains
  // are long and the speculative difference is often wrong — the case
  // the uniform grid above rarely reaches at large k.
  Rng rng(0x5b5);
  for (int n : {64, 333}) {
    WideBatch ops(n, kMaxBatchLanes);
    WideResult got;
    std::uint64_t wrong_seen = 0;
    for (int t = 0; t < 4; ++t) {
      sim::fill_uniform(rng, ops);
      ops.b = ops.a;
      for (int f = 0; f < 2 * ops.words(); ++f) {
        ops.b[rng.next_below(ops.b.size())] = rng.next_u64();
      }
      for (int k : {6, 16}) {
        expect_every_tier_matches_core(ops, {}, k, /*subtract=*/true);
        if (HasFatalFailure()) return;
        sim::wide_aca_sub_into(ops, k, got);
        for (int w = 0; w < ops.words(); ++w) {
          ASSERT_EQ(got.wrong[w] & ~got.flagged[w], 0u) << "n=" << n;
          wrong_seen |= got.wrong[w];
        }
      }
    }
    EXPECT_NE(wrong_seen, 0u) << "n=" << n;
  }
}

TEST(BatchEngineWide, TransposeRoundTripOnEveryTier) {
  Rng rng(0x7a2);
  const int n = 96;
  for (Isa isa : testable_isas()) {
    for (int lanes : {256, 512}) {
      std::vector<std::pair<BitVec, BitVec>> pairs;
      const int used = lanes - 27;  // deliberately a partial batch
      for (int i = 0; i < used; ++i) {
        pairs.emplace_back(rng.next_bits(n), rng.next_bits(n));
      }
      const auto ops = sim::wide_transpose_batch(pairs, n, lanes, isa);
      const auto back_a = sim::wide_lane_values(ops.a, n, lanes, isa);
      const auto back_b = sim::wide_lane_values(ops.b, n, lanes, isa);
      for (int lane = 0; lane < used; ++lane) {
        ASSERT_EQ(back_a[static_cast<std::size_t>(lane)], pairs[lane].first)
            << sim::isa_name(isa) << " lane " << lane;
        ASSERT_EQ(back_b[static_cast<std::size_t>(lane)], pairs[lane].second)
            << sim::isa_name(isa) << " lane " << lane;
        ASSERT_EQ(sim::wide_lane_value(ops.a, n, ops.words(), lane),
                  pairs[lane].first)
            << sim::isa_name(isa) << " lane " << lane;
      }
      for (int lane = used; lane < lanes; ++lane) {
        ASSERT_TRUE(back_a[static_cast<std::size_t>(lane)].is_zero());
        ASSERT_TRUE(back_b[static_cast<std::size_t>(lane)].is_zero());
      }
    }
  }
}

TEST(BatchEngineWide, RejectsBadArguments) {
  WideBatch ops(8, 64);
  WideResult out;
  // Lane counts are validated at dispatch: not a multiple of 64, zero,
  // or beyond kMaxBatchLanes all reject.
  WideBatch bad(8, 64);
  bad.lanes = 96;
  EXPECT_THROW(sim::wide_aca_add_into(bad, 4, nullptr, out),
               std::invalid_argument);
  bad.lanes = 0;
  EXPECT_THROW(sim::wide_aca_add_into(bad, 4, nullptr, out),
               std::invalid_argument);
  bad.lanes = 1024;
  EXPECT_THROW(sim::wide_aca_add_into(bad, 4, nullptr, out),
               std::invalid_argument);
  EXPECT_THROW(sim::wide_lane_values(ops.a, 8, 128), std::invalid_argument);
  EXPECT_THROW(
      sim::wide_transpose_batch(
          std::vector<std::pair<BitVec, BitVec>>(257,
                                                 {BitVec(8), BitVec(8)}),
          8, 256),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// ISA probing and dispatch resolution.
// ---------------------------------------------------------------------------

TEST(BatchEngineIsa, NamesLanesAndParsingAgree) {
  EXPECT_STREQ(sim::isa_name(Isa::Scalar), "scalar");
  EXPECT_STREQ(sim::isa_name(Isa::Avx2), "avx2");
  EXPECT_STREQ(sim::isa_name(Isa::Avx512), "avx512");
  EXPECT_EQ(sim::isa_lanes(Isa::Scalar), 64);
  EXPECT_EQ(sim::isa_lanes(Isa::Avx2), 256);
  EXPECT_EQ(sim::isa_lanes(Isa::Avx512), 512);
  for (Isa isa : {Isa::Scalar, Isa::Avx2, Isa::Avx512}) {
    EXPECT_EQ(sim::parse_isa(sim::isa_name(isa)), isa);
  }
  EXPECT_EQ(sim::parse_isa("AVX2"), Isa::Avx2);       // case-insensitive
  EXPECT_EQ(sim::parse_isa("avx-512"), Isa::Avx512);  // hyphen alias
  EXPECT_EQ(sim::parse_isa("neon"), std::nullopt);
  EXPECT_EQ(sim::parse_isa(""), std::nullopt);
}

TEST(BatchEngineIsa, SupportImpliesCompiledAndScalarAlwaysWorks) {
  EXPECT_TRUE(sim::isa_compiled(Isa::Scalar));
  EXPECT_TRUE(sim::isa_supported(Isa::Scalar));
  for (Isa isa : {Isa::Avx2, Isa::Avx512}) {
    if (sim::isa_supported(isa)) {
      EXPECT_TRUE(sim::isa_compiled(isa));
    }
  }
  EXPECT_TRUE(sim::isa_supported(sim::best_isa()));
  EXPECT_TRUE(sim::isa_supported(sim::active_isa()));
  EXPECT_EQ(sim::active_lanes(), sim::isa_lanes(sim::active_isa()));
}

TEST(BatchEngineIsa, ResolvedIsaFallsBackToDividingTier) {
  // resolved_isa reports which tier a dispatch actually runs: the
  // widest supported tier <= requested whose group divides the batch.
  for (Isa req : testable_isas()) {
    // 64 lanes (1 word): only the scalar group divides it.
    EXPECT_EQ(sim::resolved_isa(req, 64), Isa::Scalar);
    // 128 lanes (2 words): no SIMD group (4 or 8 words) divides it.
    EXPECT_EQ(sim::resolved_isa(req, 128), Isa::Scalar);
    const Isa at256 = sim::resolved_isa(req, 256);
    const Isa at512 = sim::resolved_isa(req, 512);
    if (req == Isa::Scalar) {
      EXPECT_EQ(at256, Isa::Scalar);
      EXPECT_EQ(at512, Isa::Scalar);
    } else {
      // 256 lanes never resolves above AVX2 (the AVX-512 group is 8
      // words, 256 lanes is 4); 512 takes the requested tier.
      EXPECT_EQ(at256, Isa::Avx2);
      EXPECT_EQ(at512, req);
    }
  }
  EXPECT_THROW(static_cast<void>(sim::resolved_isa(Isa::Scalar, 0)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(sim::resolved_isa(Isa::Scalar, 96)),
               std::invalid_argument);
}

TEST(BatchEngineIsa, ForcedIsaIsHonored) {
  // When CI forces a tier via VLSA_FORCE_ISA, the process-wide choice
  // must match it — this is what makes the forced-scalar differential
  // run in CI meaningful.
  const char* forced = std::getenv("VLSA_FORCE_ISA");
  if (forced == nullptr || *forced == '\0') {
    GTEST_SKIP() << "VLSA_FORCE_ISA not set";
  }
  const auto parsed = sim::parse_isa(forced);
  ASSERT_TRUE(parsed.has_value()) << forced;
  EXPECT_EQ(sim::active_isa(), *parsed);
}

TEST(BatchEngineIsa, LanesForBatchPicksSmallestFit) {
  EXPECT_EQ(sim::lanes_for_batch(1), 64);
  EXPECT_EQ(sim::lanes_for_batch(64), 64);
  EXPECT_EQ(sim::lanes_for_batch(65), 256);
  EXPECT_EQ(sim::lanes_for_batch(256), 256);
  EXPECT_EQ(sim::lanes_for_batch(257), 512);
  EXPECT_EQ(sim::lanes_for_batch(512), 512);
}

}  // namespace
}  // namespace vlsa
