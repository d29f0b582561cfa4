// Fuzz harness for the row-wise ACA evaluator core::aca_eval_limbs
// (src/core/aca.hpp), the serving path's evaluator: for arbitrary
// (width <= 2048, k, a, b) it must agree with the behavioral oracle
// core::aca_add / aca_flag and with the bit-sliced wide engine on the
// exact sum, the ER flag and speculative_wrong (carry out included).
//
// Input layout: two bytes of width, two bytes of k, one mode byte, then
// operand bytes (a first, then b; missing bytes read as zero).  Mode
// bit 0 derives b from ~a with sparse flips (about one bit in 16), so
// long propagate runs — the only inputs where ER fires — are common
// instead of vanishingly rare.

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

#include "core/aca.hpp"
#include "fuzz_driver.hpp"
#include "sim/batch_engine.hpp"
#include "util/bitvec.hpp"

namespace {

using vlsa::util::BitVec;

void require(bool cond) {
  if (!cond) std::abort();  // invariant violation -> fuzzer finding
}

struct Reader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t at = 0;

  std::uint8_t byte() { return at < size ? data[at++] : 0; }
  std::uint64_t limb() {
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i) value |= std::uint64_t{byte()} << (8 * i);
    return value;
  }
};

// Bits at and above `width` must stay zero (the BitVec invariant).
void mask_top(BitVec& v) {
  if (v.width() % 64 != 0) {
    v.limbs().back() &= (std::uint64_t{1} << (v.width() % 64)) - 1;
  }
}

BitVec read_operand(Reader& in, int width) {
  BitVec v(width);
  for (auto& limb : v.limbs()) limb = in.limb();
  mask_top(v);
  return v;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  Reader in{data, size};
  const int lo = in.byte();
  const int width = 1 + ((lo | (in.byte() << 8)) % 2048);
  const int k_lo = in.byte();
  const int k = 1 + ((k_lo | (in.byte() << 8)) % (width + 2));
  const std::uint8_t mode = in.byte();
  const BitVec a = read_operand(in, width);
  BitVec b = read_operand(in, width);
  if ((mode & 1) != 0) {
    BitVec flips = b;
    for (auto& limb : flips.limbs()) {
      limb &= std::rotl(limb, 17) & std::rotl(limb, 31) & std::rotl(limb, 47);
    }
    mask_top(flips);
    b = ~a ^ flips;
  }

  BitVec sum(width);
  std::vector<std::uint64_t> scratch(sum.limbs().size());
  const vlsa::core::AcaEval row =
      vlsa::core::aca_eval_limbs(a.limbs(), b.limbs(), width, k,
                                 sum.limbs(), scratch);

  const vlsa::core::AcaResult spec = vlsa::core::aca_add(a, b, k);
  const auto exact = a.add_with_carry(b);
  const bool wrong =
      spec.sum != exact.sum || spec.carry_out != exact.carry_out;
  require(sum == exact.sum);
  require(row.flagged == spec.flagged);
  require(row.flagged == vlsa::core::aca_flag(a, b, k));
  require(row.speculative_wrong == wrong);

  const vlsa::sim::WideBatch ops =
      vlsa::sim::wide_transpose_batch({{a, b}}, width, 64);
  vlsa::sim::WideResult wide;
  vlsa::sim::wide_aca_add_into(ops, k, nullptr, wide);
  require(vlsa::sim::wide_lane_value(wide.sum_exact, width, 1, 0) == sum);
  require(wide.flagged_lane(0) == row.flagged);
  require(wide.wrong_lane(0) == row.speculative_wrong);
  return 0;
}

const std::vector<std::vector<std::uint8_t>>& fuzz_seed_inputs() {
  static const auto* seeds = [] {
    auto* s = new std::vector<std::vector<std::uint8_t>>;
    // Header bytes: width - 1 (little endian), k - 1, mode.
    const auto seed = [s](int width, int k, std::uint8_t mode,
                          std::uint8_t fill) {
      std::vector<std::uint8_t> bytes{
          static_cast<std::uint8_t>((width - 1) & 0xff),
          static_cast<std::uint8_t>((width - 1) >> 8),
          static_cast<std::uint8_t>((k - 1) & 0xff),
          static_cast<std::uint8_t>((k - 1) >> 8), mode};
      const std::size_t operand_bytes =
          2 * 8 * static_cast<std::size_t>((width + 63) / 64);
      for (std::size_t i = 0; i < operand_bytes; ++i) {
        bytes.push_back(static_cast<std::uint8_t>(fill * (i + 1) + i / 7));
      }
      s->push_back(std::move(bytes));
    };
    seed(1024, 23, 1, 0x5b);  // the gated workload's shape, long runs
    seed(64, 8, 1, 0x3d);
    seed(65, 64, 1, 0xc7);    // a window straddling the limb boundary
    seed(200, 100, 0, 0x11);
    return s;
  }();
  return *seeds;
}
