#pragma once
// The lane-width-generic ACA kernels, templated over a LaneWord (see
// lane_word.hpp), plus the function-pointer table the runtime ISA
// dispatcher (isa.cpp) selects from.
//
// Layout contract (the "wide slice" layout): a batch of `64 * words`
// lanes stores bit i of every lane in the `words` consecutive uint64_t
// at offset `i * stride`.  A kernel instantiated for a Word with
// kWords = G processes ONE group of 64*G lanes per call — the group
// whose words sit at offset `w0` within each slice — so the dispatcher
// covers a batch by looping `w0 = 0, G, 2G, ...` with any kernel whose
// G divides `words`.  Mask outputs (ER flags, mispredict) are lane
// masks occupying words [w0, w0+G).
//
// The algorithms are the 64-lane recurrences (exact carry chain,
// windowed speculative carries, doubling-run flag, round-extension
// longest runs); the template only changes how many lanes one word
// step advances.  Differential tests pin every instantiation to the
// scalar model (tests/test_batch_engine.cpp).

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/isa.hpp"
#include "sim/lane_word.hpp"

namespace vlsa::sim::detail {

/// Output pointers for one kernel_eval call, all in the wide slice
/// layout described above (sum arrays are `n * stride` words, mask
/// arrays are `stride` words; the kernel touches only its group).
struct EvalOut {
  std::uint64_t* sum_spec = nullptr;
  std::uint64_t* sum_exact = nullptr;
  std::uint64_t* flagged = nullptr;
  std::uint64_t* wrong = nullptr;
};

/// Lane mask of runs: after the doubling loop, r[i] has lane j set iff
/// lane j's propagate bits [i-k+1 .. i] are all 1.  OR over i (only
/// i >= k-1 can hold a full window) is exactly the scalar ER flag.
template <class Word>
Word kernel_flag_from_p(const std::vector<Word>& p, int k) {
  const int n = static_cast<int>(p.size());
  if (k > n) return Word::zero();
  std::vector<Word> r = p;  // r[i]: run of length t ends at i
  int t = 1;
  while (t < k) {
    const int s = std::min(t, k - t);
    // Descending i so r[i - s] is still the length-t value.
    for (int i = n - 1; i >= 0; --i) {
      r[i] = (i >= s) ? (r[i] & r[i - s]) : Word::zero();
    }
    t += s;
  }
  Word any = Word::zero();
  for (int i = k - 1; i < n; ++i) any = any | r[i];
  return any;
}

/// Full evaluation of ACA(n, k) plus the exact adder on one lane group.
/// `carry_in` is a lane-mask base pointer (nullptr = no carry in).
template <class Word>
void kernel_eval(const std::uint64_t* a, const std::uint64_t* b, int n,
                 int stride, int w0, int k, const std::uint64_t* carry_in,
                 const EvalOut& out) {
  // Propagate/generate slices (kept as locals: p and g are cheap to
  // recompute per use but the spec-carry loop reads them k times each).
  std::vector<Word> p(static_cast<std::size_t>(n));
  std::vector<Word> g(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const Word av = Word::load(a + static_cast<std::size_t>(i) * stride + w0);
    const Word bv = Word::load(b + static_cast<std::size_t>(i) * stride + w0);
    p[i] = av ^ bv;
    g[i] = av & bv;
  }
  const Word cin =
      carry_in == nullptr ? Word::zero() : Word::load(carry_in + w0);

  // Exact carry chain: c_i = g_i | (p_i & c_{i-1}), c_{-1} = carry_in.
  Word ec = cin;
  for (int i = 0; i < n; ++i) {
    (p[i] ^ ec).store(out.sum_exact + static_cast<std::size_t>(i) * stride +
                      w0);
    ec = g[i] | (p[i] & ec);
  }

  // Speculative carries: each bit i ripples only its window
  // [max(0, i-k+1) .. i].  The seed entering the window is 0 when the
  // window is full-length (a k-propagate window speculates 0 — the error
  // source) and the architectural carry-in when the window is clamped at
  // bit 0 with fewer than k positions (a short chain to bit 0 *knows*
  // the carry-in).  Any generate/kill inside the window overwrites the
  // seed, so the two cases only differ on all-propagate windows —
  // exactly the scalar model's case split on the run length.
  //
  // `wrong` is accumulated in the same pass: a lane's speculative sum
  // bit differs from the exact one iff the incoming carries differed,
  // and the freshly computed spec sum is still in a register here.  The
  // carry-outs (`sc`, `ec` after their loops) are compared last.
  Word wrong = Word::zero();
  Word sc = cin;  // c_{i-1}; c_{-1} = carry_in
  for (int i = 0; i < n; ++i) {
    const std::size_t at = static_cast<std::size_t>(i) * stride + w0;
    const Word ss = p[i] ^ sc;
    ss.store(out.sum_spec + at);
    wrong = wrong | (ss ^ Word::load(out.sum_exact + at));
    const int lo = std::max(0, i - k + 1);
    Word c = (i < k - 1) ? cin : Word::zero();
    for (int j = lo; j <= i; ++j) {
      c = g[j] | (p[j] & c);
    }
    sc = c;
  }
  wrong = wrong | (sc ^ ec);
  wrong.store(out.wrong + w0);

  kernel_flag_from_p(p, k).store(out.flagged + w0);
}

/// Per-lane longest propagate chain for one group; `runs` receives
/// 64 * Word::kWords entries (lane order within the group).  Extend one
/// bit per round; a lane's longest run is the last t it survived.
template <class Word>
void kernel_longest_runs(const std::uint64_t* a, const std::uint64_t* b,
                         int n, int stride, int w0, int* runs) {
  std::vector<Word> p(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    p[i] = Word::load(a + static_cast<std::size_t>(i) * stride + w0) ^
           Word::load(b + static_cast<std::size_t>(i) * stride + w0);
  }
  std::fill(runs, runs + 64 * Word::kWords, 0);
  std::vector<Word> r = p;  // r[i]: lanes whose run of length t ends at i
  std::uint64_t alive_words[Word::kWords];
  for (int t = 1; t <= n; ++t) {
    Word alive = Word::zero();
    for (int i = t - 1; i < n; ++i) alive = alive | r[i];
    alive.store(alive_words);
    bool any = false;
    for (int w = 0; w < Word::kWords; ++w) {
      std::uint64_t m = alive_words[w];
      any = any || m != 0;
      while (m != 0) {
        runs[w * 64 + std::countr_zero(m)] = t;
        m &= m - 1;
      }
    }
    if (!any) break;
    for (int i = n - 1; i >= 1; --i) r[i] = r[i - 1] & p[i];
    r[0] = Word::zero();
  }
}

/// In-place 64x64 bit-matrix transpose (recursive block swaps, Hacker's
/// Delight 7-3) of kWords INDEPENDENT blocks at once, stored
/// interleaved: word r of block g is t[r * kWords + g], and afterwards
/// bit c of word r of block g is what bit r of word c of block g was.
/// Interleaved is exactly the wide slice layout restricted to one lane
/// group, so the service's pack/unpack paths feed this directly.  All
/// 384 word operations of the scalar transpose become 384 vector
/// operations covering 4 or 8 blocks — the transpose was the dominant
/// non-scaling cost of a wide dispatch before this.
template <class Word>
void kernel_transpose64(std::uint64_t* t) {
  std::uint64_t m = 0x00000000FFFFFFFFull;
  for (int j = 32; j != 0; j >>= 1, m ^= m << j) {
    const Word mask = Word::splat(m);
    for (int r = 0; r < 64; r = (r + j + 1) & ~j) {
      Word lo = Word::load(t + static_cast<std::size_t>(r) * Word::kWords);
      Word hi =
          Word::load(t + static_cast<std::size_t>(r + j) * Word::kWords);
      const Word x = (lo.shr(j) ^ hi) & mask;
      lo = lo ^ x.shl(j);
      hi = hi ^ x;
      lo.store(t + static_cast<std::size_t>(r) * Word::kWords);
      hi.store(t + static_cast<std::size_t>(r + j) * Word::kWords);
    }
  }
}

/// The per-ISA entry points the dispatcher selects between.  One table
/// per compiled LaneWord; `group_words` is Word::kWords.
struct Kernels {
  int group_words = 1;
  void (*eval)(const std::uint64_t* a, const std::uint64_t* b, int n,
               int stride, int w0, int k, const std::uint64_t* carry_in,
               const EvalOut& out) = nullptr;
  void (*longest_runs)(const std::uint64_t* a, const std::uint64_t* b, int n,
                       int stride, int w0, int* runs) = nullptr;
  void (*transpose64)(std::uint64_t* t) = nullptr;
};

template <class Word>
const Kernels* make_kernels() {
  static const Kernels table{Word::kWords, &kernel_eval<Word>,
                             &kernel_longest_runs<Word>,
                             &kernel_transpose64<Word>};
  return &table;
}

// One accessor per ISA tier.  The scalar table always exists
// (batch_engine.cpp); the SIMD ones return nullptr when their
// translation unit was compiled without the instruction set
// (batch_engine_avx2.cpp / batch_engine_avx512.cpp, gated in
// src/sim/CMakeLists.txt on compiler support).
const Kernels* scalar_kernels();
const Kernels* avx2_kernels();
const Kernels* avx512_kernels();

/// Dispatch resolution (isa.cpp): widest tier <= `requested` that is
/// supported on this machine and whose group divides `words`.  Never
/// null — scalar (group 1) always qualifies.
const Kernels* kernels_for(Isa requested, int words);

}  // namespace vlsa::sim::detail
