// Isolated layer replays for the traced run: the workload's operand pool
// pushed through one public entry point at a time, timed from outside.
//
//   net   encode_request, FrameDecoder (request frames)
//   sim   wide_transpose_batch / wide_aca_add_into / wide_lane_values at
//         the observed batch occupancy (active tier), each tier at its
//         native full batch, and the Monte-Carlo trial (fill_uniform +
//         wide_aca_add_into)
//   core  BitVec::add_with_carry, core::aca_add, core::aca_flag
//   workloads  run_batch_monte_carlo queries as mc_1024 issues them
//   service  submit_many + pump() through a workers = 0 service
//
// Every sim replay's outputs are also checked lane by lane against the
// pool's oracles; a mismatch is a failure of the run.

#include <algorithm>
#include <string>

#include "core/aca.hpp"
#include "harness.hpp"
#include "net/protocol.hpp"
#include "sim/batch_engine.hpp"
#include "sim/isa.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace sim = vlsa::sim;
using Ops = std::vector<std::pair<BitVec, BitVec>>;

template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Repeat `fn` (which handles `items` requests) for about `slot_s`
/// seconds (at least 3 calls) and return ns per request.
template <typename Fn>
double per_item_ns(double slot_s, double items, Fn&& fn) {
  fn();  // warm caches
  const std::uint64_t t0 = now_ns();
  const auto slot = static_cast<std::uint64_t>(slot_s * 1e9);
  long long calls = 0;
  std::uint64_t t = t0;
  while (calls < 3 || t - t0 < slot) {
    fn();
    ++calls;
    t = now_ns();
  }
  return static_cast<double>(t - t0) / (static_cast<double>(calls) * items);
}

/// The first `count` pool operands starting at `first`, as one batch.
Ops chunk_of(const Pool& pool, std::size_t first, int count) {
  Ops ops;
  for (int i = 0; i < count; ++i) {
    ops.push_back(pool.ops[(first + i) % pool.size()]);
  }
  return ops;
}

/// The service's unpack: one word-level un-transpose for batches over 8,
/// single-lane reads below (service.cpp does the same).
std::vector<BitVec> unpack(const sim::WideResult& r, int width, int used,
                           sim::Isa isa) {
  if (used > 8) return sim::wide_lane_values(r.sum_spec, width, r.lanes, isa);
  std::vector<BitVec> out;
  for (int j = 0; j < used; ++j) {
    out.push_back(sim::wide_lane_value(r.sum_spec, width, r.words(), j));
  }
  return out;
}

/// pack / eval / unpack ns per request for `count` requests per batch on
/// tier `isa`; checks the outputs against the oracles.
void replay_sim(const Pool& pool, int count, sim::Isa isa, double slot_s,
                const std::string& suffix, Result& out) {
  const int lanes = sim::lanes_for_batch(count);
  const Ops ops = chunk_of(pool, 0, count);
  const auto n = static_cast<double>(count);
  sim::WideBatch batch = sim::wide_transpose_batch(ops, pool.width, lanes, isa);
  sim::WideResult result;
  sim::wide_aca_add_into(batch, pool.window, nullptr, result, isa);
  const auto sums = unpack(result, pool.width, count, isa);
  for (int j = 0; j < count; ++j) {
    const std::size_t i = static_cast<std::size_t>(j) % pool.size();
    const bool flagged = result.flagged_lane(j);
    if (flagged != (pool.flag[i] != 0) ||
        result.wrong_lane(j) != (pool.wrong[i] != 0) ||
        (!flagged && sums[static_cast<std::size_t>(j)] != pool.sum[i]) ||
        sim::wide_lane_value(result.sum_exact, pool.width, result.words(), j) !=
            pool.sum[i]) {
      out.fail(std::string("sim replay on ") + sim::isa_name(isa) +
               " disagrees with core::aca_* at lane " + std::to_string(j));
      return;
    }
  }
  out.set("sim.pack_ns" + suffix, per_item_ns(slot_s, n, [&] {
            keep(sim::wide_transpose_batch(ops, pool.width, lanes, isa));
          }));
  out.set("sim.eval_ns" + suffix, per_item_ns(slot_s, n, [&] {
            sim::wide_aca_add_into(batch, pool.window, nullptr, result, isa);
            keep(result);
          }));
  out.set("sim.unpack_ns" + suffix, per_item_ns(slot_s, n, [&] {
            keep(unpack(result, pool.width, count, isa));
          }));
}

/// One Monte-Carlo trial: draw a sliced batch and evaluate it.
double replay_mc_trial(const Pool& pool, int lanes, sim::Isa isa,
                       double slot_s) {
  sim::WideBatch batch(pool.width, lanes);
  sim::WideResult result;
  vlsa::util::Rng rng(7);
  return per_item_ns(slot_s, lanes, [&] {
    sim::fill_uniform(rng, batch);
    sim::wide_aca_add_into(batch, pool.window, nullptr, result, isa);
    keep(result);
  });
}

}  // namespace

void replay_layers(const Pool& pool, int occupancy, double budget_s,
                   Result& out) {
  const std::vector<sim::Isa> tiers = {sim::Isa::Scalar, sim::Isa::Avx2,
                                       sim::Isa::Avx512};
  // 5 net/core groups + (1 + tiers) sim groups of 3 + (1 + tiers) mc
  // trials + the MC driver.
  const double slot = budget_s / (6.0 + 4.0 * 3 + 4.0 + 1.0);
  const auto n = static_cast<double>(pool.size());

  std::vector<std::uint8_t> wire;
  out.set("net.encode_req_ns", per_item_ns(slot, n, [&] {
            wire.clear();
            for (std::size_t i = 0; i < pool.size(); ++i) {
              vlsa::net::encode_request(i, pool.window, pool.ops[i].first,
                                        pool.ops[i].second, wire);
            }
            keep(wire);
          }));
  vlsa::net::DecoderLimits limits;
  limits.max_width = std::max(limits.max_width, pool.width);
  out.set("net.decode_frame_ns", per_item_ns(slot, n, [&] {
            vlsa::net::FrameDecoder decoder(limits);
            vlsa::net::RequestFrame request;
            vlsa::net::ResponseFrame response;
            decoder.feed(wire.data(), wire.size());
            std::size_t frames = 0;
            while (decoder.next(request, response) ==
                   vlsa::net::FrameDecoder::Result::Frame) {
              ++frames;
            }
            if (frames != pool.size()) out.fail("FrameDecoder lost frames");
          }));

  out.set("core.exact_add_ns", per_item_ns(slot, n, [&] {
            for (const auto& [a, b] : pool.ops) keep(a.add_with_carry(b));
          }));
  out.set("core.aca_add_ns", per_item_ns(slot, n, [&] {
            for (const auto& [a, b] : pool.ops) {
              keep(vlsa::core::aca_add(a, b, pool.window));
            }
          }));
  out.set("core.aca_flag_ns", per_item_ns(slot, n, [&] {
            bool any = false;
            for (const auto& [a, b] : pool.ops) {
              any ^= vlsa::core::aca_flag(a, b, pool.window);
            }
            keep(any);
          }));

  const int used = std::min(occupancy, sim::kMaxBatchLanes);
  replay_sim(pool, used, sim::active_isa(), slot, "", out);
  out.set("sim.mc_trial_ns",
          replay_mc_trial(pool, 256, sim::active_isa(), slot));
  for (const sim::Isa isa : tiers) {
    const std::string suffix = std::string(".") + sim::isa_name(isa);
    if (!sim::isa_supported(isa)) {
      for (const char* m : {"sim.pack_ns", "sim.eval_ns", "sim.unpack_ns",
                            "sim.mc_trial_ns"}) {
        out.set(m + suffix, 0.0);
      }
      continue;
    }
    replay_sim(pool, sim::isa_lanes(isa), isa, slot, suffix, out);
    out.set("sim.mc_trial_ns" + suffix,
            replay_mc_trial(pool, sim::isa_lanes(isa), isa, slot));
  }
  out.set("workloads.mc_trial_ns", replay_mc_query_ns(slot, out));
}

double replay_pump_ns(const Pool& pool, int occupancy, double budget_s) {
  auto config = serve_defaults(pool.width, pool.window);
  config.workers = 0;
  vlsa::service::AdderService service(config);
  const int used = std::clamp(occupancy, 1, sim::active_lanes());
  constexpr int kPrepared = 64;
  std::vector<Ops> chunks;
  for (int c = 0; c < kPrepared; ++c) {
    chunks.push_back(chunk_of(pool, static_cast<std::size_t>(c) * used, used));
  }
  double ns = 0, requests = 0;
  const std::uint64_t end = ns_after(budget_s);
  do {
    std::vector<Ops> batch = chunks;  // submit_many consumes its input
    for (auto& ops : batch) {
      auto futures = service.submit_many(std::move(ops));
      const std::uint64_t t0 = now_ns();
      while (service.pump() > 0) {
      }
      ns += static_cast<double>(now_ns() - t0);
      requests += used;
      for (auto& f : futures) {
        if (f.has_value()) keep(f->get());
      }
    }
  } while (now_ns() < end);
  return ns / requests;
}

}  // namespace perfbench
