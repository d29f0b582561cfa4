// Tests for the arithmetic service: correctness against the scalar ACA
// model, fixed-seed determinism of the telemetry snapshot, bounded-queue
// backpressure, drain-on-destroy, and multi-producer/multi-worker
// operation (the suites here also run under the `tsan` preset).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/aca.hpp"
#include "service/bounded_queue.hpp"
#include "service/service.hpp"
#include "sim/isa.hpp"
#include "telemetry/registry.hpp"
#include "trace/trace.hpp"
#include "util/bitvec.hpp"
#include "workloads/operand_stream.hpp"

namespace vlsa {
namespace {

using service::AdderService;
using service::Completion;
using service::OverflowPolicy;
using service::ServiceConfig;
using util::BitVec;

ServiceConfig pump_config(int width, int window,
                          std::size_t capacity = 4096) {
  ServiceConfig config;
  config.pipeline.width = width;
  config.pipeline.window = window;
  config.workers = 0;
  config.queue_capacity = capacity;
  config.record_wall_time = false;
  return config;
}

// The queue pushes spans only; a single item is a one-item span.
bool try_push_one(service::BoundedQueue<int>& queue, int value) {
  return queue.try_push_many(std::span<int>(&value, 1)) == 1;
}

long long counter_value(const telemetry::Snapshot& snap,
                        const std::string& name) {
  for (const auto& [key, value] : snap.counters) {
    if (key == name) return value;
  }
  ADD_FAILURE() << "no counter named " << name;
  return -1;
}

TEST(ServiceCorrectness, PumpModeMatchesScalarModel) {
  const int width = 64, window = 8;
  AdderService service(pump_config(width, window));
  workloads::OperandStream stream(workloads::Distribution::Uniform, width,
                                  0xfeed);
  struct Expected {
    BitVec sum;
    bool flagged;
    std::future<Completion> future;
  };
  std::vector<Expected> expected;
  for (int i = 0; i < 500; ++i) {
    const auto [a, b] = stream.next();
    auto future = service.submit(a, b);
    ASSERT_TRUE(future.has_value());
    expected.push_back({a + b, core::aca_flag(a, b, window),
                        std::move(*future)});
  }
  service.flush();
  for (auto& e : expected) {
    const Completion got = e.future.get();
    EXPECT_EQ(got.sum, e.sum);
    EXPECT_EQ(got.flagged, e.flagged);
    EXPECT_GE(got.latency_cycles, 1);
  }
  const auto snap = service.registry().snapshot();
  EXPECT_EQ(counter_value(snap, "service.completed"), 500);
  EXPECT_EQ(counter_value(snap, "service.fast_path") +
                counter_value(snap, "service.recovered"),
            500);
}

TEST(ServiceCorrectness, WideBatchDispatchMatchesScalarModel) {
  // max_batch = the detected SIMD lane width (the default): a flush
  // after >512 queued submissions makes every dispatch pop a batch
  // wider than 64 requests, driving full-size batches through dispatch
  // end to end.  Window 6 at width 64 flags often enough that the
  // recovery lane runs inside wide batches too.
  const int width = 64, window = 6;
  auto config = pump_config(width, window);
  config.max_batch = sim::active_lanes();
  AdderService service(config);
  workloads::OperandStream stream(workloads::Distribution::Uniform, width,
                                  0x51d5);
  struct Expected {
    BitVec sum;
    bool flagged;
    std::future<Completion> future;
  };
  std::vector<Expected> expected;
  for (int i = 0; i < 1200; ++i) {
    const auto [a, b] = stream.next();
    auto future = service.submit(a, b);
    ASSERT_TRUE(future.has_value());
    expected.push_back({a + b, core::aca_flag(a, b, window),
                        std::move(*future)});
  }
  service.flush();
  int flagged = 0;
  for (auto& e : expected) {
    const Completion got = e.future.get();
    EXPECT_EQ(got.sum, e.sum);
    EXPECT_EQ(got.flagged, e.flagged);
    flagged += e.flagged ? 1 : 0;
  }
  EXPECT_GT(flagged, 0);  // the batch actually exercised recovery
  const auto snap = service.registry().snapshot();
  EXPECT_EQ(counter_value(snap, "service.completed"), 1200);
  EXPECT_EQ(counter_value(snap, "service.recovered"), flagged);
}

TEST(ServiceCorrectness, ComplementaryTrafficWrongMatchesScalarModel) {
  // b ≈ ~a: nearly every request flags, and whether its speculative
  // answer was wrong depends on the exact carry into its longest runs —
  // the speculative_wrong term the row-wise evaluator derives from the
  // exact sum.  Every completion must match aca_add, carry out included.
  const int width = 256, window = 32;
  AdderService service(pump_config(width, window));
  workloads::OperandStream stream(workloads::Distribution::Complementary,
                                  width, 0xc0de);
  struct Expected {
    BitVec sum;
    bool flagged;
    bool wrong;
    std::future<Completion> future;
  };
  std::vector<Expected> expected;
  int wrong = 0, flagged_right = 0;
  for (int i = 0; i < 600; ++i) {
    const auto [a, b] = stream.next();
    const core::AcaResult spec = core::aca_add(a, b, window);
    const auto exact = a.add_with_carry(b);
    const bool is_wrong =
        spec.sum != exact.sum || spec.carry_out != exact.carry_out;
    wrong += is_wrong ? 1 : 0;
    flagged_right += spec.flagged && !is_wrong ? 1 : 0;
    auto future = service.submit(a, b);
    ASSERT_TRUE(future.has_value());
    expected.push_back(
        {exact.sum, spec.flagged, is_wrong, std::move(*future)});
  }
  service.flush();
  for (auto& e : expected) {
    const Completion got = e.future.get();
    EXPECT_EQ(got.sum, e.sum);
    EXPECT_EQ(got.flagged, e.flagged);
    EXPECT_EQ(got.speculative_wrong, e.wrong);
  }
  // The traffic reaches both outcomes of a flagged request.
  EXPECT_GT(wrong, 0);
  EXPECT_GT(flagged_right, 0);
  EXPECT_EQ(counter_value(service.registry().snapshot(),
                          "service.speculative_wrong"),
            wrong);
}

TEST(ServiceDeterminism, FixedSeedSnapshotsAreByteIdentical) {
  // Single worker (pump mode), fixed seed, wall-time recording off:
  // the full telemetry snapshot — histograms included — must be
  // bit-identical across repeats.
  auto run = [] {
    // window 4 at width 64 flags often, exercising the recovery lane.
    AdderService service(pump_config(64, 4));
    workloads::OperandStream stream(workloads::Distribution::Uniform, 64,
                                    0x5eed);
    for (int i = 0; i < 1000; ++i) {
      auto [a, b] = stream.next();
      EXPECT_TRUE(service.submit(std::move(a), std::move(b)).has_value());
      if (i % 3 == 0) service.pump();  // interleave dispatch with arrivals
    }
    service.flush();
    return service.registry().snapshot();
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.to_json(), second.to_json());
  EXPECT_GT(counter_value(first, "service.recovered"), 0);
}

TEST(ServiceCorrectness, SubmitManyMatchesPerRequestSubmit) {
  const int width = 64, window = 8;
  AdderService service(pump_config(width, window));
  workloads::OperandStream stream(workloads::Distribution::Uniform, width,
                                  0xbead);
  std::vector<std::pair<BitVec, BitVec>> ops;
  std::vector<BitVec> sums;
  for (int i = 0; i < 200; ++i) {
    auto [a, b] = stream.next();
    sums.push_back(a + b);
    ops.emplace_back(std::move(a), std::move(b));
  }
  auto futures = service.submit_many(std::move(ops));
  ASSERT_EQ(futures.size(), 200u);
  service.flush();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_TRUE(futures[i].has_value()) << "rejected at " << i;
    EXPECT_EQ(futures[i]->get().sum, sums[i]);
  }
  const auto snap = service.registry().snapshot();
  EXPECT_EQ(counter_value(snap, "service.submitted"), 200);
  EXPECT_EQ(counter_value(snap, "service.completed"), 200);
}

TEST(ServiceBackpressure, SubmitManyRejectsTailBeyondCapacity) {
  // Pump mode with a 8-slot queue: a 12-element batch accepts the first
  // 8 and rejects the last 4, in order.
  AdderService service(pump_config(32, 4, /*capacity=*/8));
  std::vector<std::pair<BitVec, BitVec>> ops;
  for (int i = 0; i < 12; ++i) {
    ops.emplace_back(BitVec::from_u64(32, static_cast<std::uint64_t>(i)),
                     BitVec::from_u64(32, 1));
  }
  auto futures = service.submit_many(std::move(ops));
  ASSERT_EQ(futures.size(), 12u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(futures[static_cast<std::size_t>(i)].has_value()) << i;
  }
  for (int i = 8; i < 12; ++i) {
    EXPECT_FALSE(futures[static_cast<std::size_t>(i)].has_value()) << i;
  }
  service.flush();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)]->get().sum,
              BitVec::from_u64(32, static_cast<std::uint64_t>(i) + 1));
  }
  const auto snap = service.registry().snapshot();
  EXPECT_EQ(counter_value(snap, "service.submitted"), 8);
  EXPECT_EQ(counter_value(snap, "service.rejected"), 4);
}

TEST(ServiceBackpressure, BoundedQueueRejectsExactlyWhenFull) {
  auto config = pump_config(32, 4, /*capacity=*/8);
  config.overflow = OverflowPolicy::Reject;
  AdderService service(config);
  const BitVec a = BitVec::from_u64(32, 1);
  const BitVec b = BitVec::from_u64(32, 2);
  std::vector<std::future<Completion>> accepted;
  for (int i = 0; i < 8; ++i) {
    auto future = service.submit(a, b);
    ASSERT_TRUE(future.has_value()) << "rejected below capacity, i=" << i;
    accepted.push_back(std::move(*future));
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(service.submit(a, b).has_value());
  }
  {
    const auto snap = service.registry().snapshot();
    EXPECT_EQ(counter_value(snap, "service.submitted"), 8);
    EXPECT_EQ(counter_value(snap, "service.rejected"), 3);
  }
  // Draining frees capacity: the next submission is accepted again.
  service.flush();
  auto future = service.submit(a, b);
  ASSERT_TRUE(future.has_value());
  accepted.push_back(std::move(*future));
  service.flush();
  for (auto& f : accepted) {
    EXPECT_EQ(f.get().sum, BitVec::from_u64(32, 3));
  }
}

TEST(ServiceShutdown, DestructorDrainsInFlight) {
  telemetry::Registry registry;
  std::vector<std::future<Completion>> futures;
  const int width = 64;
  workloads::OperandStream stream(workloads::Distribution::Uniform, width,
                                  0xd1e);
  std::vector<BitVec> sums;
  {
    ServiceConfig config;
    config.pipeline.width = width;
    config.pipeline.window = 8;
    config.workers = 2;
    config.queue_capacity = 256;
    AdderService service(config, &registry);
    for (int i = 0; i < 2000; ++i) {
      auto [a, b] = stream.next();
      sums.push_back(a + b);
      auto future = service.submit(std::move(a), std::move(b));
      ASSERT_TRUE(future.has_value());
      futures.push_back(std::move(*future));
    }
    // Destructor runs here with requests still queued and in flight.
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Completion got = futures[i].get();  // must not hang or throw
    EXPECT_EQ(got.sum, sums[i]);
  }
  const auto snap = registry.snapshot();
  EXPECT_EQ(counter_value(snap, "service.completed"), 2000);
}

TEST(ServiceShutdown, SubmitAfterCloseThrows) {
  AdderService service(pump_config(32, 4));
  service.close();
  EXPECT_THROW(
      service.submit(BitVec::from_u64(32, 1), BitVec::from_u64(32, 2)),
      std::runtime_error);
}

TEST(ServiceShutdown, OperandWidthMismatchThrows) {
  AdderService service(pump_config(32, 4));
  EXPECT_THROW(
      service.submit(BitVec::from_u64(16, 1), BitVec::from_u64(32, 2)),
      std::invalid_argument);
}

TEST(ServiceConcurrency, MultiProducerBlockPolicyCompletesAll) {
  telemetry::Registry registry;
  {
    ServiceConfig config;
    config.pipeline.width = 64;
    config.pipeline.window = 6;
    config.workers = 4;
    config.queue_capacity = 64;  // small bound: exercises blocking
    config.overflow = OverflowPolicy::Block;
    AdderService service(config, &registry);
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 2000;
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&service, p] {
        workloads::OperandStream stream(workloads::Distribution::Uniform,
                                        64, 100 + p);
        for (int i = 0; i < kPerProducer; ++i) {
          auto [a, b] = stream.next();
          ASSERT_TRUE(
              service.submit(std::move(a), std::move(b)).has_value());
        }
      });
    }
    for (auto& producer : producers) producer.join();
    service.flush();
    const auto snap = registry.snapshot();
    EXPECT_EQ(counter_value(snap, "service.completed"),
              kProducers * kPerProducer);
    EXPECT_EQ(counter_value(snap, "service.rejected"), 0);
  }
}

TEST(ServiceRecovery, ComplementaryTrafficCongestsRecoveryLane) {
  const int width = 64, window = 8;
  auto config = pump_config(width, window);
  config.pipeline.recovery_cycles = 2;
  AdderService service(config);
  util::Rng rng(7);
  std::vector<std::pair<BitVec, std::future<Completion>>> expected;
  for (int i = 0; i < 256; ++i) {
    const BitVec a = rng.next_bits(width);
    const BitVec b = ~a;  // full-width propagate chain: always flags
    auto future = service.submit(a, b);
    ASSERT_TRUE(future.has_value());
    expected.emplace_back(a + b, std::move(*future));
  }
  service.flush();
  for (auto& [sum, future] : expected) {
    const Completion got = future.get();
    EXPECT_EQ(got.sum, sum);
    EXPECT_TRUE(got.flagged);
    EXPECT_GE(got.latency_cycles, 1 + config.pipeline.recovery_cycles);
  }
  const auto snap = service.registry().snapshot();
  EXPECT_EQ(counter_value(snap, "service.recovered"), 256);
  EXPECT_EQ(counter_value(snap, "service.fast_path"), 0);
  // The serial recovery lane backs up: the tail is far above the median.
  for (const auto& h : snap.histograms) {
    if (h.name == "service.latency_cycles") {
      EXPECT_GT(h.p999(), h.p50());
      EXPECT_GE(h.max, 256u * 2u);  // ~2 cycles per queued recovery
    }
  }
}

TEST(ServiceTelemetry, FastPathMinimumLatencyIsOneCycle) {
  // A huge window never flags: everything takes the one-cycle fast path.
  AdderService service(pump_config(64, 64));
  workloads::OperandStream stream(workloads::Distribution::Uniform, 64, 3);
  for (int i = 0; i < 64; ++i) {
    auto [a, b] = stream.next();
    ASSERT_TRUE(service.submit(std::move(a), std::move(b)).has_value());
  }
  service.flush();
  const auto snap = service.registry().snapshot();
  for (const auto& h : snap.histograms) {
    if (h.name == "service.latency_cycles") {
      EXPECT_EQ(h.min, 1u);
      EXPECT_EQ(h.count, 64u);
    }
  }
  EXPECT_EQ(counter_value(snap, "service.recovered"), 0);
}

TEST(BoundedQueue, PushPopBatchBasics) {
  service::BoundedQueue<int> queue(4);
  std::vector<int> items{1, 2, 3, 4, 5};
  EXPECT_EQ(queue.try_push_many(items), 4u);  // the prefix that fits
  EXPECT_EQ(items[4], 5);                     // refused suffix untouched
  EXPECT_FALSE(try_push_one(queue, 5));       // full
  std::vector<int> out;
  EXPECT_EQ(queue.try_pop_batch(out, 3), 3u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(try_push_one(queue, 5));  // space again
  out.clear();
  EXPECT_EQ(queue.try_pop_batch(out, 10), 2u);
  EXPECT_EQ(out, (std::vector<int>{4, 5}));
  EXPECT_EQ(queue.try_pop_batch(out, 10), 0u);
}

TEST(BoundedQueue, CloseDrainsThenSignalsShutdown) {
  service::BoundedQueue<int> queue(8);
  std::vector<int> items{1, 2};
  EXPECT_EQ(queue.push_many_block(items), 2u);
  queue.close();
  EXPECT_FALSE(try_push_one(queue, 3));
  std::vector<int> late{3};
  EXPECT_EQ(queue.push_many_block(late), 0u);
  std::vector<int> out;
  // A closed queue drains without lingering...
  EXPECT_EQ(queue.pop_batch(out, 64, std::chrono::microseconds(1'000'000)),
            2u);
  // ...and then reports shutdown immediately (no block).
  EXPECT_EQ(queue.pop_batch(out, 64, std::chrono::microseconds(1'000'000)),
            0u);
}

// Like counter_value but tolerant of a not-yet-registered name: used
// for polling loops where failing the test on a race would be wrong.
long long counter_or_zero(const telemetry::Snapshot& snap,
                          const std::string& name) {
  for (const auto& [key, value] : snap.counters) {
    if (key == name) return value;
  }
  return 0;
}

TEST(ServiceShardedRouting, HashSpreadsUniformTrafficAcrossShards) {
  // Hash routing over uniform operands must land within a loose band of
  // the even split on every shard — a collapsed or starved shard means
  // the mixer is broken, not that the test got unlucky (8000 draws at
  // p=1/4 put 6 sigma well inside the band).
  auto config = pump_config(64, 8);
  config.shards = 4;
  AdderService service(config);
  workloads::OperandStream stream(workloads::Distribution::Uniform, 64,
                                  0x40a5);
  std::array<int, 4> counts{};
  constexpr int kDraws = 8000;
  for (int i = 0; i < kDraws; ++i) {
    const auto [a, b] = stream.next();
    counts[service.route_of(a, b)]++;
  }
  for (int s = 0; s < 4; ++s) {
    EXPECT_GT(counts[static_cast<std::size_t>(s)], kDraws * 15 / 100)
        << "shard " << s << " starved";
    EXPECT_LT(counts[static_cast<std::size_t>(s)], kDraws * 35 / 100)
        << "shard " << s << " overloaded";
  }
}

TEST(ServiceShardedRouting, RouteIsDeterministicPerOperandPair) {
  // Block-policy network retries re-submit the same operands; hash
  // routing must send the retry to the same shard (and the same
  // operands must route identically across service instances with the
  // same shard count).
  auto config = pump_config(64, 8);
  config.shards = 4;
  AdderService first(config);
  AdderService second(config);
  workloads::OperandStream stream(workloads::Distribution::Uniform, 64, 77);
  for (int i = 0; i < 256; ++i) {
    const auto [a, b] = stream.next();
    const auto shard = first.route_of(a, b);
    EXPECT_EQ(shard, first.route_of(a, b));
    EXPECT_EQ(shard, second.route_of(a, b));
  }
}

// submit() is a one-request call of the same routing body submit_many
// runs, so under Hash a pair lands on the same shard either way.
TEST(ServiceShardedRouting, SingleAndBulkSubmitsShareHashPlacement) {
  auto config = pump_config(64, 8);
  config.shards = 2;
  AdderService singles(config);
  AdderService bulk(config);
  workloads::OperandStream stream(workloads::Distribution::Uniform, 64,
                                  0x5b1d);
  std::vector<std::pair<BitVec, BitVec>> ops;
  std::vector<std::future<Completion>> single_futures;
  for (int i = 0; i < 64; ++i) {
    const auto [a, b] = stream.next();
    ops.emplace_back(a, b);
    auto future = singles.submit(a, b);
    ASSERT_TRUE(future.has_value());
    single_futures.push_back(std::move(*future));
  }
  auto bulk_futures = bulk.submit_many(ops);
  singles.flush();
  bulk.flush();
  std::array<long long, 2> routed{};
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Completion single = single_futures[i].get();
    ASSERT_TRUE(bulk_futures[i].has_value());
    const Completion chunk = bulk_futures[i]->get();
    EXPECT_EQ(single.shard, chunk.shard) << "request " << i;
    EXPECT_EQ(static_cast<std::size_t>(single.shard),
              singles.route_of(ops[i].first, ops[i].second));
    ++routed[static_cast<std::size_t>(single.shard)];
  }
  EXPECT_GT(routed[0], 0);
  EXPECT_GT(routed[1], 0);
  const auto single_snap = singles.registry().snapshot();
  const auto bulk_snap = bulk.registry().snapshot();
  for (std::size_t s = 0; s < 2; ++s) {
    const std::string name =
        "service.submitted{shard=" + std::to_string(s) + "}";
    EXPECT_EQ(counter_value(single_snap, name), routed[s]) << name;
    EXPECT_EQ(counter_value(bulk_snap, name), routed[s]) << name;
  }
}

// RoundRobin takes one ticket per submit call: single submits rotate
// over the shards, while a submit_many chunk lands whole on one shard.
TEST(ServiceShardedRouting, RoundRobinRotatesSinglesAndKeepsChunksWhole) {
  auto config = pump_config(64, 8);
  config.shards = 2;
  config.route = service::RoutePolicy::RoundRobin;
  AdderService service(config);
  auto pair_of = [](std::uint64_t i) {
    return std::pair<BitVec, BitVec>{BitVec::from_u64(64, i),
                                     BitVec::from_u64(64, 3 * i + 1)};
  };
  std::vector<std::future<Completion>> singles;
  for (std::uint64_t i = 0; i < 6; ++i) {
    auto [a, b] = pair_of(i);
    auto future = service.submit(std::move(a), std::move(b));
    ASSERT_TRUE(future.has_value());
    singles.push_back(std::move(*future));
  }
  // Tickets 6 and 7: the first chunk goes to shard 0, the second to 1.
  std::vector<std::pair<BitVec, BitVec>> first, second;
  for (std::uint64_t i = 0; i < 8; ++i) first.push_back(pair_of(100 + i));
  for (std::uint64_t i = 0; i < 5; ++i) second.push_back(pair_of(200 + i));
  auto first_futures = service.submit_many(std::move(first));
  auto second_futures = service.submit_many(std::move(second));
  service.flush();
  for (std::size_t i = 0; i < singles.size(); ++i) {
    EXPECT_EQ(singles[i].get().shard, static_cast<int>(i % 2)) << i;
  }
  for (auto& future : first_futures) {
    ASSERT_TRUE(future.has_value());
    EXPECT_EQ(future->get().shard, 0);
  }
  for (auto& future : second_futures) {
    ASSERT_TRUE(future.has_value());
    EXPECT_EQ(future->get().shard, 1);
  }
  const auto snap = service.registry().snapshot();
  EXPECT_EQ(counter_value(snap, "service.submitted{shard=0}"), 3 + 8);
  EXPECT_EQ(counter_value(snap, "service.submitted{shard=1}"), 3 + 5);
}

TEST(ServiceShardedRouting, SubmitInstantCarriesTheShard) {
  trace::TraceSession session;
  {
    auto config = pump_config(64, 8);
    config.shards = 2;
    config.route = service::RoutePolicy::RoundRobin;
    AdderService service(config);
    for (std::uint64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(service
                      .submit(BitVec::from_u64(64, i),
                              BitVec::from_u64(64, i + 1))
                      .has_value());
    }
    service.flush();
  }
  session.stop();
  std::array<int, 2> per_shard{};
  for (const auto& event : session.collect()) {
    if (event.name != trace::EventName::kSubmit) continue;
    ASSERT_GE(event.args.shard, 0);
    ASSERT_LT(event.args.shard, 2);
    ++per_shard[static_cast<std::size_t>(event.args.shard)];
  }
  EXPECT_EQ(per_shard[0], 2);
  EXPECT_EQ(per_shard[1], 2);
}

TEST(ServiceSharded, PerShardCompletionOrderIsFifoNoLossNoDup) {
  // 4 shards x 1 dispatcher each, no stealing, a window that never
  // flags: each shard's completions must be exactly its submissions in
  // submission order — FIFO, no loss, no duplicates, and the executing
  // shard (Completion::shard) must equal the routed shard.
  ServiceConfig config;
  config.pipeline.width = 64;
  config.pipeline.window = 64;  // never flags: no recovery reordering
  config.workers = 4;
  config.shards = 4;
  config.queue_capacity = 4096;
  config.record_wall_time = false;
  telemetry::Registry registry;
  AdderService service(config, &registry);
  // The event-loop path: bulk try-submits of 50 with one sink each;
  // the sink maps the completed index back to the global request id.
  struct Recorder final : AdderService::CompletionSink {
    Recorder(std::mutex& m, std::array<std::vector<int>, 4>& c, int b)
        : mutex(m), completed(c), base(b) {}
    void complete(std::span<const std::uint32_t> indices,
                  std::span<Completion> completions) override {
      std::lock_guard<std::mutex> lock(mutex);
      for (std::size_t i = 0; i < indices.size(); ++i) {
        completed[static_cast<std::size_t>(completions[i].shard)].push_back(
            base + static_cast<int>(indices[i]));
      }
    }
    std::mutex& mutex;
    std::array<std::vector<int>, 4>& completed;
    const int base;
  };
  std::mutex mutex;
  std::array<std::vector<int>, 4> completed;
  std::array<std::vector<int>, 4> expected;
  workloads::OperandStream stream(workloads::Distribution::Uniform, 64,
                                  0xf1f0);
  constexpr int kRequests = 4000;
  constexpr int kChunk = 50;
  std::vector<std::unique_ptr<Recorder>> sinks;
  for (int base = 0; base < kRequests; base += kChunk) {
    std::vector<std::pair<BitVec, BitVec>> ops;
    for (int i = base; i < base + kChunk; ++i) {
      auto [a, b] = stream.next();
      expected[service.route_of(a, b)].push_back(i);
      ops.emplace_back(std::move(a), std::move(b));
    }
    sinks.push_back(std::make_unique<Recorder>(mutex, completed, base));
    std::vector<std::size_t> refused;
    const auto result = service.try_submit_many(ops, *sinks.back(), refused);
    ASSERT_EQ(result.accepted, static_cast<std::size_t>(kChunk))
        << "backpressure below capacity at " << base;
    ASSERT_TRUE(refused.empty());
  }
  service.flush();
  std::lock_guard<std::mutex> lock(mutex);
  std::size_t total = 0;
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(completed[static_cast<std::size_t>(s)],
              expected[static_cast<std::size_t>(s)])
        << "shard " << s << " broke per-shard FIFO";
    total += completed[static_cast<std::size_t>(s)].size();
  }
  EXPECT_EQ(total, static_cast<std::size_t>(kRequests));
}

TEST(ServiceSink, OneRunPerSinkPerBatch) {
  // Two sinks whose bulk submits interleave, half a batch each, so every
  // pumped batch holds one chunk of each.  Delivery comes in runs: per
  // pumped batch each sink gets at most one fast-path call (its
  // unflagged requests) and one recovery-lane call (its flagged ones),
  // indices ascending.  Width 200 leaves the top limb partial, so the
  // recovery lane's in-place sum must mask it.
  constexpr int kWidth = 200, kWindow = 8;
  constexpr std::size_t kChunk = 32, kRounds = 8;
  struct Call {
    std::vector<std::uint32_t> indices;
    std::vector<Completion> completions;
  };
  struct Recorder final : AdderService::CompletionSink {
    void complete(std::span<const std::uint32_t> indices,
                  std::span<Completion> completions) override {
      Call& call = calls.emplace_back();
      call.indices.assign(indices.begin(), indices.end());
      for (Completion& c : completions) {
        call.completions.push_back(std::move(c));
      }
    }
    std::vector<Call> calls;
  };
  for (const auto dist : {workloads::Distribution::Uniform,
                          workloads::Distribution::Complementary}) {
    SCOPED_TRACE(dist == workloads::Distribution::Uniform ? "Uniform"
                                                          : "Complementary");
    ServiceConfig config = pump_config(kWidth, kWindow);
    config.max_batch = 2 * static_cast<int>(kChunk);
    AdderService service(config);
    workloads::OperandStream stream(dist, kWidth, 0x5151);
    std::array<Recorder, 2> sinks;
    std::array<std::vector<std::pair<BitVec, BitVec>>, 2> sent;
    for (std::size_t round = 0; round < kRounds; ++round) {
      for (std::size_t s = 0; s < 2; ++s) {
        std::vector<std::pair<BitVec, BitVec>> ops;
        for (std::size_t i = 0; i < kChunk; ++i) {
          auto op = stream.next();
          sent[s].push_back(op);
          ops.push_back(std::move(op));
        }
        std::vector<std::size_t> refused;
        ASSERT_EQ(service.try_submit_many(ops, sinks[s], refused).accepted,
                  kChunk);
      }
    }
    // The two sinks number their requests per call (0..kChunk-1);
    // `round` maps them back onto `sent`.
    long long fast = 0, flagged = 0;
    for (std::size_t round = 0; round < kRounds; ++round) {
      std::array<std::size_t, 2> before{sinks[0].calls.size(),
                                        sinks[1].calls.size()};
      ASSERT_EQ(service.pump(), 2 * kChunk);
      for (std::size_t s = 0; s < 2; ++s) {
        std::array<int, 2> calls_by_lane{};  // [fast path, recovery lane]
        std::vector<bool> seen(kChunk, false);
        for (std::size_t c = before[s]; c < sinks[s].calls.size(); ++c) {
          const Call& call = sinks[s].calls[c];
          ASSERT_FALSE(call.indices.empty());
          ASSERT_EQ(call.indices.size(), call.completions.size());
          ASSERT_TRUE(std::is_sorted(call.indices.begin(),
                                     call.indices.end()));
          const bool lane = call.completions.front().flagged;
          ++calls_by_lane[lane ? 1 : 0];
          for (std::size_t i = 0; i < call.indices.size(); ++i) {
            const Completion& got = call.completions[i];
            ASSERT_LT(call.indices[i], kChunk);
            ASSERT_FALSE(seen[call.indices[i]]) << "duplicate completion";
            seen[call.indices[i]] = true;
            EXPECT_EQ(got.flagged, lane) << "run mixes the two lanes";
            const auto& [a, b] = sent[s][round * kChunk + call.indices[i]];
            const auto exact = a.add_with_carry(b);
            const core::AcaResult spec = core::aca_add(a, b, kWindow);
            EXPECT_EQ(got.sum, exact.sum);
            EXPECT_EQ(got.flagged, core::aca_flag(a, b, kWindow));
            EXPECT_EQ(got.speculative_wrong,
                      spec.sum != exact.sum ||
                          spec.carry_out != exact.carry_out);
            (got.flagged ? flagged : fast) += 1;
          }
        }
        EXPECT_EQ(std::count(seen.begin(), seen.end(), true),
                  static_cast<long>(kChunk))
            << "sink " << s << " lost a completion in round " << round;
        EXPECT_LE(calls_by_lane[0], 1) << "sink " << s << " round " << round;
        EXPECT_LE(calls_by_lane[1], 1) << "sink " << s << " round " << round;
      }
    }
    EXPECT_EQ(service.pump(), 0u);
    // Both lanes carried traffic (Complementary flags nearly everything).
    EXPECT_GT(flagged, 0);
    if (dist == workloads::Distribution::Uniform) {
      EXPECT_GT(fast, 0);
    }
  }
}

TEST(ServiceSharded, MultiProducerBlockCompletesAllAndLabelsAddUp) {
  // Sharded version of the Block-policy soak: small per-shard queues
  // force blocking, and afterwards the per-shard labeled counters must
  // sum exactly to the global ones (every request accounted to exactly
  // one shard).
  telemetry::Registry registry;
  {
    ServiceConfig config;
    config.pipeline.width = 64;
    config.pipeline.window = 6;
    config.workers = 4;
    config.shards = 4;
    config.queue_capacity = 64;
    config.overflow = OverflowPolicy::Block;
    AdderService service(config, &registry);
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 2000;
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&service, p] {
        workloads::OperandStream stream(workloads::Distribution::Uniform,
                                        64, 300 + p);
        for (int i = 0; i < kPerProducer; ++i) {
          auto [a, b] = stream.next();
          ASSERT_TRUE(
              service.submit(std::move(a), std::move(b)).has_value());
        }
      });
    }
    for (auto& producer : producers) producer.join();
    service.flush();
    const auto snap = registry.snapshot();
    constexpr long long kTotal = kProducers * kPerProducer;
    EXPECT_EQ(counter_value(snap, "service.completed"), kTotal);
    EXPECT_EQ(counter_value(snap, "service.rejected"), 0);
    long long submitted = 0, completed = 0;
    for (int s = 0; s < 4; ++s) {
      const std::string suffix = "{shard=" + std::to_string(s) + "}";
      submitted += counter_value(snap, "service.submitted" + suffix);
      completed += counter_value(snap, "service.completed" + suffix);
      EXPECT_GT(counter_value(snap, "service.submitted" + suffix), 0)
          << "shard " << s << " never saw traffic";
    }
    EXPECT_EQ(submitted, kTotal);
    EXPECT_EQ(completed, kTotal);
  }
}

TEST(ServiceSharded, RejectPolicyCountsAgainstTheRoutedShard) {
  // Pump mode, 2 shards, 8-slot per-shard queues, Reject policy: keep
  // submitting operands that hash-route to one shard until it overflows
  // — rejections must land on that shard's labeled counter only, and
  // the other shard must stay writable throughout.
  auto config = pump_config(64, 8, /*capacity=*/8);
  config.shards = 2;
  config.overflow = OverflowPolicy::Reject;
  AdderService service(config);
  workloads::OperandStream stream(workloads::Distribution::Uniform, 64,
                                  0x0dd);
  int accepted_to_0 = 0, rejected_from_0 = 0;
  std::pair<BitVec, BitVec> shard1_ops;
  bool have_shard1 = false;
  while (rejected_from_0 < 3) {
    auto [a, b] = stream.next();
    if (service.route_of(a, b) != 0) {
      if (!have_shard1) {
        shard1_ops = {a, b};
        have_shard1 = true;
      }
      continue;
    }
    if (service.submit(std::move(a), std::move(b)).has_value()) {
      ++accepted_to_0;
      ASSERT_LE(accepted_to_0, 8) << "accepted beyond per-shard capacity";
    } else {
      ++rejected_from_0;
    }
  }
  EXPECT_EQ(accepted_to_0, 8);
  // The sibling shard's queue is empty — it must still accept.
  ASSERT_TRUE(have_shard1);
  EXPECT_TRUE(service
                  .submit(std::move(shard1_ops.first),
                          std::move(shard1_ops.second))
                  .has_value());
  const auto snap = service.registry().snapshot();
  EXPECT_EQ(counter_value(snap, "service.rejected"), 3);
  EXPECT_EQ(counter_value(snap, "service.rejected{shard=0}"), 3);
  EXPECT_EQ(counter_value(snap, "service.rejected{shard=1}"), 0);
  service.flush();
}

TEST(ServiceSharded, NeighborStealExecutesOnThiefWithProvenance) {
  // 2 shards, all traffic hash-routed to shard 0, stealing on: shard
  // 1's idle dispatcher must lift batches from its neighbor, and every
  // stolen completion must carry the thief's shard id (Completion::
  // shard == 1) while the sums stay exact.  Sustained load with a
  // generous round cap keeps this deterministic-in-outcome even on a
  // single hardware thread.
  ServiceConfig config;
  config.pipeline.width = 64;
  config.pipeline.window = 64;  // never flags: isolate the steal path
  config.workers = 2;
  config.shards = 2;
  config.steal = service::StealPolicy::Neighbor;
  config.queue_capacity = 512;
  config.overflow = OverflowPolicy::Block;
  config.record_wall_time = false;
  telemetry::Registry registry;
  AdderService service(config, &registry);
  workloads::OperandStream stream(workloads::Distribution::Uniform, 64,
                                  0x57ea1);
  std::vector<std::pair<BitVec, BitVec>> pool;
  while (pool.size() < 256) {
    auto [a, b] = stream.next();
    if (service.route_of(a, b) == 0) pool.emplace_back(a, b);
  }
  std::vector<BitVec> sums;
  std::vector<std::future<Completion>> futures;
  bool stolen_seen = false;
  for (int round = 0; round < 400 && !stolen_seen; ++round) {
    for (const auto& [a, b] : pool) {
      auto future = service.submit(a, b);
      ASSERT_TRUE(future.has_value());
      sums.push_back(a + b);
      futures.push_back(std::move(*future));
    }
    stolen_seen = counter_or_zero(registry.snapshot(),
                                  "service.stolen{shard=1}") > 0;
  }
  service.flush();
  EXPECT_TRUE(stolen_seen) << "shard 1 never stole from its neighbor";
  int executed_on_thief = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Completion got = futures[i].get();
    EXPECT_EQ(got.sum, sums[i]);
    if (got.shard == 1) ++executed_on_thief;
  }
  EXPECT_GT(executed_on_thief, 0);
  const auto snap = registry.snapshot();
  EXPECT_EQ(counter_or_zero(snap, "service.stolen{shard=0}"), 0)
      << "shard 0 had nothing to steal from an empty neighbor";
  EXPECT_EQ(counter_value(snap, "service.completed"),
            static_cast<long long>(futures.size()));
}

TEST(ServiceSharded, SingleShardSnapshotHasNoShardLabels) {
  // shards == 1 must be byte-identical to the pre-sharding service:
  // in particular no `{shard=...}` labeled series may appear (the
  // fixed-seed determinism test above depends on this).
  AdderService service(pump_config(64, 8));
  const BitVec a = BitVec::from_u64(64, 7);
  const BitVec b = BitVec::from_u64(64, 9);
  ASSERT_TRUE(service.submit(a, b).has_value());
  service.flush();
  const auto snap = service.registry().snapshot();
  for (const auto& [key, value] : snap.counters) {
    EXPECT_EQ(key.find("{shard="), std::string::npos) << key;
  }
  for (const auto& [key, value] : snap.gauges) {
    EXPECT_EQ(key.find("{shard="), std::string::npos) << key;
  }
}

TEST(BoundedQueue, PopBatchForReportsDoneAtomicallyWithTheLastPop) {
  // The close/linger drain race: `done` must be computed under the same
  // lock as the pop, so a drainer can never see (taken == 0, done ==
  // false) forever nor exit while items remain.  The mc two-queue suite
  // (test_mc_suites.cpp) pins the interleaving; this is the plain unit
  // coverage.
  service::BoundedQueue<int> queue(8);
  EXPECT_TRUE(try_push_one(queue, 1));
  EXPECT_TRUE(try_push_one(queue, 2));
  std::vector<int> out;
  // Open queue with items: taken > 0, not done.
  auto result = queue.pop_batch_for(out, 64, std::chrono::microseconds(0),
                                    std::chrono::microseconds(1000));
  EXPECT_EQ(result.taken, 2u);
  EXPECT_FALSE(result.done);
  // Open queue, empty: times out with nothing, still not done.
  out.clear();
  result = queue.pop_batch_for(out, 64, std::chrono::microseconds(0),
                               std::chrono::microseconds(1000));
  EXPECT_EQ(result.taken, 0u);
  EXPECT_FALSE(result.done);
  // Closed with a residual item: the pop that takes the last item also
  // reports done — one call, no separate closed() check.
  EXPECT_TRUE(try_push_one(queue, 3));
  queue.close();
  out.clear();
  result = queue.pop_batch_for(out, 64, std::chrono::microseconds(0),
                               std::chrono::microseconds(1'000'000));
  EXPECT_EQ(result.taken, 1u);
  EXPECT_EQ(out, (std::vector<int>{3}));
  EXPECT_TRUE(result.done);
}

TEST(BoundedQueue, PopBatchLingerCollectsLateArrivals) {
  service::BoundedQueue<int> queue(64);
  EXPECT_TRUE(try_push_one(queue, 1));
  std::thread late([&queue] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_TRUE(try_push_one(queue, 2));
  });
  std::vector<int> out;
  const auto taken =
      queue.pop_batch(out, 64, std::chrono::microseconds(200'000));
  late.join();
  // The linger window must have picked up the second item.
  EXPECT_EQ(taken, 2u);
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace vlsa
