// Pins the allocation cost of the TCP request path: a counting global
// operator new counts every allocation the server's threads (event
// loop, acceptor, service dispatchers, recovery lane) make while a
// pipelined client drives steady-state traffic.  The client's own
// thread is excluded, so the count is the server's alone.
//
// Its own executable because replacing the global operator new is
// process-wide.  It carries no `net` label and its suite name stays out
// of the tsan-service filter: the sanitizer runtimes interpose the
// allocator, so the count only means something in a plain build.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "service/service.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<long long> g_allocs{0};
thread_local bool t_excluded = false;

void* allocate(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed) && !t_excluded) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace vlsa {
namespace {

using util::BitVec;

BitVec random_vec(util::Rng& rng, int width) {
  BitVec v(width);
  for (auto& limb : v.limbs()) limb = rng.next_u64();
  return v;
}

// Server allocations per request under a closed loop of corked
// 64-frame bursts over operand pairs drawn from `pool`.
double server_allocs_per_request(
    const std::vector<std::pair<BitVec, BitVec>>& pool, int width) {
  t_excluded = true;  // this thread is the client
  constexpr int kBurst = 64;
  service::ServiceConfig config;
  config.pipeline.width = width;
  config.pipeline.window = 16;
  config.workers = 1;
  service::AdderService service(config);
  net::ServerConfig server_config;
  server_config.event_threads = 1;
  net::Server server(server_config, service);
  net::Client client("127.0.0.1", server.port());
  client.cork(true);

  long long answered = 0;
  std::size_t next = 0;
  // Closed loop in bursts: send one corked burst, read its answers.
  auto run = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (int i = 0; i < kBurst; ++i) {
        const auto& [a, b] = pool[next++ % pool.size()];
        client.send(a, b);
      }
      while (client.outstanding() > 0) {
        const net::ResponseFrame response = client.recv();
        EXPECT_EQ(response.status, net::Status::Ok);
        ++answered;
      }
    }
  };
  run(200);  // warm-up: grow every reused buffer to its steady size
  answered = 0;
  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  run(400);
  g_counting.store(false, std::memory_order_relaxed);
  EXPECT_EQ(answered, 400LL * kBurst);
  return static_cast<double>(g_allocs.load(std::memory_order_relaxed)) /
         static_cast<double>(answered);
}

TEST(NetAllocations, SteadyStateServerAllocationsPerRequestBelowThree) {
  // The two operands are BitVecs — two heap allocations per request that
  // stay until the envelope holds fixed-width operands.  The sum reuses
  // the first operand's limbs on the fast path.  Everything else is per
  // burst or per batch: one completion context per read burst replaced
  // a heap std::function per frame.
  constexpr int kWidth = 256;
  util::Rng rng(0xa110c);
  std::vector<std::pair<BitVec, BitVec>> pool;
  for (int i = 0; i < 256; ++i) {
    pool.emplace_back(random_vec(rng, kWidth), random_vec(rng, kWidth));
  }
  const double per_request = server_allocs_per_request(pool, kWidth);
  EXPECT_LT(per_request, 3.0) << "server allocations per request";
  RecordProperty("server_allocs_per_request", std::to_string(per_request));
  std::printf("server allocations per request: %.3f\n", per_request);
}

TEST(NetAllocations, RecoveryLaneAllocationsPerRequestBelowThree) {
  // b = ~a propagates at every position, so every request flags and
  // takes the recovery lane.  The recovered sum is written over the `a`
  // limbs as on the fast path, so this lane pays no extra allocation.
  constexpr int kWidth = 256;
  util::Rng rng(0xc0111);
  std::vector<std::pair<BitVec, BitVec>> pool;
  for (int i = 0; i < 256; ++i) {
    BitVec a = random_vec(rng, kWidth);
    BitVec b = ~a;
    pool.emplace_back(std::move(a), std::move(b));
  }
  const double per_request = server_allocs_per_request(pool, kWidth);
  EXPECT_LT(per_request, 3.0) << "server allocations per request";
  RecordProperty("server_allocs_per_request", std::to_string(per_request));
  std::printf("recovery-lane server allocations per request: %.3f\n",
              per_request);
}

}  // namespace
}  // namespace vlsa
