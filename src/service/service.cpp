#include "service/service.hpp"

#include <algorithm>
#include <bitset>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/aca.hpp"
#include "sim/batch_engine.hpp"
#include "trace/drift.hpp"
#include "trace/postmortem.hpp"
#include "trace/trace.hpp"

namespace vlsa::service {

namespace {

ServiceConfig validated(ServiceConfig config) {
  if (config.pipeline.width < 1) {
    throw std::invalid_argument("AdderService: width < 1");
  }
  if (config.pipeline.window < 1) {
    throw std::invalid_argument("AdderService: window < 1");
  }
  if (config.pipeline.recovery_cycles < 0) {
    throw std::invalid_argument("AdderService: negative recovery_cycles");
  }
  if (config.workers < 0) {
    throw std::invalid_argument("AdderService: negative workers");
  }
  if (config.shards < 1) {
    throw std::invalid_argument("AdderService: shards < 1");
  }
  if (config.max_batch < 0) {
    throw std::invalid_argument("AdderService: negative max_batch");
  }
  // Every shard needs at least one dispatcher or its queue never
  // drains; round the total up to a multiple of shards and reflect the
  // effective count back (workers=4, shards=4 -> one per shard, the
  // per-core intent).  Pump mode (workers == 0) is exempt: the caller's
  // pump() rotates over all shards itself.
  if (config.workers > 0 && config.shards > 1) {
    const int per_shard = std::max(1, config.workers / config.shards);
    config.workers = per_shard * config.shards;
  }
  // 0 = auto: pack to the SIMD lane width this process dispatches on.
  const int lanes = sim::active_lanes();
  config.max_batch =
      config.max_batch == 0 ? lanes : std::clamp(config.max_batch, 1, lanes);
  return config;
}

/// Fibonacci + murmur3-final mix over the operand low limbs: cheap,
/// deterministic, and uniform enough that hash routing spreads any
/// non-adversarial operand distribution across shards (the
/// hash-distribution test in tests/test_service.cpp checks no shard
/// starves under uniform operands).
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// How long a steal-enabled worker parks on its own empty queue before
/// checking the neighbor's backlog.  Short enough that a skewed load is
/// picked up promptly; long enough that balanced shards don't burn
/// cycles polling each other.
constexpr std::chrono::microseconds kStealPoll{200};

}  // namespace

AdderService::AdderService(const ServiceConfig& config,
                           telemetry::Registry* registry)
    : config_(validated(config)),
      owned_registry_(registry == nullptr
                          ? std::make_unique<telemetry::Registry>()
                          : nullptr),
      registry_(registry == nullptr ? owned_registry_.get() : registry),
      submitted_(registry_->counter("service.submitted")),
      rejected_(registry_->counter("service.rejected")),
      completed_(registry_->counter("service.completed")),
      fast_path_(registry_->counter("service.fast_path")),
      recovered_(registry_->counter("service.recovered")),
      wrong_(registry_->counter("service.speculative_wrong")),
      batches_(registry_->counter("service.batches")),
      queue_depth_(registry_->gauge("service.queue_depth")),
      latency_cycles_(registry_->histogram("service.latency_cycles")),
      batch_occupancy_(registry_->histogram("service.batch_occupancy")),
      latency_ns_(registry_->histogram("service.latency_ns")) {
  const auto n_shards = static_cast<std::size_t>(config_.shards);
  shards_.reserve(n_shards);
  for (std::size_t i = 0; i < n_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        config_.queue_capacity,
        config_.queue_capacity + sim::kMaxBatchLanes));
  }
  // Per-shard labeled metrics only above one shard: single-shard
  // snapshots must stay byte-identical to the pre-sharding service
  // (tests/test_service.cpp fixed-seed determinism).  The label block
  // is embedded in the registry name; the Prometheus writer renders it
  // as a real label set (telemetry/prometheus.cpp).
  if (n_shards > 1) {
    for (std::size_t i = 0; i < n_shards; ++i) {
      Shard& shard = *shards_[i];
      const std::string suffix = "{shard=" + std::to_string(i) + "}";
      shard.submitted = &registry_->counter("service.submitted" + suffix);
      shard.completed = &registry_->counter("service.completed" + suffix);
      shard.rejected = &registry_->counter("service.rejected" + suffix);
      shard.recovered = &registry_->counter("service.recovered" + suffix);
      shard.batches = &registry_->counter("service.batches" + suffix);
      shard.stolen = &registry_->counter("service.stolen" + suffix);
      shard.queue_depth = &registry_->gauge("service.queue_depth" + suffix);
    }
  }
  if (config_.workers > 0) {
    const int per_shard = config_.workers / config_.shards;
    for (std::size_t i = 0; i < n_shards; ++i) {
      Shard& shard = *shards_[i];
      shard.workers.reserve(static_cast<std::size_t>(per_shard));
      for (int j = 0; j < per_shard; ++j) {
        shard.workers.emplace_back([this, i] { worker_loop(i); });
      }
      shard.recovery_worker =
          std::thread([this, &shard] { recovery_loop(shard); });
    }
  }
}

AdderService::~AdderService() { close(); }

long long AdderService::now_cycles() const {
  long long makespan = 0;
  for (const auto& shard : shards_) {
    makespan =
        std::max(makespan, shard->vclock.load(std::memory_order_relaxed));
  }
  return makespan;
}

long long AdderService::shard_cycles(int shard) const {
  return shards_.at(static_cast<std::size_t>(shard))
      ->vclock.load(std::memory_order_relaxed);
}

std::size_t AdderService::shard_queue_depth(int shard) const {
  return shards_.at(static_cast<std::size_t>(shard))->queue.size();
}

std::size_t AdderService::route_of(const BitVec& a, const BitVec& b) const {
  const std::size_t n_shards = shards_.size();
  if (n_shards == 1) return 0;
  const std::uint64_t h =
      mix64(a.limbs()[0] * 0x9e3779b97f4a7c15ULL + (b.limbs()[0] ^
            0x6a09e667f3bcc909ULL));
  return static_cast<std::size_t>(h % n_shards);
}

std::optional<std::future<Completion>> AdderService::submit(BitVec a,
                                                            BitVec b) {
  std::pair<BitVec, BitVec> op{std::move(a), std::move(b)};
  Request request;
  std::optional<std::future<Completion>> future;
  submit_futures({&op, 1}, {&request, 1}, {&future, 1});
  return future;
}

std::vector<std::optional<std::future<Completion>>>
AdderService::submit_many(std::vector<std::pair<BitVec, BitVec>> ops) {
  std::vector<Request> requests(ops.size());
  std::vector<std::optional<std::future<Completion>>> futures(ops.size());
  submit_futures(ops, requests, futures);
  return futures;
}

void AdderService::submit_futures(
    std::span<std::pair<BitVec, BitVec>> ops, std::span<Request> requests,
    std::span<std::optional<std::future<Completion>>> futures) {
  if (closed_.load(std::memory_order_acquire)) {
    throw std::runtime_error("AdderService: submit after close");
  }
  fill_requests(ops, requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    futures[i] = requests[i].promise.emplace().get_future();
  }
  // Blocking on a full queue in pump mode would deadlock (nothing
  // drains until the caller pumps), so pump mode always rejects.
  const bool block = config_.overflow == OverflowPolicy::Block &&
                     config_.workers > 0;
  std::vector<std::size_t> refused;
  const BulkResult result =
      push_routed(requests, block, /*count_rejected=*/true, refused);
  if (result.closed) {
    throw std::runtime_error("AdderService: submit after close");
  }
  for (const std::size_t i : refused) futures[i].reset();
}

void AdderService::fill_requests(std::span<std::pair<BitVec, BitVec>> ops,
                                 std::span<Request> requests) const {
  for (const auto& [a, b] : ops) {
    if (a.width() != config_.pipeline.width ||
        b.width() != config_.pipeline.width) {
      throw std::invalid_argument("AdderService: operand width mismatch");
    }
  }
  const auto now = config_.record_wall_time
                       ? std::chrono::steady_clock::now()
                       : std::chrono::steady_clock::time_point{};
  for (std::size_t i = 0; i < ops.size(); ++i) {
    requests[i].a = std::move(ops[i].first);
    requests[i].b = std::move(ops[i].second);
    requests[i].arrival_time = now;
  }
}

AdderService::BulkResult AdderService::try_submit_many(
    std::span<std::pair<BitVec, BitVec>> ops, CompletionSink& sink,
    std::vector<std::size_t>& refused) {
  if (ops.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("AdderService: bulk submit too large");
  }
  std::vector<Request> requests(ops.size());
  fill_requests(ops, requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].sink = &sink;
    requests[i].sink_index = static_cast<std::uint32_t>(i);
  }
  // Always try-semantics: this path exists for event loops, which must
  // never park on a condition variable.  Only the Reject policy counts
  // a refusal as a service rejection.  After close() every queue
  // refuses, so everything comes back with `closed` set.
  const std::size_t first_refused = refused.size();
  const BulkResult result = push_routed(
      requests, /*block=*/false,
      config_.overflow == OverflowPolicy::Reject, refused);
  // Hand the refused operands back so a Block-policy caller can park
  // the same frames for retry without a defensive copy.
  for (std::size_t k = first_refused; k < refused.size(); ++k) {
    Request& request = requests[refused[k]];
    ops[refused[k]] = {std::move(request.a), std::move(request.b)};
  }
  return result;
}

AdderService::BulkResult AdderService::push_routed(
    std::span<Request> requests, bool block, bool count_rejected,
    std::vector<std::size_t>& refused) {
  BulkResult result;
  // Counted in before the push: a request may complete (and count
  // itself out) before the push call returns.
  inflight_.fetch_add(static_cast<long long>(requests.size()),
                      std::memory_order_acq_rel);
  // One shard's share, one queue transaction.  Requests of one share
  // have one arrival cycle, which is what lets dispatch aggregate their
  // latency records into runs.  `origin` maps share positions back to
  // request indices (null when the share is `requests` itself).
  auto push_share = [&](std::size_t shard_index, std::span<Request> share,
                        const std::vector<std::size_t>* origin) {
    Shard& shard = *shards_[shard_index];
    const long long arrival = shard.vclock.load(std::memory_order_relaxed);
    for (auto& request : share) request.arrival_cycle = arrival;
    const std::size_t taken = block ? shard.queue.push_many_block(share)
                                    : shard.queue.try_push_many(share);
    result.accepted += taken;
    if (shard.submitted != nullptr) {
      shard.submitted->increment(static_cast<long long>(taken));
    }
    if (taken == share.size()) return;
    const bool closed = shard.queue.closed();
    result.closed = result.closed || closed;
    if (count_rejected && !closed && shard.rejected != nullptr) {
      shard.rejected->increment(static_cast<long long>(share.size() - taken));
    }
    for (std::size_t j = taken; j < share.size(); ++j) {
      if (origin == nullptr) {
        refused.push_back(j);
      } else {
        refused.push_back((*origin)[j]);
        requests[(*origin)[j]] = std::move(share[j]);
      }
    }
  };
  // Routing granularity: RoundRobin takes ONE ticket per call (rotating
  // whole chunks keeps the one-transaction batching win; a single
  // submit() is a one-request call, so singles rotate), Hash routes
  // request by request and pays one bulk push per shard it touches.
  // Hash routing also keeps net-server backpressure per shard: a retry
  // of the same parked frame lands on the same (still-full) shard.
  // `target` is the one shard a call lands on whole, when there is one.
  const std::size_t n_shards = shards_.size();
  std::optional<std::size_t> target;
  if (n_shards == 1) {
    target = 0;
  } else if (config_.route == RoutePolicy::RoundRobin) {
    target = static_cast<std::size_t>(
        rr_next_.fetch_add(1, std::memory_order_relaxed) % n_shards);
  } else if (requests.size() == 1) {
    target = route_of(requests[0].a, requests[0].b);
  }
  if (target) {
    push_share(*target, requests, nullptr);
  } else {
    std::vector<std::vector<Request>> shares(n_shards);
    std::vector<std::vector<std::size_t>> origin(n_shards);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const std::size_t s = route_of(requests[i].a, requests[i].b);
      origin[s].push_back(i);
      shares[s].push_back(std::move(requests[i]));
    }
    const std::size_t first_refused = refused.size();
    for (std::size_t s = 0; s < n_shards; ++s) {
      if (!shares[s].empty()) push_share(s, shares[s], &origin[s]);
    }
    std::sort(refused.begin() + static_cast<std::ptrdiff_t>(first_refused),
              refused.end());
  }
  const auto dropped =
      static_cast<long long>(requests.size() - result.accepted);
  if (dropped > 0) {
    inflight_.fetch_sub(dropped, std::memory_order_acq_rel);
    if (count_rejected && !result.closed) rejected_.increment(dropped);
  }
  submitted_.increment(static_cast<long long>(result.accepted));
  // One submit instant per call (not per request): the bulk paths'
  // unit of work is the chunk.  It names the shard when the call landed
  // on exactly one of several.
  if (result.accepted > 0 && trace::enabled() && trace::sample()) {
    trace::EventArgs args;
    args.k = config_.pipeline.window;
    if (n_shards > 1 && target) args.shard = static_cast<int>(*target);
    trace::emit_instant(trace::EventName::kSubmit, args);
  }
  return result;
}

void AdderService::worker_loop(std::size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  const auto max_batch = static_cast<std::size_t>(config_.max_batch);
  DispatchBuffers buffers;
  buffers.batch.reserve(max_batch);
  buffers.flagged.reserve(max_batch);
  buffers.runs.indices.reserve(max_batch);
  buffers.runs.completions.reserve(max_batch);
  std::vector<Request>& batch = buffers.batch;
  const bool steal =
      config_.steal == StealPolicy::Neighbor && shards_.size() > 1;
  // A steal-enabled worker parks on its own queue for at most
  // kStealPoll, then opportunistically drains the right-hand neighbor.
  // It exits only on pop_batch_for's atomic closed-and-empty signal —
  // checking closed() separately after a timeout is exactly the
  // lost-item drain race the mc two-queue suite pins down (see
  // BoundedQueue::PopResult).
  Shard& victim = *shards_[(shard_index + 1) % shards_.size()];
  // Own queue idle: alternate own-queue checks with neighbor steals so
  // a refilling home queue preempts further stealing.
  bool polling = false;
  for (;;) {
    bool stolen = false;
    if (!steal) {
      if (shard.queue.pop_batch(batch, max_batch, config_.max_linger) == 0) {
        return;
      }
    } else if (!polling) {
      const auto result = shard.queue.pop_batch_for(
          batch, max_batch, config_.max_linger, kStealPoll);
      if (result.taken == 0 && result.done) return;
      polling = result.taken == 0;
    }
    if (polling) {
      if (shard.queue.try_pop_batch(batch, max_batch) > 0) {
        polling = false;
      } else if (victim.queue.try_pop_batch(batch, max_batch) > 0) {
        // Stolen work runs on OUR engine and recovery lane, clocked by
        // OUR vclock — provenance lands in service.stolen{shard=us},
        // Completion::shard, and the trace shard id.
        stolen = true;
      } else {
        polling = false;  // both queues empty — back to the timed wait
        continue;
      }
    }
    dispatch(buffers, shard, shard_index, stolen);
  }
}

void AdderService::recovery_loop(Shard& shard) {
  std::vector<RecoveryItem> items;
  RunBuffers runs;
  runs.indices.reserve(sim::kMaxBatchLanes);
  runs.completions.reserve(sim::kMaxBatchLanes);
  while (shard.recovery_queue.pop_batch(items, sim::kMaxBatchLanes,
                                        std::chrono::microseconds{0}) > 0) {
    recover_batch(items, shard, runs);
    items.clear();
  }
}

std::size_t AdderService::dispatch(DispatchBuffers& buffers, Shard& shard,
                                   std::size_t shard_index, bool stolen) {
  std::vector<Request>& batch = buffers.batch;
  std::vector<RecoveryItem>& flagged_items = buffers.flagged;
  if (!stolen) {
    // Depth is sampled per batch, not per submission: the gauge is a
    // load indicator and must stay off the producers' hot path.
    const auto depth = static_cast<long long>(shard.queue.size());
    queue_depth_.set(depth);
    if (shard.queue_depth != nullptr) shard.queue_depth->set(depth);
  }
  const int window = config_.pipeline.window;
  // One modeled cycle per dispatched batch on THIS shard's clock —
  // each shard models an independent VLSA functional unit, so N shards
  // advance N clocks in parallel and the makespan (now_cycles(), the
  // max) is what the scaling bench divides by.  `round` is this batch's
  // cycle; a request submitted and dispatched in the same round
  // completes with the minimum latency of 1 cycle.
  const long long round = shard.vclock.fetch_add(1, std::memory_order_relaxed);
  const int trace_shard =
      config_.shards > 1 ? static_cast<int>(shard_index) : -1;

  // Tracing gates, resolved once per batch: `tracing` is the single
  // relaxed load that keeps the idle cost at one branch; `sampled`
  // gates the detail events for this whole batch; recovery-path events
  // additionally honor the session's always-on-recovery knob.
  const bool tracing = trace::enabled();
  const bool sampled = tracing && trace::sample();
  const bool trace_recovery = sampled || (tracing && trace::sample_recovery());
  const auto batch_id = static_cast<std::uint64_t>(round);

  // Row-wise evaluation, request by request over the operand limbs.  An
  // unflagged request's exact sum overwrites its `a` limbs (the fast
  // path needs the operands no longer); a flagged one keeps both
  // operands for the recovery lane and the postmortem.  Flags are
  // collected first so the drift monitor sees the batch before any of
  // its requests can complete.
  const std::size_t limbs = batch.front().a.limbs().size();
  buffers.limbs.resize(2 * limbs);
  const std::span<std::uint64_t> sum(buffers.limbs.data(), limbs);
  const std::span<std::uint64_t> runs(buffers.limbs.data() + limbs, limbs);
  const std::uint64_t t_eval = sampled ? trace::now_ns() : 0;
  std::bitset<sim::kMaxBatchLanes> flagged, wrong;
  for (std::size_t lane = 0; lane < batch.size(); ++lane) {
    std::vector<std::uint64_t>& a = batch[lane].a.limbs();
    const core::AcaEval eval = core::aca_eval_limbs(
        a, batch[lane].b.limbs(), config_.pipeline.width, window, sum, runs);
    if (eval.flagged) {
      flagged.set(lane);
      wrong[lane] = eval.speculative_wrong;
    } else {
      std::copy(sum.begin(), sum.end(), a.begin());
    }
  }
  if (sampled) {
    trace::EventArgs args;
    args.batch = batch_id;
    args.k = window;
    args.lane = static_cast<int>(batch.size());  // occupancy, not a lane
    args.shard = trace_shard;
    trace::emit_complete(trace::EventName::kEngineEval, t_eval, args);
  }

  if (config_.drift != nullptr) {
    config_.drift->record_batch(batch.size(), flagged.count());
  }

  batches_.increment();
  if (shard.batches != nullptr) shard.batches->increment();
  if (stolen && shard.stolen != nullptr) {
    shard.stolen->increment(static_cast<long long>(batch.size()));
  }
  batch_occupancy_.record(batch.size());

  // Fast-path telemetry is aggregated over the batch: requests that
  // arrived in the same cycle (every submit_many chunk) share one
  // latency, so runs collapse into one record_n and the counters into
  // one increment each — otherwise 8 workers serialize on these cache
  // lines and telemetry becomes the throughput ceiling.  Delivery is
  // batched the same way: each sink gets one call per run of its
  // requests, not one per request.
  long long n_fast = 0;
  std::uint64_t run_value = 0, run_count = 0;
  for (std::size_t lane = 0; lane < batch.size(); ++lane) {
    Request& request = batch[lane];
    if (!flagged[lane]) {
      // Soundness: ER clear implies the speculative sum is exact.
      Completion completion;
      completion.sum = std::move(request.a);
      completion.shard = static_cast<int>(shard_index);
      // Clamped at the 1-cycle floor: a STOLEN request was stamped
      // against its home shard's clock but completes on the thief's,
      // and the two clocks are unordered.
      completion.latency_cycles =
          std::max<long long>(1, round + 1 - request.arrival_cycle);
      const auto cycles =
          static_cast<std::uint64_t>(completion.latency_cycles);
      if (run_count > 0 && cycles != run_value) {
        latency_cycles_.record_n(run_value, run_count);
        run_count = 0;
      }
      run_value = cycles;
      ++run_count;
      if (config_.record_wall_time) {
        const auto elapsed =
            std::chrono::steady_clock::now() - request.arrival_time;
        latency_ns_.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()));
      }
      if (sampled) {
        trace::EventArgs args;
        args.batch = batch_id;
        args.lane = static_cast<int>(lane);
        args.k = window;
        args.er = 0;
        args.shard = trace_shard;
        // Queue-wait needs the arrival timestamp, which only exists
        // when wall-clock recording is on.
        if (config_.record_wall_time) {
          trace::emit_complete(trace::EventName::kQueueWait,
                               trace::to_session_ns(request.arrival_time),
                               args);
        }
        trace::emit_instant(trace::EventName::kComplete, args);
      }
      deliver(buffers.runs, request, std::move(completion));
      ++n_fast;
      continue;
    }
    if (trace_recovery) {
      trace::EventArgs args;
      args.batch = batch_id;
      args.lane = static_cast<int>(lane);
      args.k = window;
      args.er = 1;
      args.shard = trace_shard;
      if (sampled && config_.record_wall_time) {
        trace::emit_complete(trace::EventName::kQueueWait,
                             trace::to_session_ns(request.arrival_time),
                             args);
      }
      trace::emit_instant(trace::EventName::kErCheck, args);
    }
    RecoveryItem& item = flagged_items.emplace_back();
    item.request = std::move(request);
    item.speculative_wrong = wrong[lane];
    item.batch = batch_id;
    item.lane = static_cast<int>(lane);
    item.shard = static_cast<int>(shard_index);
  }
  if (run_count > 0) latency_cycles_.record_n(run_value, run_count);
  flush_run(buffers.runs);
  if (n_fast > 0) {
    fast_path_.increment(n_fast);
    completed_.increment(n_fast);
    if (shard.completed != nullptr) shard.completed->increment(n_fast);
    inflight_.fetch_sub(n_fast, std::memory_order_acq_rel);
  }
  if (!flagged_items.empty()) {
    {
      // The recovery lane is a serial resource PER SHARD: it picks each
      // request up no earlier than the cycle after detection and holds
      // it for recovery_cycles — queued flags congest, fattening the
      // tail of the shard they flagged on.
      util::LockGuard lock(shard.recovery_clock_mutex);
      for (auto& item : flagged_items) {
        shard.recovery_free_at =
            std::max(shard.recovery_free_at, round + 1) +
            config_.pipeline.recovery_cycles;
        item.latency_cycles = std::max<long long>(
            1, shard.recovery_free_at - item.request.arrival_cycle);
      }
    }
    if (config_.workers > 0) {
      // close() keeps the recovery queue open until every dispatcher
      // has joined, so this push always lands.
      shard.recovery_queue.push_many_block(flagged_items);
    } else {
      recover_batch(flagged_items, shard, buffers.runs);
    }
    flagged_items.clear();
  }
  const std::size_t dispatched = batch.size();
  batch.clear();
  return dispatched;
}

void AdderService::recover_batch(std::span<RecoveryItem> items, Shard& shard,
                                 RunBuffers& runs) {
  const bool trace_recovery = trace::enabled() && trace::sample_recovery();
  long long n_wrong = 0;
  for (RecoveryItem& item : items) {
    const std::uint64_t t_start = trace_recovery ? trace::now_ns() : 0;
    Request& request = item.request;
    // Everything that reads the operands runs before the sum
    // overwrites `a`.
    if (config_.postmortem != nullptr) {
      config_.postmortem->record(request.a, request.b,
                                 config_.pipeline.window,
                                 item.speculative_wrong, item.batch,
                                 item.lane, t_start);
    }
    trace::EventArgs args;
    if (trace_recovery) {
      args.batch = item.batch;
      args.lane = item.lane;
      args.k = config_.pipeline.window;
      args.er = 1;
      args.shard = config_.shards > 1 ? item.shard : -1;
      args.chain = core::longest_propagate_chain(request.a, request.b);
      args.a_lo = request.a.limbs()[0];
      args.b_lo = request.b.limbs()[0];
      args.has_operands = true;
    }
    // The recovery lane recomputes the sum exactly — the software twin
    // of the paper's recovery adder stage — over the `a` limbs.
    request.a += request.b;
    if (trace_recovery) {
      trace::emit_complete(trace::EventName::kRecovery, t_start, args);
      trace::emit_instant(trace::EventName::kComplete, args);
    }
    latency_cycles_.record(static_cast<std::uint64_t>(item.latency_cycles));
    if (config_.record_wall_time) {
      const auto elapsed =
          std::chrono::steady_clock::now() - request.arrival_time;
      latency_ns_.record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()));
    }
    if (item.speculative_wrong) ++n_wrong;
    Completion completion;
    completion.sum = std::move(request.a);
    completion.flagged = true;
    completion.speculative_wrong = item.speculative_wrong;
    completion.latency_cycles = item.latency_cycles;
    completion.shard = item.shard;
    deliver(runs, request, std::move(completion));
  }
  flush_run(runs);
  const auto n = static_cast<long long>(items.size());
  recovered_.increment(n);
  completed_.increment(n);
  if (shard.recovered != nullptr) shard.recovered->increment(n);
  if (shard.completed != nullptr) shard.completed->increment(n);
  if (n_wrong > 0) wrong_.increment(n_wrong);
  inflight_.fetch_sub(n, std::memory_order_acq_rel);
}

void AdderService::deliver(RunBuffers& runs, Request& request,
                           Completion&& completion) {
  if (request.sink == nullptr) {
    request.promise->set_value(std::move(completion));
    return;
  }
  if (request.sink != runs.sink) {
    flush_run(runs);
    runs.sink = request.sink;
  }
  runs.indices.push_back(request.sink_index);
  runs.completions.push_back(std::move(completion));
}

void AdderService::flush_run(RunBuffers& runs) {
  if (runs.sink == nullptr) return;
  runs.sink->complete(runs.indices, runs.completions);
  runs.sink = nullptr;
  runs.indices.clear();
  runs.completions.clear();
}

std::size_t AdderService::pump() {
  if (config_.workers != 0) {
    throw std::logic_error("AdderService::pump: only valid with workers=0");
  }
  const std::size_t n_shards = shards_.size();
  // Rotate so no shard starves when several hold work; pump mode is
  // single-threaded by contract, so plain member state suffices.
  for (std::size_t i = 0; i < n_shards; ++i) {
    const std::size_t idx = (pump_next_ + i) % n_shards;
    Shard& shard = *shards_[idx];
    if (shard.queue.try_pop_batch(
            pump_buffers_.batch,
            static_cast<std::size_t>(config_.max_batch)) == 0) {
      continue;
    }
    pump_next_ = (idx + 1) % n_shards;
    return dispatch(pump_buffers_, shard, idx, false);
  }
  return 0;
}

void AdderService::flush() {
  while (inflight_.load(std::memory_order_acquire) > 0) {
    if (config_.workers == 0) {
      if (pump() == 0) break;  // nothing queued; nothing can be in flight
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
}

void AdderService::close() {
  util::LockGuard lock(close_mutex_);
  if (close_finished_) return;
  closed_.store(true, std::memory_order_release);
  // Shutdown ordering across N shards (the lame-duck drain):
  //   1. close EVERY submission queue — no shard accepts new work;
  //   2. join EVERY dispatcher — each drains its own queue to the
  //      atomic closed-and-empty signal (a thief may also drain its
  //      neighbor's leftovers, which only speeds this up);
  //   3. only then close the recovery queues and join their workers —
  //      dispatch() ignores push_many_block's return, so a recovery
  //      queue must outlive every thread that might still push into it.
  // Closing recovery queues shard-by-shard interleaved with step 2
  // would reintroduce the drain race the mc suite pins.
  for (auto& shard : shards_) shard->queue.close();
  if (config_.workers == 0) {
    while (pump() > 0) {
    }
  } else {
    for (auto& shard : shards_) {
      for (auto& worker : shard->workers) worker.join();
    }
    for (auto& shard : shards_) shard->recovery_queue.close();
    for (auto& shard : shards_) {
      if (shard->recovery_worker.joinable()) shard->recovery_worker.join();
    }
  }
  close_finished_ = true;
}

}  // namespace vlsa::service
