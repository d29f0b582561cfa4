#pragma once
// AdderService — arithmetic as a service: a concurrent request server
// over the row-wise ACA evaluator (core::aca_eval_limbs).
//
// The paper's processor sketch (Sec. 5) treats the VLSA as a shared
// functional unit: many in-flight additions, almost all answered in one
// cycle, the rare ER flag paying a recovery penalty.  This layer is the
// system-scale version of that argument.  Producers submit operand
// pairs into a bounded MPMC queue; dispatcher workers pop up to
// `max_batch` outstanding requests (by default the detected SIMD lane
// width, 64/256/512 — see sim/isa.hpp; a partial batch after
// `max_linger`) and evaluate each one over its 64-bit limbs: the exact
// sum, the ER flag and `speculative_wrong`, with no transpose.  The
// unflagged majority completes immediately with the exact sum —
// soundness (ER clear implies the ACA sum is exact, tested in
// tests/test_aca.cpp) makes that the one-cycle answer.  A batch's
// flagged requests detour, in one bulk hand-off, through a serial
// *recovery lane* that recomputes the exact sum and models
// `PipelineConfig::recovery_cycles` of extra service time per request,
// so adversarial traffic (long propagate chains) visibly congests the
// tail instead of averaging away.  Every submit path — submit(),
// submit_many(), try_submit_many() — runs one routing-and-push body;
// submit() is a one-request call of it.
//
// Two clocks. (1) Wall time: nanosecond latency histograms, for real
// throughput numbers (optional — `record_wall_time`). (2) A modeled
// cycle clock: each batch dispatch is one VLSA cycle, a fast-path
// request completes the cycle after dispatch, and the recovery lane is
// a serial resource at `recovery_cycles` per flagged request.  The
// modeled histogram is what makes the "fast almost always, slow
// rarely" claim quantitative (p50 vs p999) and — unlike wall time — is
// deterministic in pump mode (below).
//
// Backpressure: `OverflowPolicy::Reject` fails submissions when the
// queue is full (counted in `service.rejected`); `Block` throttles the
// producer.  Either way memory stays bounded under overload.
//
// Determinism: with `workers == 0` nothing runs concurrently — the
// caller drives dispatch with `pump()` (the destructor pumps any
// leftovers).  Same seed + same submission order then yields a
// bit-identical telemetry snapshot, the reproducibility anchor for the
// whole layer (tests/test_service.cpp).  With `workers >= 1` batching
// depends on real arrival timing, so only the counters (totals, flags)
// are schedule-independent; histogram shapes vary with load.
//
// Sharding (`ServiceConfig::shards`, docs/scaling.md): above one shard
// the service becomes N independent {queue, engine, recovery lane}
// units — the single global MPMC queue stops being the serialization
// point.  Submissions route by operand hash or round-robin
// (`RoutePolicy`); idle workers can steal a neighbor shard's backlog
// (`StealPolicy::Neighbor`).  Each shard owns a modeled cycle clock
// (one VLSA functional unit per shard), its own serial recovery lane,
// and labeled per-shard metrics ("service.submitted{shard=3}").  shards == 1 is byte-for-byte the
// pre-sharding service — no routing, no labels, same snapshots.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "service/bounded_queue.hpp"
#include "sim/vlsa_pipeline.hpp"
#include "telemetry/registry.hpp"
#include "util/bitvec.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace vlsa::trace {
class DriftMonitor;
class PostmortemRing;
}  // namespace vlsa::trace

namespace vlsa::service {

using util::BitVec;

/// How a full submission queue treats new requests.
enum class OverflowPolicy {
  Block,   ///< producer waits for space (closed-loop throttling)
  Reject,  ///< submission fails fast, counted in service.rejected
};

/// How submissions pick a shard (meaningful only when shards > 1).
enum class RoutePolicy {
  /// Operand hash — deterministic, so a Block-policy retry of the same
  /// frame lands on the same (still-full) shard and backpressure stays
  /// per-shard instead of leaking onto a neighbor.
  Hash,
  /// Strict rotation — perfectly even under any operand distribution,
  /// at the cost of one shared atomic counter on the submit path.
  RoundRobin,
};

/// What an idle shard worker does about a busy neighbor's backlog.
enum class StealPolicy {
  None,      ///< shards are fully independent (strict per-shard FIFO)
  Neighbor,  ///< idle workers drain shard (i+1) % shards opportunistically
};

struct ServiceConfig {
  /// width / window / recovery_cycles of the modeled VLSA datapath.
  sim::PipelineConfig pipeline;
  /// Dispatcher threads, TOTAL across shards.  0 = pump mode: no
  /// threads, the caller calls pump() — fully deterministic (see file
  /// comment).  In sharded mode each shard gets max(1, workers/shards)
  /// dispatchers, so the effective total (reflected back into this
  /// field by the constructor) is never below `shards`.
  int workers = 1;
  /// Shard count: independent {queue, engine, recovery lane} units.
  /// 1 (the default) is byte-for-byte the pre-sharding service: one
  /// queue, no routing, no per-shard metric labels.  Each shard models
  /// one VLSA functional unit with its own cycle clock, so the modeled
  /// throughput scales with shards even where the host's cores do not
  /// (docs/scaling.md).
  int shards = 1;
  /// Shard selection for submissions (shards > 1 only).
  RoutePolicy route = RoutePolicy::Hash;
  /// Work stealing between shard workers (shards > 1 only).  Stealing
  /// trades strict per-shard FIFO for tail latency under skew: a stolen
  /// request executes (and is clocked) on the thief's shard, counted in
  /// that shard's `service.stolen{shard=i}`.
  StealPolicy steal = StealPolicy::None;
  /// Requests popped per dispatch (one modeled cycle), in
  /// [1, sim::active_lanes()].  0 (the default) batches to the detected
  /// SIMD lane width (64 scalar, 256 AVX2, 512 AVX-512 — or whatever
  /// VLSA_FORCE_ISA pins).  1 gives the no-batching baseline the
  /// throughput bench compares against.
  int max_batch = 0;
  /// Submission queue bound, PER SHARD — the backpressure knob.
  std::size_t queue_capacity = 1024;
  /// How long a dispatcher holds a partial batch open for latecomers.
  std::chrono::microseconds max_linger{50};
  OverflowPolicy overflow = OverflowPolicy::Block;
  /// Record wall-clock latency histograms (service.latency_ns).  Off
  /// for bit-identical fixed-seed telemetry.  Also gates queue-wait
  /// trace spans (they need the arrival timestamp).
  bool record_wall_time = true;
  /// Observability hooks (trace/postmortem.hpp, trace/drift.hpp); both
  /// non-owning and optional — when set they must outlive the service.
  /// The postmortem ring captures every ER=1 request's operands; the
  /// drift monitor ingests one (count, flagged) sample per batch.
  /// Request-path *trace events* need no hook: the service emits them
  /// whenever a trace::TraceSession is active (one relaxed atomic load
  /// per batch when idle).
  trace::PostmortemRing* postmortem = nullptr;
  trace::DriftMonitor* drift = nullptr;
};

/// What the requester gets back.
struct Completion {
  BitVec sum;              ///< always the exact sum
  bool flagged = false;    ///< ER fired; took the recovery lane
  bool speculative_wrong = false;  ///< the one-cycle answer was wrong
  long long latency_cycles = 0;    ///< modeled: queue wait + service
  /// Shard whose engine produced the sum — equals the routed shard
  /// unless a neighbor stole the request (work-steal provenance).
  int shard = 0;
};

class AdderService {
 public:
  /// `registry`, when given, must outlive the service (metrics from
  /// several services can share one registry); otherwise the service
  /// owns one, reachable via registry().
  explicit AdderService(const ServiceConfig& config,
                        telemetry::Registry* registry = nullptr);

  /// Drains: every accepted request is completed before destruction
  /// returns (workers joined, recovery lane flushed, pump-mode leftovers
  /// pumped).  No promise is ever dropped.
  ~AdderService();

  AdderService(const AdderService&) = delete;
  AdderService& operator=(const AdderService&) = delete;

  /// Submit one addition (operands must match the configured width).
  /// Returns std::nullopt when the queue is full under Reject.  Throws
  /// std::runtime_error after close(), and std::invalid_argument on a
  /// width mismatch.  In pump mode a full queue returns std::nullopt
  /// under either policy (blocking would deadlock — there is no
  /// consumer until the caller pumps).
  std::optional<std::future<Completion>> submit(BitVec a, BitVec b);

  /// Submit a batch of additions in one queue transaction — the
  /// producer-side mirror of the dispatcher's batching, and the way to
  /// saturate the service (per-submission locking caps a producer long
  /// before the evaluator does).  Element i of the result corresponds
  /// to ops[i]; std::nullopt marks a rejected request (Reject policy or
  /// pump mode with a full queue — under Block everything is
  /// accepted).  Same throw conditions as submit().
  std::vector<std::optional<std::future<Completion>>> submit_many(
      std::vector<std::pair<BitVec, BitVec>> ops);

  /// Completion delivery for callers that cannot block on a future —
  /// the network front-end's event loops (src/net/server.cpp).  One sink
  /// serves a whole try_submit_many call, and its completions arrive in
  /// runs: `complete` runs once per run of consecutive completed
  /// requests of this sink within one dispatched batch (fast path) or
  /// one popped recovery batch (recovery lane), on whichever service
  /// thread completed them.  completions[i] answers the request at index
  /// indices[i] of the submitted span; indices ascend within a run, and
  /// the sink may move the sums out.  It must be cheap and must not call
  /// back into submit paths.  The sink must stay alive until its last
  /// accepted request has completed.
  class CompletionSink {
   public:
    virtual void complete(std::span<const std::uint32_t> indices,
                          std::span<Completion> completions) = 0;

   protected:
    ~CompletionSink() = default;
  };

  struct BulkResult {
    std::size_t accepted = 0;
    /// A refusal came from a closed queue (the service is shutting
    /// down), not from a full one.
    bool closed = false;
  };

  /// Non-blocking bulk submit with sink completion: pushes with
  /// try-semantics REGARDLESS of the overflow policy (an event loop can
  /// never afford to block), one queue transaction per shard bucket.
  /// Every refused request's index is appended to `refused`, ascending,
  /// and its operands are handed back in place in `ops` — the caller
  /// maps refusals onto its own backpressure currency (the net server
  /// parks the frames and stops reading the socket under Block, sends
  /// REJECTED frames under Reject).  Refusals are counted in
  /// service.rejected only under Reject; under Block they are a stall,
  /// not a rejection.  Throws std::invalid_argument on a width
  /// mismatch or more than 2^32 ops (before anything is pushed); after
  /// close() everything is refused with `closed` set.
  BulkResult try_submit_many(std::span<std::pair<BitVec, BitVec>> ops,
                             CompletionSink& sink,
                             std::vector<std::size_t>& refused);

  /// Pump mode only: dispatch at most one batch (plus its recovery
  /// work) on the calling thread.  Returns requests completed; 0 when
  /// the queue is empty.
  std::size_t pump();

  /// Block until every accepted request has completed.
  void flush();

  /// Stop accepting; drain everything in flight.  Idempotent; the
  /// destructor calls it.
  void close();

  const ServiceConfig& config() const { return config_; }
  telemetry::Registry& registry() { return *registry_; }
  const telemetry::Registry& registry() const { return *registry_; }

  /// Modeled cycle clock: the furthest-advanced shard clock (each shard
  /// ticks once per batch it dispatches).  With shards == 1 this is the
  /// pre-sharding global clock.  The max is the modeled *makespan* —
  /// N independent functional units running in parallel finish when the
  /// busiest one does — which is what the scaling bench divides request
  /// counts by (bench/service_throughput.cpp, docs/scaling.md).
  long long now_cycles() const;

  /// Effective shard count (>= 1).
  int shards() const { return config_.shards; }

  /// One shard's modeled cycle clock (index in [0, shards())).
  long long shard_cycles(int shard) const;

  /// Depth of one shard's submission queue (tests, /statusz).
  std::size_t shard_queue_depth(int shard) const;

  /// The shard a request with these operands routes to — exposed so
  /// tests and capacity planners can predict placement under Hash
  /// routing (RoundRobin placement depends on global submission order).
  std::size_t route_of(const BitVec& a, const BitVec& b) const;

 private:
  struct Request {
    BitVec a, b;
    /// Engaged only on the future paths (submit/submit_many) — a
    /// default-constructed std::promise allocates its shared state, so
    /// the sink path (one request per network frame) must not pay for a
    /// promise it never reads.
    std::optional<std::promise<Completion>> promise;
    /// When set, completion is delivered to `sink` as index
    /// `sink_index` of a run instead of the promise (try_submit_many).
    CompletionSink* sink = nullptr;
    std::uint32_t sink_index = 0;
    long long arrival_cycle = 0;
    std::chrono::steady_clock::time_point arrival_time;
  };
  struct RecoveryItem {
    Request request;
    bool speculative_wrong = false;
    long long latency_cycles = 0;  ///< modeled, fixed at dispatch time
    std::uint64_t batch = 0;       ///< dispatch round that flagged it
    int lane = -1;                 ///< lane within that batch
    int shard = 0;                 ///< shard whose recovery lane runs it
  };

  /// One shard: a complete, independent copy of the pre-sharding
  /// service's data plane — submission queue, dispatcher threads,
  /// recovery lane, modeled clocks — plus its labeled metrics.  Shards
  /// share only the engine code, the registry, and the global
  /// inflight/closed bookkeeping.
  struct Shard {
    Shard(std::size_t queue_capacity, std::size_t recovery_capacity)
        : queue(queue_capacity), recovery_queue(recovery_capacity) {}

    BoundedQueue<Request> queue;
    BoundedQueue<RecoveryItem> recovery_queue;
    std::vector<std::thread> workers;
    std::thread recovery_worker;

    /// This shard's modeled cycle clock (1 tick per dispatched batch).
    /// Relaxed everywhere, same audit as the old global vclock below.
    std::atomic<long long> vclock{0};
    util::Mutex recovery_clock_mutex;
    /// Modeled cycle this shard's serial recovery lane frees up.
    long long recovery_free_at GUARDED_BY(recovery_clock_mutex) = 0;

    // Labeled per-shard metrics ("service.submitted{shard=3}" etc.),
    // registered only when shards > 1 — single-shard snapshots stay
    // byte-identical to the pre-sharding service.  Null otherwise.
    telemetry::Counter* submitted = nullptr;
    telemetry::Counter* completed = nullptr;
    telemetry::Counter* rejected = nullptr;
    telemetry::Counter* recovered = nullptr;
    telemetry::Counter* batches = nullptr;
    telemetry::Counter* stolen = nullptr;
    telemetry::Gauge* queue_depth = nullptr;
  };

  /// Sink completions on their way out, gathered into one run per
  /// sink: consecutive sink completions of one sink leave in a single
  /// CompletionSink::complete call.  Reused across batches, so delivery
  /// allocates nothing in the steady state.
  struct RunBuffers {
    CompletionSink* sink = nullptr;  ///< owner of the open run, if any
    std::vector<std::uint32_t> indices;
    std::vector<Completion> completions;
  };

  /// One dispatcher's buffers, reused across batches so a steady-state
  /// dispatch allocates nothing: the popped batch, the evaluator's limb
  /// scratch, the batch's flagged requests on their way to the recovery
  /// lane, and the fast path's delivery runs.
  struct DispatchBuffers {
    std::vector<Request> batch;
    std::vector<std::uint64_t> limbs;
    std::vector<RecoveryItem> flagged;
    RunBuffers runs;
  };

  void worker_loop(std::size_t shard_index);
  void recovery_loop(Shard& shard);
  /// Evaluate `buffers.batch` on `shard` and clear it.  Flagged requests
  /// go to the shard's recovery lane in one bulk push (worker mode) or
  /// are recovered inline in lane order (pump mode).  `stolen` marks a
  /// batch the executing worker took from a neighbor's queue.
  std::size_t dispatch(DispatchBuffers& buffers, Shard& shard,
                       std::size_t shard_index, bool stolen);
  /// The recovery lane's body, in worker and pump mode alike: recompute
  /// each flagged request's sum exactly (in place over its `a` limbs),
  /// deliver the batch in runs, then account for it once.  Every item
  /// belongs to `shard`.
  void recover_batch(std::span<RecoveryItem> items, Shard& shard,
                     RunBuffers& runs);
  /// The request-building step every submit path shares: checks every
  /// operand width (std::invalid_argument, before anything is moved),
  /// then moves `ops` into `requests`, stamped with one arrival time.
  void fill_requests(std::span<std::pair<BitVec, BitVec>> ops,
                     std::span<Request> requests) const;
  /// The future paths' body (submit and submit_many): build, attach a
  /// promise per request, route and push; futures[i] stays empty for a
  /// refused request.
  void submit_futures(
      std::span<std::pair<BitVec, BitVec>> ops, std::span<Request> requests,
      std::span<std::optional<std::future<Completion>>> futures);
  /// The one submission body.  Routes `requests` (submission order,
  /// arrival cycles unset) to shards — Hash per request, RoundRobin one
  /// ticket per call — stamps each shard's arrival cycle once, and
  /// pushes every shard's share in one queue transaction:
  /// push_many_block when `block`, try_push_many otherwise.  Refused
  /// requests stay in `requests` at their index (accepted ones are
  /// moved out) and their indices are appended to `refused`, ascending.
  /// Updates inflight_ and the submitted counters; rejections are
  /// counted only when `count_rejected` and the refusing queue was not
  /// closed.
  BulkResult push_routed(std::span<Request> requests, bool block,
                         bool count_rejected,
                         std::vector<std::size_t>& refused);
  /// Hand the finished completion to the request's channel: a promise
  /// is fulfilled at once; a sink completion joins the open run, which
  /// is delivered first when it belongs to another sink.
  static void deliver(RunBuffers& runs, Request& request,
                      Completion&& completion);
  /// Deliver the open run, if any, and leave `runs` empty.
  static void flush_run(RunBuffers& runs);

  ServiceConfig config_;
  std::unique_ptr<telemetry::Registry> owned_registry_;
  telemetry::Registry* registry_;

  /// shards() entries; unique_ptr because a Shard owns non-movable
  /// members (mutex, atomics) and the vector is sized once.
  std::vector<std::unique_ptr<Shard>> shards_;

  // Memory-ordering audit (every atomic below, and why its ordering is
  // what it is):
  //
  //  * Shard::vclock — relaxed everywhere.  A pure tick counter: values
  //    are compared arithmetically to compute modeled latencies, and no
  //    other data is published through it.  fetch_add is already atomic
  //    read-modify-write, so ticks are never lost.
  //  * rr_next_ — relaxed fetch_add; a rotation ticket, publishes
  //    nothing.
  //  * inflight_ — fetch_add/fetch_sub acq_rel, loads acquire.  The
  //    release half of each decrement orders the promise fulfillment
  //    (set_value) before the count drop, so a flush() that observes 0
  //    with an acquire load happens-after every completion it waited
  //    for.  The increment side could be relaxed, but it is one
  //    fetch_add per submit call and the cost is unmeasurable.
  //  * closed_ — store release in close(), load acquire in the submit
  //    paths: a submitter that sees closed_ == true also sees the
  //    queue close() calls that preceded the store (it will observe
  //    queue.closed() and throw rather than silently drop).
  std::atomic<std::uint64_t> rr_next_{0};
  /// Pump mode is single-threaded by definition, so plain rotation
  /// state and one shared set of dispatch buffers are fine here.
  std::size_t pump_next_ = 0;
  DispatchBuffers pump_buffers_;

  std::atomic<long long> inflight_{0};
  std::atomic<bool> closed_{false};
  util::Mutex close_mutex_;
  bool close_finished_ GUARDED_BY(close_mutex_) = false;

  // Hot-path metrics, resolved once at construction.
  telemetry::Counter& submitted_;
  telemetry::Counter& rejected_;
  telemetry::Counter& completed_;
  telemetry::Counter& fast_path_;
  telemetry::Counter& recovered_;
  telemetry::Counter& wrong_;
  telemetry::Counter& batches_;
  telemetry::Gauge& queue_depth_;
  telemetry::Histogram& latency_cycles_;
  telemetry::Histogram& batch_occupancy_;
  telemetry::Histogram& latency_ns_;
};

}  // namespace vlsa::service
