// TCP workloads: a raw client on net/protocol.hpp's encoder and decoder
// drives a net::Server over loopback from ONE generator thread polling
// at most two non-blocking connections.
//
//   tcp_sat_1024    closed loop, fixed pipelining window per connection
//   tcp_poisson_64  open loop on a Poisson schedule: a light fixed rate
//                   for p50/p99, then a ladder of rising rates for the
//                   highest rate that meets the SLO
//
// Every response is checked against the pool's oracles.  Open-loop
// latency runs from when a request was DUE to be sent (not when the
// generator got round to it) to when its response was decoded, so a
// stall in the generator or the server charges every request it delays.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

#include "harness.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "sim/batch_engine.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace net = vlsa::net;

constexpr std::size_t kPoolSize = 4096;
constexpr std::size_t kRing = std::size_t{1} << 20;  // ids in flight, max

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("connect failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

struct Conn {
  explicit Conn(std::uint16_t port) : fd(connect_loopback(port)) {}
  ~Conn() { ::close(fd); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd;
  net::FrameDecoder decoder;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  long long outstanding = 0;
};

/// Service + server + client connections, as one unit so set-up can be
/// timed (and repeated) as a whole.  Destruction closes the clients
/// first, then drains the server, then the service.
struct Rig {
  Rig(const WorkloadSpec& spec, int connections) {
    service = std::make_unique<vlsa::service::AdderService>(
        serve_defaults(spec.width, spec.window));
    net::ServerConfig config;
    config.event_threads = 1;
    server = std::make_unique<net::Server>(config, *service);
    for (int i = 0; i < connections; ++i) {
      conns.push_back(std::make_unique<Conn>(server->port()));
    }
  }
  std::unique_ptr<vlsa::service::AdderService> service;
  std::unique_ptr<net::Server> server;
  std::vector<std::unique_ptr<Conn>> conns;
};

double setup_seconds(const WorkloadSpec& spec, int connections) {
  return median_setup_seconds(kSetupReps, [&] {
    return std::make_unique<Rig>(spec, connections);
  });
}

/// The generator: sends, polls, decodes and checks.  One thread.
class Generator {
 public:
  Generator(const Pool& pool, Rig& rig, Result& out)
      : pool_(pool), rig_(rig), spans_(out.spans), out_(out), due_(kRing, 0) {
    pfds_.resize(rig.conns.size());
  }

  /// Frame one request on connection `c`, due at `due_ns`.
  void enqueue(std::size_t c, std::uint64_t due_ns) {
    Conn& conn = *rig_.conns[c];
    const std::uint64_t id = next_id_++;
    if (due_[id & (kRing - 1)] != 0) {
      out_.fail("generator: more than 2^20 requests in flight");
    }
    due_[id & (kRing - 1)] = due_ns;
    const auto& [a, b] = pool_.ops[id % pool_.size()];
    net::encode_request(id, pool_.window, a, b, conn.out);
    ++conn.outstanding;
    ++in_flight_;
    ++out_.attempted;
  }

  /// Write whatever connection `c` has framed.
  void flush(std::size_t c) {
    Conn& conn = *rig_.conns[c];
    if (conn.out_off >= conn.out.size()) return;
    const std::uint64_t t0 = now_ns();
    const std::size_t bytes = conn.out.size() - conn.out_off;
    while (conn.out_off < conn.out.size()) {
      const ssize_t n = ::write(conn.fd, conn.out.data() + conn.out_off,
                                conn.out.size() - conn.out_off);
      if (n > 0) {
        conn.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      throw std::runtime_error("client write failed");
    }
    if (conn.out_off >= conn.out.size()) {
      conn.out.clear();
      conn.out_off = 0;
    }
    spans_.add("client.send", t0, now_ns(), bytes / frame_bytes());
  }

  /// Wait up to `timeout_ns` for readiness, then read and check every
  /// response that has arrived.
  void poll_once(std::uint64_t timeout_ns) {
    for (std::size_t c = 0; c < pfds_.size(); ++c) {
      const Conn& conn = *rig_.conns[c];
      pfds_[c].fd = conn.fd;
      pfds_[c].events = static_cast<short>(
          POLLIN | (conn.out_off < conn.out.size() ? POLLOUT : 0));
      pfds_[c].revents = 0;
    }
    timespec ts{static_cast<time_t>(timeout_ns / 1000000000ULL),
                static_cast<long>(timeout_ns % 1000000000ULL)};
    const std::uint64_t t0 = now_ns();
    const int ready = ::ppoll(pfds_.data(), pfds_.size(), &ts, nullptr);
    spans_.add("client.poll_wait", t0, now_ns(), 0);
    if (ready <= 0) return;
    for (std::size_t c = 0; c < pfds_.size(); ++c) {
      if (pfds_[c].revents & POLLOUT) flush(c);
      if (pfds_[c].revents & (POLLIN | POLLHUP | POLLERR)) read_conn(c);
    }
  }

  /// Stop sending; wait for every outstanding response (bounded).
  void drain(double timeout_s) {
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(timeout_s * 1e9);
    for (std::size_t c = 0; c < rig_.conns.size(); ++c) flush(c);
    while (in_flight_ > 0 && now_ns() < deadline) poll_once(1000000);
    if (in_flight_ > 0) {
      out_.fail("unanswered after drain: " + std::to_string(in_flight_),
                in_flight_);
    }
  }

  long long answered_ok() const { return ok_; }
  long long outstanding(std::size_t c) const {
    return rig_.conns[c]->outstanding;
  }
  std::size_t connections() const { return rig_.conns.size(); }

  /// Where latency samples (ns) of answered requests go; null = nowhere.
  LatencySlices* latency = nullptr;

 private:
  std::size_t frame_bytes() const {
    return net::kHeaderBytes + 2 * net::operand_bytes(pool_.width);
  }

  void read_conn(std::size_t c) {
    Conn& conn = *rig_.conns[c];
    for (;;) {
      const std::uint64_t t0 = now_ns();
      const ssize_t n = ::read(conn.fd, buf_.data(), buf_.size());
      if (n > 0) {
        conn.decoder.feed(buf_.data(), static_cast<std::size_t>(n));
        const long long got = decode(conn);
        spans_.add("client.recv", t0, now_ns(),
                   static_cast<std::uint64_t>(got));
        continue;
      }
      if (n == 0) throw std::runtime_error("server closed a connection");
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      throw std::runtime_error("client read failed");
    }
  }

  long long decode(Conn& conn) {
    long long got = 0;
    for (;;) {
      const auto r = conn.decoder.next(request_, response_);
      if (r == net::FrameDecoder::Result::NeedMore) return got;
      if (r == net::FrameDecoder::Result::Error ||
          conn.decoder.type() != net::FrameType::Response) {
        throw std::runtime_error("protocol error from server: " +
                                 conn.decoder.error());
      }
      const std::uint64_t now = now_ns();
      ++got;
      check(conn, now);
    }
  }

  void check(Conn& conn, std::uint64_t now) {
    const std::uint64_t id = response_.id;
    std::uint64_t& due = due_[id & (kRing - 1)];
    if (id >= next_id_ || due == 0) {
      out_.fail("response for an id never sent or answered twice");
      return;
    }
    const std::uint64_t sent_due = due;
    due = 0;
    --conn.outstanding;
    --in_flight_;
    const std::size_t i = id % pool_.size();
    if (response_.status != net::Status::Ok) {
      out_.fail("status " + std::to_string(static_cast<int>(response_.status)));
      return;
    }
    const bool flagged = (response_.flags & net::kFlagRecovered) != 0;
    const bool wrong = (response_.flags & net::kFlagWrong) != 0;
    if (response_.width != pool_.width || response_.window != pool_.window ||
        response_.sum != pool_.sum[i]) {
      out_.fail("wrong sum for request " + std::to_string(id));
      return;
    }
    if (flagged != (pool_.flag[i] != 0)) {
      out_.fail("ER flag differs from core::aca_flag");
      return;
    }
    if (wrong != (pool_.wrong[i] != 0)) {
      out_.fail("speculative_wrong differs from core::aca_add");
      return;
    }
    ++ok_;
    if (latency != nullptr) latency->add(static_cast<double>(now - sent_due));
  }

  const Pool& pool_;
  Rig& rig_;
  Spans& spans_;
  Result& out_;
  std::vector<std::uint64_t> due_;  ///< by id mod kRing; 0 = free slot
  std::vector<pollfd> pfds_;
  std::vector<std::uint8_t> buf_ = std::vector<std::uint8_t>(256 * 1024);
  net::RequestFrame request_;
  net::ResponseFrame response_;
  std::uint64_t next_id_ = 0;
  long long in_flight_ = 0;
  long long ok_ = 0;
};

/// Closed loop: keep `window` requests outstanding per connection until
/// `end_ns`.  The answered-OK rate of every kRateWindowNs window is
/// appended to `rates` (when given), and every `slice_windows` windows
/// close a latency slice.
void closed_loop(Generator& gen, long long window, std::uint64_t end_ns,
                 std::vector<double>* rates, int slice_windows) {
  std::uint64_t slice_start = now_ns();
  long long slice_ok = gen.answered_ok();
  int slices = 0;
  for (;;) {
    const std::uint64_t now = now_ns();
    if (now >= end_ns) break;
    for (std::size_t c = 0; c < gen.connections(); ++c) {
      while (gen.outstanding(c) < window) gen.enqueue(c, now);
      gen.flush(c);
    }
    gen.poll_once(1000000);
    const std::uint64_t t = now_ns();
    if (rates != nullptr && t - slice_start >= kRateWindowNs) {
      rates->push_back(static_cast<double>(gen.answered_ok() - slice_ok) *
                       1e9 / static_cast<double>(t - slice_start));
      slice_start = t;
      slice_ok = gen.answered_ok();
      if (++slices % slice_windows == 0 && gen.latency != nullptr) {
        gen.latency->cut();
      }
    }
  }
}

/// Open loop: Poisson arrivals at `rate` per second (aggregate, spread
/// round-robin over the connections) for `duration_s`, then a drain.
/// Lateness (actual send minus due time) goes to `late` when given.
/// With `cut_slices`, latency and lateness slices close every second.
struct OpenStats {
  long long offered = 0;
  long long ok = 0;
  double wall_s = 0;  ///< first due time to the last response
};
OpenStats open_loop(Generator& gen, vlsa::util::Rng& rng, double rate,
                    double duration_s, LatencySlices* late,
                    bool cut_slices) {
  OpenStats stats;
  const long long ok0 = gen.answered_ok();
  const std::uint64_t t0 = now_ns();
  const std::uint64_t end = t0 + static_cast<std::uint64_t>(duration_s * 1e9);
  double due = static_cast<double>(t0);
  std::size_t c = 0;
  auto next_gap = [&] { return -std::log1p(-rng.next_double()) * 1e9 / rate; };
  due += next_gap();
  std::uint64_t next_cut = t0 + 1000000000ULL;
  while (due < static_cast<double>(end)) {
    std::uint64_t now = now_ns();
    if (cut_slices && now >= next_cut) {
      if (gen.latency != nullptr) gen.latency->cut();
      if (late != nullptr) late->cut();
      next_cut += 1000000000ULL;
    }
    bool sent = false;
    while (due <= static_cast<double>(now) && due < static_cast<double>(end)) {
      const auto due_ns = static_cast<std::uint64_t>(due);
      gen.enqueue(c, due_ns);
      if (late != nullptr) late->add(static_cast<double>(now - due_ns));
      ++stats.offered;
      c = (c + 1) % gen.connections();
      due += next_gap();
      sent = true;
    }
    if (sent) {
      for (std::size_t k = 0; k < gen.connections(); ++k) gen.flush(k);
    }
    now = now_ns();
    const double wait = due - static_cast<double>(now);
    // Sleep in ppoll while the next send is more than 30 us off, waking
    // 20 us early (a timed wake overshoots by microseconds); spin with
    // zero-timeout polls through the rest.  Spinning all the time would
    // keep a fourth core busy and expose every thread to more preemption.
    gen.poll_once(wait > 30000.0 ? static_cast<std::uint64_t>(wait - 20000.0)
                                 : 0);
  }
  gen.drain(5.0);
  if (cut_slices) {
    if (gen.latency != nullptr) gen.latency->cut();
    if (late != nullptr) late->cut();
  }
  stats.ok = gen.answered_ok() - ok0;
  stats.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  return stats;
}

/// Record client/net/service/sim/core rows from a traced phase.  `e2e`
/// is the end-to-end ns per request the rows must add up to.
void tcp_stage_table(const Pool& pool, const TracedPhase& ph, double e2e,
                     bool latency_path, double late_mean_ns, double budget_s,
                     Result& out) {
  const double n = ph.requests();
  const double send = out.spans.total_ns("client.send") / n;
  const double recv = out.spans.total_ns("client.recv") / n;
  out.set("client.send_ns", send);
  out.set("client.recv_ns", recv);
  record_registry_layers(ph.reg, out);
  const auto read = ph.reg.histogram("net.read_ns");
  const auto decode = ph.reg.histogram("net.decode_ns");
  const auto write = ph.reg.histogram("net.write_ns");
  const auto server = ph.reg.histogram("net.server_ns");
  const auto svc_lat = ph.reg.histogram("service.latency_ns");
  const double frames = static_cast<double>(ph.reg.counter("net.frames_in"));
  const double frames_out =
      static_cast<double>(ph.reg.counter("net.frames_out"));
  // net.read_ns brackets the whole read burst, which includes decoding
  // and dispatch (net.decode_ns); split them so the rows do not overlap.
  auto per = [](std::uint64_t ns, double n) {
    return n > 0 ? static_cast<double>(ns) / n : 0.0;
  };
  const double net_read = per(read.sum - decode.sum, frames);
  const double net_decode = per(decode.sum, frames);
  const double net_write = per(write.sum, frames_out);

  const int occupancy = std::max(
      1, static_cast<int>(std::lround(out.get("service.occupancy"))));
  replay_layers(pool, occupancy, budget_s * 0.7, out);
  const double pump = replay_pump_ns(pool, occupancy, budget_s * 0.3);
  out.set("service.pump_ns", pump);
  const double pack = out.get("sim.pack_ns"), eval = out.get("sim.eval_ns"),
               unpack = out.get("sim.unpack_ns");
  const double recovery =
      out.get("service.recovered_frac") * out.get("core.exact_add_ns");

  out.e2e_ns = e2e;
  auto row = [&](const char* name, double v) {
    out.stages.emplace_back(name, v);
  };
  if (latency_path) {
    // One request at light load walks every stage in series.
    const double svc_mean = svc_lat.count ? svc_lat.mean() : 0;
    const double srv_mean = server.count ? server.mean() : 0;
    row("loadgen.late", late_mean_ns);
    row("client.send", send);
    row("net.read", net_read);
    row("net.decode+dispatch", net_decode);
    row("service.queue+linger", svc_mean - pack - eval - unpack - recovery);
    row("sim.pack", pack);
    row("sim.eval", eval);
    row("sim.unpack", unpack);
    row("core.recovery", recovery);
    row("net.complete+encode", srv_mean - svc_mean);
    row("net.write", net_write);
    row("client.recv", recv);
  } else {
    // Closed loop: busy time per request of every stage; the stages run
    // on different threads, so they overlap and unattributed_ns goes
    // negative by the overlap.
    row("client.send", send);
    row("client.recv", recv);
    row("net.read", net_read);
    row("net.decode+dispatch", net_decode);
    row("net.write", net_write);
    row("service.dispatch", pump - pack - eval - unpack - recovery);
    row("sim.pack", pack);
    row("sim.eval", eval);
    row("sim.unpack", unpack);
    row("core.recovery", recovery);
  }
}

}  // namespace

void run_tcp_sat(const Args& args, const WorkloadSpec& spec, Result& out) {
  constexpr int kConnections = 2;
  constexpr long long kWindow = 128;  // per connection
  const Pool pool = make_pool(spec, args.seed, kPoolSize);
  LatencySlices latency;
  const double setup_s = setup_seconds(spec, kConnections);
  {
    Rig rig(spec, kConnections);
    Generator gen(pool, rig, out);
    closed_loop(gen, kWindow, ns_after(1.0), nullptr, 1);  // warm
    if (!args.trace) {
      std::vector<double> rates;
      gen.latency = &latency;
      const std::uint64_t t0 = now_ns();
      const long long ok0 = gen.answered_ok();
      closed_loop(gen, kWindow, ns_after(args.seconds), &rates,
                  kP50SliceWindows);
      const auto answered = static_cast<double>(gen.answered_ok() - ok0);
      const auto wall = static_cast<double>(now_ns() - t0);
      gen.latency = nullptr;
      gen.drain(10.0);
      out.set("throughput_rps", closed_loop_rate(rates, answered, wall));
      out.set("p50_us", slice_stat("p50_us", latency.p50s(),
                                   kLatencySliceQuantile, 1e3));
    } else {
      // Untraced reference (it also gives latency.p99_us), then the same
      // loop traced.
      std::vector<double> ref_rates;
      gen.latency = &latency;
      const std::uint64_t r0 = now_ns();
      const long long ok_r = gen.answered_ok();
      closed_loop(gen, kWindow, ns_after(args.seconds * 0.3), &ref_rates,
                  kP99SliceWindows);
      const double ref_ns = static_cast<double>(now_ns() - r0) /
                            static_cast<double>(gen.answered_ok() - ok_r);
      gen.latency = nullptr;
      latency.cut();
      out.set("latency.p99_us",
              slice_stat("latency.p99_us", latency.p99s(), 0.5, 1e3));
      out.set("throughput.p90_over_mean",
              quantile(ref_rates, kRateQuantile) * ref_ns / 1e9);
      TracedPhase ph(out, &rig.service->registry(), true);
      const long long ok0 = gen.answered_ok();
      closed_loop(gen, kWindow, ns_after(args.seconds * 0.4), nullptr, 1);
      ph.end(gen.answered_ok() - ok0);
      gen.drain(10.0);
      const double e2e = ph.wall_ns() / ph.requests();
      out.set("trace.overhead_frac", e2e / ref_ns - 1.0);
      out.e2e_definition = "wall ns / answered request (closed loop)";
      tcp_stage_table(pool, ph, e2e, false, 0, args.seconds * 0.3, out);
    }
  }
  out.set("setup_s", setup_s);
}

namespace {

/// The SLO ladder: rising open-loop rates, each step judged on its own
/// samples.  Returns the highest rate at which p99 <= kSloP99Us, at least
/// kSloOkFrac of offered requests were answered OK, and the generator's
/// lateness p99 stayed under kSloLateP99Us (a failed or unanswered
/// request counts as over the limit); stops after two misses in a row.
constexpr double kSloP99Us = 1000;
constexpr double kSloOkFrac = 0.999;
constexpr double kSloLateP99Us = 100;
/// The light-rate run's gate: lateness p50 at most a tenth of its p50
/// latency (about 90 us on loopback), as the ladder allows a tenth of
/// its p99 limit.  On schedule the generator's median lateness is
/// about 0.5 us, also with 9% of the host's CPU time stolen.
constexpr double kLateP50Us = 10;
double slo_ladder(Generator& gen, vlsa::util::Rng& rng, LatencySlices& latency,
                  LatencySlices& late, double budget_s) {
  constexpr double kStart = 60000;  // req/s
  constexpr double kStep = 1.08;
  constexpr double kStepS = 0.4;
  LatencySlices* const saved = gen.latency;
  gen.latency = &latency;
  double slo = 0;
  int misses = 0;
  const std::uint64_t end = ns_after(budget_s);
  for (double rate = kStart; now_ns() < end && misses < 2; rate *= kStep) {
    latency.clear_current();
    late.clear_current();
    const OpenStats st = open_loop(gen, rng, rate, kStepS, &late, false);
    const double p99 = latency.current(0.99);
    const double late_p99 = late.current(0.99);
    const bool ok = p99 <= kSloP99Us * 1e3 &&
                    static_cast<double>(st.ok) >=
                        kSloOkFrac * static_cast<double>(st.offered) &&
                    late_p99 <= kSloLateP99Us * 1e3;
    std::printf(
        "# ladder %.0f req/s: p99 %.1f us, ok %lld/%lld, late p99 %.1f us"
        " -> %s\n",
        rate, p99 / 1e3, st.ok, st.offered, late_p99 / 1e3,
        ok ? "meets SLO" : "misses SLO");
    if (ok) {
      slo = rate;
      misses = 0;
    } else {
      ++misses;
    }
  }
  gen.latency = saved;
  return slo;
}

}  // namespace

void run_tcp_poisson(const Args& args, const WorkloadSpec& spec,
                     Result& out) {
  constexpr int kConnections = 2;
  constexpr double kLightRate = 50000;  // req/s, aggregate
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // ns-accurate ppoll wakeups
  const Pool pool = make_pool(spec, args.seed, kPoolSize);
  LatencySlices latency;
  LatencySlices late;
  vlsa::util::Rng rng(args.seed);
  const double setup_s = setup_seconds(spec, kConnections);
  {
    Rig rig(spec, kConnections);
    Generator gen(pool, rig, out);
    open_loop(gen, rng, kLightRate, 0.5, nullptr, false);  // warm
    gen.latency = &latency;
    if (!args.trace) {
      const OpenStats st =
          open_loop(gen, rng, kLightRate, args.seconds, &late, true);
      // The validity gate: latency is timed from the due time, so a
      // generator that falls behind its schedule charges its own delay to
      // the program.  The run reports a low quantile of the slices'
      // p50s, which the generator can only move by making most requests
      // late in most slices; so when the median slice's lateness p50 is
      // over kLateP50Us, the run measured the generator, not the
      // program, and it is marked failed (exit status 1).  Lateness p99
      // is printed for the tail, which this run does not report (the
      // ladder gates it per step).
      const double late_p50_us =
          slice_stat("loadgen.late_p50_us", late.p50s(), 0.5, 1e3);
      slice_stat("loadgen.late_p99_us", late.p99s(), 0.5, 1e3);
      if (late_p50_us > kLateP50Us) {
        out.fail("open loop off schedule: lateness p50 " +
                 std::to_string(late_p50_us) + " us > " +
                 std::to_string(kLateP50Us) + " us");
      }
      out.set("throughput_rps", static_cast<double>(st.ok) / st.wall_s);
      out.set("p50_us", slice_stat("p50_us", latency.p50s(),
                                   kLatencySliceQuantile, 1e3));
      slice_stat("p99_us", latency.p99s(), 0.5, 1e3);
    } else {
      open_loop(gen, rng, kLightRate, args.seconds * 0.2, nullptr, true);
      const double ref_mean = latency.mean();
      out.set("latency.p99_us",
              slice_stat("latency.p99_us", latency.p99s(), 0.5, 1e3));
      latency.reset();
      TracedPhase ph(out, &rig.service->registry(), true);
      const long long ok0 = gen.answered_ok();
      open_loop(gen, rng, kLightRate, args.seconds * 0.3, &late, false);
      ph.end(gen.answered_ok() - ok0);
      const double e2e = latency.mean();
      const double late_mean = late.mean();
      out.set("trace.overhead_frac", e2e / ref_mean - 1.0);
      // Open-loop figures only this workload produces: printed, not
      // among the per-layer metrics.
      const double late_p99_us = late.current(0.99) / 1e3;
      const double slo_rps =
          slo_ladder(gen, rng, latency, late, args.seconds * 0.3);
      std::printf("# loadgen.late_p99_us %.6g us\n", late_p99_us);
      std::printf("# loadgen.slo_rps %.6g req/s\n", slo_rps);
      out.e2e_definition = "mean ns from due time to response, 50k req/s";
      tcp_stage_table(pool, ph, e2e, true, late_mean,
                      args.seconds * 0.2, out);
    }
    gen.latency = nullptr;
  }
  out.set("setup_s", setup_s);
}

}  // namespace perfbench
