// Tests for the observability layer: trace-ring wraparound and torn-read
// safety under a concurrent collector (run these under the `tsan`
// preset), Chrome JSON export validity and quiescent stability, the
// misprediction postmortem ring, the ER drift monitor (screams on
// all-propagate operands, quiet on the model rate), and the Prometheus
// exposition of the telemetry registry.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/service.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/registry.hpp"
#include "trace/drift.hpp"
#include "trace/merge.hpp"
#include "trace/postmortem.hpp"
#include "trace/trace.hpp"
#include "util/bitvec.hpp"

namespace vlsa {
namespace {

using util::BitVec;

// ---------------------------------------------------------------------
// A minimal JSON validator — enough structure-awareness to prove the
// exported document parses (objects, arrays, strings, numbers, bools),
// without depending on an external JSON library.

class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  bool valid() {
    pos_ = 0;
    const bool ok = value();
    skip_ws();
    return ok && pos_ == text_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool literal(const char* word) {
    const std::size_t n = std::string(word).size();
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  bool string() {
    if (text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      pos_ += text_[pos_] == '\\' ? 2 : 1;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool members(char open, char close, bool keyed) {
    if (pos_ >= text_.size() || text_[pos_] != open) return false;
    ++pos_;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == close) {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (keyed) {
        if (!string()) return false;
        skip_ws();
        if (pos_ >= text_.size() || text_[pos_] != ':') return false;
        ++pos_;
      }
      if (!value()) return false;
      skip_ws();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == close) {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool value() {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return members('{', '}', /*keyed=*/true);
      case '[':
        return members('[', ']', /*keyed=*/false);
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

TEST(TraceRing, EncodeDecodeRoundTrips) {
  trace::TraceEvent event;
  event.ts_ns = 123456789;
  event.dur_ns = 4242;
  event.tid = 7;
  event.name = trace::EventName::kRecovery;
  event.phase = trace::Phase::kComplete;
  event.args.batch = 991;
  event.args.lane = 63;
  event.args.k = 18;
  event.args.er = 1;
  event.args.chain = 64;
  event.args.a_lo = 0xdeadbeefcafef00dULL;
  event.args.b_lo = 0x0123456789abcdefULL;
  event.args.has_operands = true;
  event.args.req = 0xfedcba9876543210ULL;  // full 64-bit wire id
  event.args.has_req = true;

  const auto decoded = trace::TraceEvent::decode(event.encode());
  EXPECT_EQ(decoded.ts_ns, event.ts_ns);
  EXPECT_EQ(decoded.dur_ns, event.dur_ns);
  EXPECT_EQ(decoded.tid, event.tid);
  EXPECT_EQ(decoded.name, event.name);
  EXPECT_EQ(decoded.phase, event.phase);
  EXPECT_EQ(decoded.args.batch, event.args.batch);
  EXPECT_EQ(decoded.args.lane, event.args.lane);
  EXPECT_EQ(decoded.args.k, event.args.k);
  EXPECT_EQ(decoded.args.er, event.args.er);
  EXPECT_EQ(decoded.args.chain, event.args.chain);
  EXPECT_EQ(decoded.args.a_lo, event.args.a_lo);
  EXPECT_EQ(decoded.args.b_lo, event.args.b_lo);
  EXPECT_TRUE(decoded.args.has_operands);
  EXPECT_EQ(decoded.args.req, event.args.req);
  EXPECT_TRUE(decoded.args.has_req);

  // Absent-marker round trip (the sentinels share slot words with real
  // values, so "unset" must survive encoding too).
  trace::TraceEvent bare;
  const auto bare_decoded = trace::TraceEvent::decode(bare.encode());
  EXPECT_EQ(bare_decoded.args.batch, trace::kNoBatch);
  EXPECT_EQ(bare_decoded.args.lane, -1);
  EXPECT_EQ(bare_decoded.args.k, -1);
  EXPECT_EQ(bare_decoded.args.er, -1);
  EXPECT_EQ(bare_decoded.args.chain, -1);
  EXPECT_FALSE(bare_decoded.args.has_operands);
  EXPECT_FALSE(bare_decoded.args.has_req);
  EXPECT_EQ(bare_decoded.args.req, 0u);
}

TEST(TraceRing, WraparoundKeepsTheNewestEvents) {
  trace::EventRing ring(8);
  ASSERT_EQ(ring.capacity(), 8u);
  for (std::uint64_t i = 0; i < 20; ++i) {
    trace::TraceEvent event;
    event.ts_ns = i;
    event.args.batch = i;
    ring.push(event);
  }
  EXPECT_EQ(ring.pushed(), 20u);

  std::vector<trace::TraceEvent> events;
  const std::size_t got = ring.collect(events);
  ASSERT_EQ(got, 8u);
  // Oldest-first, and exactly the last `capacity` pushes survive.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts_ns, 12 + i);
    EXPECT_EQ(events[i].args.batch, 12 + i);
  }
}

// The seqlock contract: a collector running concurrently with a writer
// never observes a torn slot.  Every pushed event satisfies
// `args.batch == ts_ns` and `args.a_lo == ~ts_ns`; any interleaving of
// two different events' words would break the invariant.  Run under
// the `tsan` preset for the full data-race check.
TEST(TraceRing, ConcurrentCollectorNeverSeesTornEvents) {
  constexpr std::uint64_t kPushes = 50'000;
  trace::EventRing ring(64);
  std::atomic<bool> done{false};
  std::thread writer([&ring, &done] {
    for (std::uint64_t i = 0; i < kPushes; ++i) {
      trace::TraceEvent event;
      event.ts_ns = i;
      event.args.batch = i;
      event.args.a_lo = ~i;
      event.args.has_operands = true;
      ring.push(event);
    }
    done.store(true, std::memory_order_release);
  });

  const auto validate = [](const std::vector<trace::TraceEvent>& events) {
    for (const auto& event : events) {
      ASSERT_EQ(event.args.batch, event.ts_ns);
      ASSERT_EQ(event.args.a_lo, ~event.ts_ns);
    }
  };
  // Race with the live writer...
  std::vector<trace::TraceEvent> events;
  while (!done.load(std::memory_order_acquire)) {
    events.clear();
    ring.collect(events);
    validate(events);
  }
  writer.join();
  // ...and confirm a quiescent collect sees exactly the newest window.
  events.clear();
  ASSERT_EQ(ring.collect(events), ring.capacity());
  validate(events);
  EXPECT_EQ(ring.pushed(), kPushes);
  EXPECT_EQ(events.back().ts_ns, kPushes - 1);
}

// Pump-mode service: deterministic, single-threaded, recovery inline.
service::ServiceConfig pump_config(int width, int window) {
  service::ServiceConfig config;
  config.pipeline.width = width;
  config.pipeline.window = window;
  config.workers = 0;
  config.queue_capacity = 4096;
  config.record_wall_time = false;
  return config;
}

// Drive `n` all-propagate additions (a + ~a: every bit position
// propagates, chain == width, ER fires on every request) through a
// pump-mode service.
void run_all_propagate(service::AdderService& service, int width, int n) {
  for (int i = 0; i < n; ++i) {
    const auto a =
        BitVec::from_u64(width, 0x9e3779b97f4a7c15ULL * (i + 1));
    service.submit(a, ~a);
    if ((i + 1) % 64 == 0) service.pump();
  }
  service.flush();
}

TEST(TraceSession, SecondConcurrentSessionThrows) {
  trace::TraceSession session;
  EXPECT_THROW(trace::TraceSession(trace::TraceConfig{}), std::logic_error);
}

TEST(TraceSession, DisabledGateCostsNothingAndRecordsNothing) {
  EXPECT_FALSE(trace::enabled());
  // Emitting with no session active is a no-op, not an error.
  trace::emit_instant(trace::EventName::kSubmit);
  trace::TraceSession session;
  EXPECT_TRUE(trace::enabled());
  session.stop();
  EXPECT_FALSE(trace::enabled());
  EXPECT_TRUE(session.collect().empty());
}

TEST(TraceSession, RecoverySpansCarryOperandsAndChainLength) {
  constexpr int kWidth = 64;
  constexpr int kWindow = 8;
  trace::TraceSession session;
  {
    service::AdderService service(pump_config(kWidth, kWindow));
    run_all_propagate(service, kWidth, 256);
  }
  session.stop();

  const auto events = session.collect();
  ASSERT_FALSE(events.empty());
  std::size_t recoveries = 0;
  for (const auto& event : events) {
    if (event.name != trace::EventName::kRecovery) continue;
    ++recoveries;
    EXPECT_EQ(event.phase, trace::Phase::kComplete);
    EXPECT_EQ(event.args.er, 1);
    EXPECT_EQ(event.args.k, kWindow);
    EXPECT_TRUE(event.args.has_operands);
    // a + ~a: every position propagates.
    EXPECT_EQ(event.args.chain, kWidth);
    EXPECT_EQ(event.args.b_lo, ~event.args.a_lo);
    EXPECT_NE(event.args.batch, trace::kNoBatch);
    EXPECT_GE(event.args.lane, 0);
  }
  EXPECT_EQ(recoveries, 256u);
}

TEST(TraceSession, ChromeExportIsValidJsonAndQuiescentStable) {
  trace::TraceSession session;
  {
    service::AdderService service(pump_config(32, 6));
    run_all_propagate(service, 32, 128);
  }
  session.stop();

  const std::string first = session.chrome_json();
  const std::string second = session.chrome_json();
  EXPECT_EQ(first, second) << "quiescent exports must be byte-identical";

  JsonValidator validator(first);
  EXPECT_TRUE(validator.valid()) << "export is not well-formed JSON";

  // Structural spot checks a Perfetto load depends on.
  EXPECT_NE(first.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(first.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(first.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(first.find("\"recovery\""), std::string::npos);
  EXPECT_NE(first.find("\"er-check\""), std::string::npos);
  EXPECT_NE(first.find("\"chain\""), std::string::npos);
}

TEST(TraceSession, SamplingRateZeroStillRecordsRecoveryEvents) {
  trace::TraceConfig config;
  config.sample_rate = 0.0;
  config.always_sample_recovery = true;
  trace::TraceSession session(config);
  {
    service::AdderService service(pump_config(32, 6));
    run_all_propagate(service, 32, 128);
  }
  session.stop();

  const auto events = session.collect();
  ASSERT_FALSE(events.empty());
  for (const auto& event : events) {
    // Detail events are sampled out; only the recovery path remains.
    EXPECT_TRUE(event.name == trace::EventName::kRecovery ||
                event.name == trace::EventName::kErCheck ||
                event.name == trace::EventName::kComplete)
        << "unexpected detail event " << trace::event_name(event.name);
  }
}

// ---------------------------------------------------------------------
// trace::merge — stitching per-process exports into one timeline

TEST(TraceMerge, StitchesClientAndServerExportsByRequestId) {
  // Two sequential sessions stand in for two processes: a "client"
  // recording send/recv spans for one sampled request, and a "server"
  // recording the matching net-serve span.  The shared join key is the
  // wire request id in args.req.
  constexpr std::uint64_t kReq = 0xabcdef0112345678ULL;
  std::string client_json, server_json;
  {
    trace::TraceSession session;
    trace::EventArgs args;
    args.req = kReq;
    args.has_req = true;
    trace::emit_span(trace::EventName::kClientSend, 1000, 500, args);
    trace::emit_span(trace::EventName::kClientRecv, 9000, 700, args);
    session.stop();
    client_json = session.chrome_json();
  }
  {
    trace::TraceSession session;
    trace::EventArgs args;
    args.req = kReq;
    args.has_req = true;
    args.k = 8;
    trace::emit_span(trace::EventName::kNetServe, 3000, 2000, args);
    session.stop();
    server_json = session.chrome_json();
  }

  std::ostringstream os;
  const auto stats =
      trace::merge({{"client", client_json}, {"server", server_json}}, os);
  EXPECT_EQ(stats.sources, 2u);
  EXPECT_EQ(stats.matched_reqs, 1u) << "the request id must join the sides";
  EXPECT_GE(stats.events, 3u);

  const std::string merged = os.str();
  JsonValidator validator(merged);
  EXPECT_TRUE(validator.valid()) << "merged export is not well-formed JSON";

  // Each source becomes its own pid with a process_name label, and the
  // three distributed-tracing span names all survive the merge.
  EXPECT_NE(merged.find("\"process_name\""), std::string::npos);
  EXPECT_NE(merged.find("\"client\""), std::string::npos);
  EXPECT_NE(merged.find("\"server\""), std::string::npos);
  EXPECT_NE(merged.find("\"client-send\""), std::string::npos);
  EXPECT_NE(merged.find("\"client-recv\""), std::string::npos);
  EXPECT_NE(merged.find("\"net-serve\""), std::string::npos);
  EXPECT_NE(merged.find("\"pid\": 2"), std::string::npos);

  // The full 64-bit request id re-emits losslessly (the merger keeps
  // raw number text; a double round-trip would corrupt the high bits)
  // — once per span, on both sides.
  const std::string req_decimal = std::to_string(kReq);
  std::size_t occurrences = 0;
  for (std::size_t pos = merged.find(req_decimal);
       pos != std::string::npos; pos = merged.find(req_decimal, pos + 1)) {
    ++occurrences;
  }
  EXPECT_EQ(occurrences, 3u);
}

TEST(TraceMerge, MalformedInputThrows) {
  std::ostringstream os;
  EXPECT_THROW(trace::merge({{"a", "{"}, {"b", "{}"}}, os),
               std::runtime_error);
  // Structurally valid JSON but missing the epoch_ns alignment key.
  EXPECT_THROW(trace::merge({{"a", R"({"traceEvents": []})"},
                             {"b", R"({"traceEvents": []})"}},
                            os),
               std::runtime_error);
}

TEST(TracePostmortem, RingKeepsTheLastNMispredictions) {
  trace::PostmortemRing ring(16);
  for (int i = 0; i < 50; ++i) {
    const auto a = BitVec::from_u64(32, static_cast<std::uint64_t>(i));
    ring.record(a, ~a, /*k=*/6, /*wrong=*/i % 2 == 0,
                /*batch=*/static_cast<std::uint64_t>(i), /*lane=*/i % 64);
  }
  EXPECT_EQ(ring.total_recorded(), 50u);
  const auto records = ring.records();
  ASSERT_EQ(records.size(), 16u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].sequence, 34 + i);  // oldest-first, last 16
    EXPECT_EQ(records[i].chain, 32);         // a + ~a all-propagate
    EXPECT_EQ(records[i].k, 6);
  }
  const std::string json = ring.to_json();
  JsonValidator validator(json);
  EXPECT_TRUE(validator.valid());
  EXPECT_NE(json.find("\"total_recorded\""), std::string::npos);
  EXPECT_NE(json.find("\"chain\""), std::string::npos);
}

TEST(TracePostmortem, ServiceRecoveryPathFeedsTheRing) {
  trace::PostmortemRing ring(8);
  auto config = pump_config(64, 8);
  config.postmortem = &ring;
  {
    service::AdderService service(config);
    run_all_propagate(service, 64, 100);
  }
  EXPECT_EQ(ring.total_recorded(), 100u);
  const auto records = ring.records();
  ASSERT_EQ(records.size(), 8u);
  for (const auto& record : records) {
    EXPECT_EQ(record.chain, 64);
    EXPECT_EQ(record.b, ~record.a);
  }
}

TEST(DriftMonitor, FlagsAnAllPropagateStream) {
  trace::DriftConfig config;
  config.width = 64;
  config.k = 8;
  config.window = 1024;
  telemetry::Registry registry;
  std::ostringstream log;
  trace::DriftMonitor monitor(config, &registry, &log);

  // Simulate the service's per-batch reporting with every lane flagged.
  for (int batch = 0; batch < 32; ++batch) monitor.record_batch(64, 64);

  const auto status = monitor.status();
  EXPECT_EQ(status.total, 2048u);
  EXPECT_EQ(status.flagged, 2048u);
  EXPECT_EQ(status.windows, 2u);
  EXPECT_EQ(status.windows_out_of_band, 2u);
  EXPECT_TRUE(status.out_of_band);
  EXPECT_GT(status.last_z, config.z_threshold);
  EXPECT_NE(log.str().find("OUT OF BAND"), std::string::npos);

  // The verdict also lands in telemetry gauges.
  const auto snap = registry.snapshot();
  bool found = false;
  for (const auto& [name, value] : snap.gauges) {
    if (name == "drift.out_of_band") {
      EXPECT_EQ(value, 1);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(DriftMonitor, QuietOnTheModelRate) {
  trace::DriftConfig config;
  config.width = 64;
  config.k = 4;  // high flag probability, so in-band traffic is testable
  config.window = 4096;
  trace::DriftMonitor monitor(config);
  const double expected = monitor.expected_rate();
  ASSERT_GT(expected, 0.0);

  // Feed batches whose flag count matches the model exactly (the
  // per-window residual stays far inside the ±4σ band).
  const auto per_window =
      static_cast<std::uint64_t>(std::llround(expected * 4096));
  for (int w = 0; w < 8; ++w) {
    monitor.record_batch(4096 - per_window, 0);
    monitor.record_batch(per_window, per_window);
  }
  const auto status = monitor.status();
  EXPECT_EQ(status.windows, 8u);
  EXPECT_EQ(status.windows_out_of_band, 0u);
  EXPECT_FALSE(status.out_of_band);
}

// In-distribution traffic must trip the alarm in at most 2Φ(−4) of its
// windows.  At ACA(1024, 23) the model expects about one flag per
// 16384-request window, where a normal z-test already reads z > 4 at
// five flags.  Feed the monitor one window per possible flag count,
// then sum the Binomial(16384, p) mass of every count it marked out of
// band.
TEST(DriftMonitor, FalseAlarmRateHoldsTheStatedBound) {
  trace::DriftConfig config;
  config.width = 1024;
  config.k = 23;
  config.window = 16384;
  trace::DriftMonitor monitor(config);
  const double p = monitor.expected_rate();
  ASSERT_GT(p, 0.0);
  const double n = static_cast<double>(config.window);
  auto pmf = [&](double x) {
    return std::exp(std::lgamma(n + 1) - std::lgamma(x + 1) -
                    std::lgamma(n - x + 1) + x * std::log(p) +
                    (n - x) * std::log1p(-p));
  };
  double false_alarm_mass = 0.0;
  std::uint64_t first_out = 0;
  for (std::uint64_t flags = 0; flags <= config.window; ++flags) {
    monitor.record_batch(config.window, flags);
    if (!monitor.status().out_of_band) continue;
    if (first_out == 0) first_out = flags;
    false_alarm_mass += pmf(static_cast<double>(flags));
  }
  const double bound = std::erfc(4.0 / std::sqrt(2.0));  // 2Φ(−4)
  EXPECT_LE(false_alarm_mass, bound);
  // Still a detector: a handful of flags over the ~1 expected is out.
  EXPECT_GT(first_out, 1u);
  EXPECT_LE(first_out, 12u);
  EXPECT_EQ(monitor.status().windows, config.window + 1);
}

TEST(DriftMonitor, ServiceIntegrationScreamsOnAdversarialOperands) {
  trace::DriftConfig drift_config;
  drift_config.width = 64;
  drift_config.k = 8;
  drift_config.window = 256;
  telemetry::Registry registry;
  trace::DriftMonitor monitor(drift_config, &registry, nullptr);

  auto config = pump_config(64, 8);
  config.drift = &monitor;
  {
    service::AdderService service(config, &registry);
    run_all_propagate(service, 64, 512);
  }
  const auto status = monitor.status();
  EXPECT_GE(status.windows, 2u);
  EXPECT_EQ(status.windows_out_of_band, status.windows);
  EXPECT_TRUE(status.out_of_band);
}

TEST(TracePrometheus, NameSanitization) {
  EXPECT_EQ(telemetry::prometheus_name("service.latency_ns"),
            "service_latency_ns");
  EXPECT_EQ(telemetry::prometheus_name("9lives"), "_9lives");
  EXPECT_EQ(telemetry::prometheus_name("a-b c/d"), "a_b_c_d");
}

TEST(TracePrometheus, ExposesCountersGaugesAndSummaries) {
  telemetry::Registry registry;
  registry.counter("service.submitted").increment(42);
  registry.gauge("service.queue_depth").set(17);
  auto& histogram = registry.histogram("service.latency_ns");
  for (int i = 1; i <= 100; ++i) histogram.record(i);

  const std::string text = telemetry::to_prometheus(registry.snapshot());
  EXPECT_NE(text.find("# TYPE vlsa_service_submitted counter"),
            std::string::npos);
  EXPECT_NE(text.find("vlsa_service_submitted 42"), std::string::npos);
  EXPECT_NE(text.find("# TYPE vlsa_service_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(text.find("vlsa_service_queue_depth 17"), std::string::npos);
  EXPECT_NE(text.find("# TYPE vlsa_service_latency_ns summary"),
            std::string::npos);
  EXPECT_NE(text.find("vlsa_service_latency_ns{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("vlsa_service_latency_ns_sum 5050"),
            std::string::npos);
  EXPECT_NE(text.find("vlsa_service_latency_ns_count 100"),
            std::string::npos);
  // Histogram min/max ride along as gauges (not derivable from the
  // quantile lines, which are bucket lower bounds).
  EXPECT_NE(text.find("vlsa_service_latency_ns_min 1"), std::string::npos);
  EXPECT_NE(text.find("vlsa_service_latency_ns_max 100"),
            std::string::npos);

  // Determinism: equal snapshots render to identical bytes.
  EXPECT_EQ(text, telemetry::to_prometheus(registry.snapshot()));
}

TEST(TracePrometheus, ReporterWritesTheMetricsFile) {
  telemetry::Registry registry;
  registry.counter("reporter.test").increment(7);
  const std::string path =
      testing::TempDir() + "vlsa_metrics_reporter_test.prom";
  {
    telemetry::MetricsReporter reporter(
        registry, path, std::chrono::milliseconds(10));
    // stop() performs a final synchronous write, so the file exists
    // even if no periodic tick fired.
    reporter.stop();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("vlsa_reporter_test 7"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vlsa
