#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "core/aca.hpp"
#include "sim/batch_engine.hpp"

namespace perfbench {

Pool make_pool(const WorkloadSpec& spec, std::uint64_t seed,
               std::size_t size) {
  Pool pool;
  pool.width = spec.width;
  pool.window = spec.window;
  vlsa::workloads::OperandStream stream(spec.distribution, spec.width, seed);
  pool.ops.reserve(size);
  for (std::size_t i = 0; i < size; ++i) pool.ops.push_back(stream.next());
  for (const auto& [a, b] : pool.ops) {
    auto exact = a.add_with_carry(b);
    const auto spec_sum = vlsa::core::aca_add(a, b, spec.window);
    pool.flag.push_back(vlsa::core::aca_flag(a, b, spec.window) ? 1 : 0);
    pool.wrong.push_back(spec_sum.sum != exact.sum ||
                                 spec_sum.carry_out != exact.carry_out
                             ? 1
                             : 0);
    pool.sum.push_back(std::move(exact.sum));
  }
  return pool;
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  // Selection, not a sort: O(n), so closing a slice of a few hundred
  // thousand samples costs a few milliseconds, not tens.
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto at = v.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(v.begin(), at, v.end());
  if (lo + 1 >= v.size()) return *at;
  const double hi = *std::min_element(at + 1, v.end());
  return *at + (pos - static_cast<double>(lo)) * (hi - *at);
}

double slice_stat(const char* name, std::vector<double> v, double q,
                  double scale) {
  for (double& x : v) x /= scale;
  std::printf("# slices %s: n %zu, p10 %.6g, p50 %.6g, p90 %.6g\n", name,
              v.size(), quantile(v, 0.1), quantile(v, 0.5), quantile(v, 0.9));
  return quantile(v, q);
}

double closed_loop_rate(const std::vector<double>& rates, double answered,
                        double wall_ns) {
  const double rate = slice_stat("throughput_rps", rates, kRateQuantile);
  const double mean = wall_ns > 0 ? answered * 1e9 / wall_ns : 0.0;
  std::printf("# throughput_rps mean %.6g req/s (answered / wall), "
              "p%.0f of windows / mean %.4f\n",
              mean, kRateQuantile * 100, mean > 0 ? rate / mean : 0.0);
  return rate;
}

LatencySlices::LatencySlices() {
  constexpr std::size_t kCapacity = std::size_t{1} << 21;
  samples_.resize(kCapacity);  // touch the pages now
  samples_.clear();
  scratch_.reserve(kCapacity);
}

void LatencySlices::load(std::size_t begin, std::size_t end) {
  scratch_.assign(samples_.begin() + static_cast<std::ptrdiff_t>(begin),
                  samples_.begin() + static_cast<std::ptrdiff_t>(end));
}

double LatencySlices::current(double q) {
  load(open_, samples_.size());
  return quantile(scratch_, q);
}

void LatencySlices::reset() {
  samples_.clear();
  ends_.clear();
  open_ = 0;
  p50_.clear();
  p99_.clear();
  sum_ = 0;
  count_ = 0;
}

void LatencySlices::cut() {
  constexpr std::size_t kMinSlice = 1000;
  const std::size_t size = samples_.size() - open_;
  if (size < kMinSlice) return;
  ends_.push_back(samples_.size());
  open_ = samples_.size();
  if (samples_.capacity() - samples_.size() < 2 * size) settle();
}

void LatencySlices::settle() {
  std::size_t begin = 0;
  for (const std::size_t end : ends_) {
    load(begin, end);
    p50_.push_back(quantile(scratch_, 0.50));
    p99_.push_back(quantile(scratch_, 0.99));
    begin = end;
  }
  ends_.clear();
  samples_.erase(samples_.begin(),
                 samples_.begin() + static_cast<std::ptrdiff_t>(begin));
  open_ -= begin;
}

Usage usage_now(bool this_thread) {
  rusage ru{};
  getrusage(this_thread ? RUSAGE_THREAD : RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_us =
      static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
      static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  u.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  return u;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Spans::total_ns(const char* name) const {
  for (const auto& t : totals_) {
    if (std::strcmp(t.name, name) == 0) return static_cast<double>(t.ns);
  }
  return 0.0;
}

void Spans::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write " + path);
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  f << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"items\":%llu}}",
                  i == 0 ? "" : ",", s.name,
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.dur_ns) / 1e3,
                  static_cast<unsigned long long>(s.items));
    f << buf << '\n';
  }
  f << "],\"totals\":{";
  for (std::size_t i = 0; i < totals_.size(); ++i) {
    f << (i == 0 ? "" : ",") << '"' << totals_[i].name << "\":{\"ns\":"
      << totals_[i].ns << ",\"calls\":" << totals_[i].calls << '}';
  }
  f << "}}\n";
}

void Result::set(const std::string& name, double value) {
  for (auto& m : metrics) {
    if (m.first == name) {
      m.second = value;
      return;
    }
  }
  metrics.emplace_back(name, value);
}

double Result::get(const std::string& name) const {
  for (const auto& m : metrics) {
    if (m.first == name) return m.second;
  }
  return 0.0;
}

void Result::fail(const std::string& what, long long n) {
  failed += n;
  if (errors.size() < 8) errors.push_back(what);
}

long long RegistryDelta::counter(const std::string& name) const {
  auto find = [&](const vlsa::telemetry::Snapshot& s) -> long long {
    for (const auto& [n, v] : s.counters) {
      if (n == name) return v;
    }
    return 0;
  };
  return find(after) - find(before);
}

vlsa::telemetry::HistogramSnapshot RegistryDelta::histogram(
    const std::string& name) const {
  auto find = [&](const vlsa::telemetry::Snapshot& s) {
    for (const auto& h : s.histograms) {
      if (h.name == name) return h;
    }
    return vlsa::telemetry::HistogramSnapshot{};
  };
  auto d = find(after);
  const auto b = find(before);
  if (b.count == 0) return d;
  d.count -= b.count;
  d.sum -= b.sum;
  for (std::size_t i = 0; i < d.buckets.size() && i < b.buckets.size(); ++i) {
    d.buckets[i] -= b.buckets[i];
  }
  return d;
}

void record_registry_layers(const RegistryDelta& reg, Result& out) {
  const long long frames_in = reg.counter("net.frames_in");
  if (frames_in > 0) {
    const auto read = reg.histogram("net.read_ns");
    const auto decode = reg.histogram("net.decode_ns");
    const auto write = reg.histogram("net.write_ns");
    const auto server = reg.histogram("net.server_ns");
    const long long frames_out = reg.counter("net.frames_out");
    out.set("net.read_ns.p50", static_cast<double>(read.p50()));
    out.set("net.decode_ns.p50", static_cast<double>(decode.p50()));
    out.set("net.write_ns.p50", static_cast<double>(write.p50()));
    out.set("net.server_ns.p50", static_cast<double>(server.p50()));
    out.set("net.server_ns.p99", static_cast<double>(server.p99()));
    out.set("net.frames_per_read",
            read.count ? static_cast<double>(frames_in) / read.count : 0.0);
    out.set("net.frames_per_write",
            write.count ? static_cast<double>(frames_out) / write.count : 0.0);
    out.set("net.read_stalls",
            static_cast<double>(reg.counter("net.read_stalls")));
  }
  const long long completed = reg.counter("service.completed");
  if (completed > 0) {
    const long long batches = reg.counter("service.batches");
    const long long recovered = reg.counter("service.recovered");
    const double occupancy =
        batches ? static_cast<double>(completed) / batches : 0.0;
    const auto latency = reg.histogram("service.latency_ns");
    out.set("service.occupancy", occupancy);
    out.set("service.lane_util",
            occupancy / vlsa::sim::lanes_for_batch(
                            static_cast<int>(std::lround(occupancy))));
    out.set("service.latency_ns.p50", static_cast<double>(latency.p50()));
    out.set("service.latency_ns.p99", static_cast<double>(latency.p99()));
    out.set("service.recovered_frac",
            static_cast<double>(recovered) / completed);
    out.set("service.recovery_needed_frac",
            recovered ? static_cast<double>(
                            reg.counter("service.speculative_wrong")) /
                            recovered
                      : 0.0);
  }
}

TracedPhase::TracedPhase(Result& out,
                         const vlsa::telemetry::Registry* registry,
                         bool exclude_caller)
    : out_(out), registry_(registry), exclude_caller_(exclude_caller) {
  if (registry_ != nullptr) reg.before = registry_->snapshot();
  out_.spans.start();
  if (exclude_caller_) caller_.emplace();
  alloc_counting(true);
  u0_ = usage_now();
  self0_ = usage_now(true);
  a0_ = alloc_now();
  t0_ = now_ns();
}

void TracedPhase::end(long long requests) {
  t1_ = now_ns();
  const Usage u1 = usage_now();
  const Usage self1 = usage_now(true);
  const AllocCount a1 = alloc_now();
  alloc_counting(false);
  caller_.reset();
  out_.spans.on = false;
  if (registry_ != nullptr) reg.after = registry_->snapshot();
  requests_ = static_cast<double>(requests);
  if (requests <= 0) return;
  double cpu = u1.cpu_us - u0_.cpu_us;
  auto switches = static_cast<double>(u1.ctx_switches - u0_.ctx_switches);
  if (exclude_caller_) {
    cpu -= self1.cpu_us - self0_.cpu_us;
    switches -= static_cast<double>(self1.ctx_switches - self0_.ctx_switches);
  }
  out_.set("allocs_per_req",
           static_cast<double>(a1.count - a0_.count) / requests_);
  out_.set("alloc_bytes_per_req",
           static_cast<double>(a1.bytes - a0_.bytes) / requests_);
  out_.set("cpu_us_per_req", cpu / requests_);
  out_.set("ctx_switches_per_req", switches / requests_);
}

vlsa::service::ServiceConfig serve_defaults(int width, int window) {
  vlsa::service::ServiceConfig config;
  config.pipeline.width = width;
  config.pipeline.window = window;
  config.workers = 1;
  config.queue_capacity = 1024;
  return config;
}

}  // namespace perfbench
