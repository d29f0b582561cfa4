// perfbench — the repository's end-to-end benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--git-sha <sha>] [--src-digest <hex>]
//
// Workloads: tcp_sat_1024, tcp_poisson_64, inproc_adv_1024, mc_1024
// (perfbench/NOTES.md says why each exists).  --trace 0 measures the
// end-to-end metrics; --trace 1 is the separate traced run that records
// spans, counts allocations, reads the registry, replays each layer in
// isolation and prints the stage table.  The last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.  Exit
// status is 1 when any output disagreed with its oracle.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "harness.hpp"
#include "sim/isa.hpp"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics (untraced runs), the same four on every workload.
constexpr MetricDef kEndToEnd[] = {
    {"throughput_rps", "req/s"},
    {"p50_us", "us"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Per-layer metrics (traced runs).  A layer the workload does not pass
// through reports 0.
constexpr MetricDef kPerLayer[] = {
    {"net.read_ns.p50", "ns"},
    {"net.decode_ns.p50", "ns"},
    {"net.write_ns.p50", "ns"},
    {"net.server_ns.p50", "ns"},
    {"net.server_ns.p99", "ns"},
    {"net.frames_per_read", "count"},
    {"net.frames_per_write", "count"},
    {"net.read_stalls", "count"},
    {"net.encode_req_ns", "ns"},
    {"net.decode_frame_ns", "ns"},
    {"client.send_ns", "ns"},
    {"client.recv_ns", "ns"},
    {"service.occupancy", "count"},
    {"service.lane_util", "share"},
    {"service.latency_ns.p50", "ns"},
    {"service.latency_ns.p99", "ns"},
    {"service.recovered_frac", "share"},
    {"service.recovery_needed_frac", "share"},
    {"service.submit_ns", "ns"},
    {"service.pump_ns", "ns"},
    {"sim.pack_ns", "ns"},
    {"sim.eval_ns", "ns"},
    {"sim.unpack_ns", "ns"},
    {"sim.pack_ns.scalar", "ns"},
    {"sim.eval_ns.scalar", "ns"},
    {"sim.unpack_ns.scalar", "ns"},
    {"sim.pack_ns.avx2", "ns"},
    {"sim.eval_ns.avx2", "ns"},
    {"sim.unpack_ns.avx2", "ns"},
    {"sim.pack_ns.avx512", "ns"},
    {"sim.eval_ns.avx512", "ns"},
    {"sim.unpack_ns.avx512", "ns"},
    {"sim.mc_trial_ns", "ns"},
    {"sim.mc_trial_ns.scalar", "ns"},
    {"sim.mc_trial_ns.avx2", "ns"},
    {"sim.mc_trial_ns.avx512", "ns"},
    {"core.exact_add_ns", "ns"},
    {"core.aca_add_ns", "ns"},
    {"core.aca_flag_ns", "ns"},
    {"workloads.mc_trial_ns", "ns"},
    {"allocs_per_req", "count"},
    {"alloc_bytes_per_req", "bytes"},
    {"cpu_us_per_req", "us"},
    {"ctx_switches_per_req", "count"},
    {"unattributed_ns", "ns"},
    {"trace.overhead_frac", "share"},
    {"latency.p99_us", "us"},
    {"throughput.p90_over_mean", "ratio"},
};

const WorkloadSpec kWorkloads[] = {
    {"tcp_sat_1024", vlsa::workloads::Distribution::Uniform, 1024, 23},
    {"tcp_poisson_64", vlsa::workloads::Distribution::Uniform, 64, 18},
    {"inproc_adv_1024", vlsa::workloads::Distribution::Complementary, 1024, 23},
    {"mc_1024", vlsa::workloads::Distribution::Uniform, 1024, 23},
};

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Jiffies of all CPUs from /proc/stat: total, and stolen by the
/// hypervisor (0 where the file is missing).
struct HostTicks {
  double total = 0, steal = 0;
};
HostTicks host_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  HostTicks t;
  double v = 0;
  f >> cpu;
  for (int i = 0; i < 8 && f >> v; ++i) {  // user .. steal
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int run(int argc, char** argv) {
  Args args;
  std::string git_sha = "unknown", src_digest = "unknown";
  if (argc % 2 == 0) throw std::invalid_argument("flags take one value each");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--out-dir") args.out_dir = value;
    else if (flag == "--git-sha") git_sha = value;
    else if (flag == "--src-digest") src_digest = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (args.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  const WorkloadSpec* spec = nullptr;
  for (const auto& w : kWorkloads) {
    if (w.name == args.workload) spec = &w;
  }
  if (spec == nullptr) {
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  }

  const auto isa = vlsa::sim::active_isa();
  std::printf(
      "# provenance {\"git_sha\": \"%s\", \"src_digest\": \"%s\", "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"cpu\": \"%s\", "
      "\"nproc\": %ld, \"isa\": \"%s\", \"engine_lanes\": %d, "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, \"trace\": %d}\n",
      json_escape(git_sha).c_str(), json_escape(src_digest).c_str(),
      PERFBENCH_BUILD_TYPE, json_escape(__VERSION__).c_str(),
      json_escape(cpu_model()).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      vlsa::sim::isa_name(isa), vlsa::sim::active_lanes(),
      spec->name.c_str(), static_cast<unsigned long long>(args.seed),
      number(args.seconds).c_str(), args.trace ? 1 : 0);
  std::fflush(stdout);

  Result out;
  const HostTicks h0 = host_ticks();
  if (spec->name == "tcp_sat_1024") run_tcp_sat(args, *spec, out);
  else if (spec->name == "tcp_poisson_64") run_tcp_poisson(args, *spec, out);
  else if (spec->name == "inproc_adv_1024") run_inproc_adv(args, *spec, out);
  else run_mc(args, *spec, out);
  out.set("peak_rss_mb", peak_rss_mb());
  // Time the hypervisor took from this VM's CPUs during the run: the
  // first thing to look at when a run reads far off its neighbours.
  const HostTicks h1 = host_ticks();
  std::printf("# host cpu steal over the run: %.2f%%\n",
              h1.total > h0.total
                  ? 100.0 * (h1.steal - h0.steal) / (h1.total - h0.total)
                  : 0.0);

  if (args.trace) {
    double rows = 0;
    std::printf("# stage table %s (ns per request; e2e = %s)\n",
                spec->name.c_str(), out.e2e_definition.c_str());
    for (const auto& [name, ns] : out.stages) {
      std::printf("#   %-34s %12.1f\n", name.c_str(), ns);
      rows += ns;
    }
    out.set("unattributed_ns", out.e2e_ns - rows);
    std::printf("#   %-34s %12.1f\n", "unattributed_ns", out.e2e_ns - rows);
    std::printf("#   %-34s %12.1f\n", "= end-to-end ns per request",
                out.e2e_ns);
    std::printf("#   trace.overhead_frac %.4f\n",
                out.get("trace.overhead_frac"));
    out.spans.write_json(args.out_dir + "/spans-" + spec->name + ".json");
  }
  const double fail_frac =
      out.attempted > 0 ? static_cast<double>(out.failed) / out.attempted : 1.0;
  std::printf("# %s: attempted %lld, failed %lld, fail_frac %s\n",
              spec->name.c_str(), out.attempted, out.failed,
              number(fail_frac).c_str());
  for (const auto& e : out.errors) {
    std::printf("# oracle mismatch: %s\n", e.c_str());
  }

  std::string metrics;
  auto emit = [&](const MetricDef& m) {
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + m.name + "\": {\"value\": " +
               number(out.get(m.name)) + ", \"unit\": \"" + m.unit + "\"}";
    std::printf("# %-30s %16.6g %s\n", m.name, out.get(m.name), m.unit);
  };
  if (args.trace) {
    for (const auto& m : kPerLayer) emit(m);
  } else {
    for (const auto& m : kEndToEnd) emit(m);
  }
  const bool correct =
      out.failed == 0 && out.errors.empty() && out.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", out.attempted, out.failed,
              metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
