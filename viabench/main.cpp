// viabench: the repository's end-to-end benchmark.
//
//   viabench --workload replay|stream|serve --seed N --seconds S --trace 0|1
//            [--rate CALLS_PER_S]
//
// --rate overrides serve's offered load (for rate sweeps; the benchmark
// itself runs at the workload's own rate).
// Prints a box fingerprint first, progress and reference lines after it, and
// as its last line one JSON object: {"correct", "attempted", "failed",
// "metrics"}.  With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 they are the per-layer ones (every name in kLayerMetrics, 0 for
// a layer the workload never enters).  Exits 0 when it printed a result.
#include <sched.h>
#include <sys/utsname.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "workloads.h"

namespace viabench {
namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Per-layer metrics of the traced run, named after src/'s modules.
constexpr LayerMetric kLayerMetrics[] = {
    {"trace.generate_s", "s"},
    {"trace.next_ns", "ns"},
    {"netsim.build_s", "s"},
    {"netsim.sample_call_ns", "ns"},
    {"sim.engine_self_s", "s"},
    {"core.choose_ns", "ns"},
    {"core.choose_p90_ns", "ns"},
    {"core.observe_ns", "ns"},
    {"core.refresh_prepare_ms", "ms"},
    {"core.refresh_commit_us", "us"},
    {"core.batch_calls_mean", "count"},
    {"core.memo_overflow_builds", "count"},
    {"core.store_evictions", "count"},
    {"core.window_evictions", "count"},
    {"core.model_bytes_per_pair", "B"},
    {"core.bandit_share", "ratio"},
    {"core.cold_start_share", "ratio"},
    {"rpc.client_encode_ns", "ns"},
    {"rpc.client_decode_ns", "ns"},
    {"rpc.server_request_us", "us"},
    {"rpc.wire_us", "us"},
    {"rpc.refresh_stall_us", "us"},
    {"rpc.bytes_per_call", "B"},
    {"obs.trace_overhead_pct", "%"},
    {"gen.late_p90_us", "us"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "viabench: %s\n"
               "usage: viabench --workload replay|stream|serve --seed N --seconds S "
               "--trace 0|1 [--rate CALLS_PER_S]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--rate") {
      args.rate = std::strtod(value.c_str(), nullptr);
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload != "replay" && args.workload != "stream" && args.workload != "serve") {
    usage("--workload must be replay, stream or serve");
  }
  // run.py stops a run after 170 s; set-ups and checks take up to ~40 s.
  if (!(args.seconds > 0.0 && args.seconds <= 120.0)) usage("--seconds must be in (0, 120]");
  if (!(args.rate >= 0.0 && args.rate <= 100'000.0)) usage("--rate must be in [0, 100000]");
  return args;
}

/// Keeps the process off CPU 0, which takes most device interrupts, when
/// at least three CPUs are allowed.  Returns the resulting mask as a list.
std::string set_cpu_mask() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_ISSET(0, &set) &&
      CPU_COUNT(&set) >= 3) {
    CPU_CLR(0, &set);
    (void)::sched_setaffinity(0, sizeof(set), &set);
  }
  CPU_ZERO(&set);
  (void)::sched_getaffinity(0, sizeof(set), &set);
  std::string mask;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    if (!mask.empty()) mask += ',';
    mask += std::to_string(cpu);
  }
  return mask;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

void print_fingerprint(const std::string& mask) {
  utsname u{};
  (void)::uname(&u);
  std::printf("fingerprint: {\"nproc\": %u, \"cpu\": %s, \"kernel\": %s, \"build\": %s, "
              "\"cpu_mask\": %s}\n",
              std::thread::hardware_concurrency(), json_string(cpu_model()).c_str(),
              json_string(u.release).c_str(), json_string(VIABENCH_BUILD_TYPE).c_str(),
              json_string(mask).c_str());
}

void print_result(const Result& r) {
  std::string metrics;
  for (const Result::Metric& m : r.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(m.name) + ": {\"value\": " + value +
               ", \"unit\": " + json_string(m.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              r.problems.ok() ? "true" : "false", static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed), metrics.c_str());
}

}  // namespace
}  // namespace viabench

int main(int argc, char** argv) {
  using namespace viabench;
  const Args args = parse(argc, argv);
  print_fingerprint(set_cpu_mask());
  std::fflush(stdout);

  Result result;
  Layers layers;
  try {
    if (args.workload == "replay") {
      run_replay(args, result, layers);
    } else if (args.workload == "stream") {
      run_stream(args, result, layers);
    } else {
      run_serve(args, result, layers);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "viabench: %s workload failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }

  if (args.trace) {
    result.metrics.clear();
    for (const auto& m : kLayerMetrics) {
      const auto it = layers.find(m.name);
      result.metric(m.name, it == layers.end() ? 0.0 : it->second, m.unit);
    }
  }
  for (const Result::Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) result.problems.add(m.name + " is not a finite number");
  }
  for (const std::string& problem : result.problems.list()) {
    std::printf("check failed: %s\n", problem.c_str());
  }
  print_result(result);
  return 0;
}
