// The three workloads.  Each fills a Result: end-to-end metrics on an
// untraced run, per-layer metrics (by name, see main.cpp) on a traced one.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "netsim/groundtruth.h"
#include "netsim/world.h"
#include "trace/arrival.h"
#include "trace/stream.h"

namespace viabench {

/// Per-layer values of a traced run, keyed by metric name.  Layers a
/// workload never enters stay absent and are printed as 0.
using Layers = std::map<std::string, double>;

void run_replay(const Args& args, Result& out, Layers& layers);
void run_stream(const Args& args, Result& out, Layers& layers);
void run_serve(const Args& args, Result& out, Layers& layers);

/// Set-ups per run; set-up time is reported as their median.
inline constexpr int kSetups = 3;
/// Untraced runs time one call in this many (choose/observe latency).
inline constexpr std::int64_t kSampleEvery = 64;

/// A seeded Medium-preset world, its ground truth with warmed caches, and
/// its call trace of `total_calls` calls over `days` days (the preset's own
/// when 0): what `replay` replays and what `serve` sends.
struct Scenario {
  std::unique_ptr<via::World> world;
  std::unique_ptr<via::GroundTruth> gt;
  std::vector<via::CallArrival> arrivals;
  double netsim_s = 0.0;  ///< world + ground truth + cache warm-up
  double trace_s = 0.0;   ///< trace generation

  [[nodiscard]] via::BackboneFn backbone() const {
    return [gt = gt.get()](via::RelayId a, via::RelayId b) { return gt->backbone(a, b); };
  }
};
[[nodiscard]] Scenario build_scenario(std::uint64_t seed, int days = 0,
                                      std::int64_t total_calls = 0);

/// Sets the per-layer figures read off ViaPolicy's own counters: memo
/// overflow builds, store and window evictions, model bytes per resident
/// pair, and the bandit and cold-start shares of decisions.
void policy_layers(const via::ViaPolicy::Stats& stats, const via::ViaPolicy::MemoryStats& mem,
                   Layers& layers);

/// Nanoseconds per next() over one full pass of `stream` (reset first).
[[nodiscard]] double arrival_next_ns(via::ArrivalStream& stream);

}  // namespace viabench
