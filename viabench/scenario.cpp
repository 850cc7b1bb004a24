// Pieces the workloads share: the seeded scenario of `replay` and `serve`,
// the policy's per-layer counters, and the cost of pulling arrivals from a
// stream.
#include <algorithm>
#include <cstdio>

#include "sim/experiment.h"
#include "trace/generator.h"
#include "trace/stream.h"
#include "util/rng.h"
#include "workloads.h"

namespace viabench {

Scenario build_scenario(std::uint64_t seed, int days, std::int64_t total_calls) {
  via::Experiment::Setup setup = via::Experiment::default_setup(via::Experiment::Scale::Medium);
  if (days > 0) setup.trace.days = days;
  if (total_calls > 0) setup.trace.total_calls = total_calls;
  // The network (world and ground truth) is the preset's own; the seed
  // draws the traffic on it.  A seeded world moves set-up, refresh and
  // memory figures by up to 50% from one seed to the next.
  setup.trace.seed = via::hash_mix(seed, 0x7ace);
  Scenario s;
  const auto t0 = Clock::now();
  s.world = std::make_unique<via::World>(setup.world);
  s.gt = std::make_unique<via::GroundTruth>(*s.world, setup.ground_truth);
  const auto t1 = Clock::now();
  via::TraceGenerator generator(*s.gt, setup.trace, setup.rating);
  s.arrivals = generator.generate_arrivals();
  const auto t2 = Clock::now();
  // +2 days of slack, as Experiment::warm_caches does.
  s.gt->warm(s.arrivals, via::day_of(s.arrivals.back().time) + 2);
  const auto t3 = Clock::now();
  s.netsim_s = seconds_between(t0, t1) + seconds_between(t2, t3);
  s.trace_s = seconds_between(t1, t2);
  return s;
}

void policy_layers(const via::ViaPolicy::Stats& stats, const via::ViaPolicy::MemoryStats& mem,
                   Layers& layers) {
  const auto calls = static_cast<double>(std::max<std::int64_t>(1, stats.calls));
  layers["core.memo_overflow_builds"] = static_cast<double>(mem.memo_overflow_builds);
  layers["core.store_evictions"] = static_cast<double>(mem.store_evictions);
  layers["core.window_evictions"] = static_cast<double>(mem.window_evictions);
  layers["core.model_bytes_per_pair"] =
      static_cast<double>(mem.total_bytes()) /
      static_cast<double>(std::max<std::size_t>(1, mem.resident_pairs));
  layers["core.bandit_share"] = static_cast<double>(stats.bandit_served) / calls;
  layers["core.cold_start_share"] = static_cast<double>(stats.cold_start_direct) / calls;
}

double arrival_next_ns(via::ArrivalStream& stream) {
  stream.reset();
  via::CallArrival a;
  std::int64_t n = 0;
  via::TimeSec sink = 0;
  const auto t0 = Clock::now();
  while (stream.next(a)) {
    sink += a.time;
    ++n;
  }
  const auto t1 = Clock::now();
  if (sink == -1) std::puts("");  // keeps the loop from being optimised away
  return n > 0 ? ns_between(t0, t1) / static_cast<double>(n) : 0.0;
}

}  // namespace viabench
