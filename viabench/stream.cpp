// stream: a SyntheticArrivalStream over hundreds of thousands of AS pairs
// driven through ViaPolicy with every ViaConfig::MemoryConfig bound
// engaged, as bench_scale does.  Per-call performance is a hash, so netsim
// does no work; the working set is far beyond cache, and memo-overflow
// rebuilds, pair and window evictions and large refreshes happen only here.
#include <algorithm>
#include <array>
#include <cstdio>

#include "common/relay_option.h"
#include "trace/stream.h"
#include "util/rng.h"
#include "workloads.h"

namespace viabench {

namespace {

constexpr std::int64_t kPairs = 300'000;
constexpr std::int64_t kCalls = 2'400'000;
constexpr int kDays = 8;
constexpr int kRelays = 24;
constexpr std::size_t kCandidates = 6;

// Every MemoryConfig bound sits below what a period of this workload
// touches, so each of them evicts.
constexpr std::size_t kWindowPathsCap = kPairs / 8;
constexpr std::size_t kMemoBudget = kPairs / 4;
constexpr std::size_t kResidentPairsCap = kPairs / 4;
constexpr std::uint64_t kPairTtlPeriods = 2;

/// The relay fleet: every bounce and transit option over kRelays sites.
std::unique_ptr<via::RelayOptionTable> make_options() {
  auto options = std::make_unique<via::RelayOptionTable>();
  for (via::RelayId r = 0; r < kRelays; ++r) options->intern_bounce(r);
  for (via::RelayId a = 0; a < kRelays; ++a) {
    for (auto b = static_cast<via::RelayId>(a + 1); b < kRelays; ++b) {
      options->intern_transit(a, b);
    }
  }
  return options;
}

/// A pair's candidates: direct first, then distinct non-direct options on
/// a hashed start with a stride coprime to the option count.
void candidates_for(std::uint64_t pair_key, std::uint32_t non_direct,
                    std::array<via::OptionId, kCandidates>& out) {
  out[0] = via::RelayOptionTable::direct_id();
  const auto start = static_cast<std::uint32_t>(via::hash_mix(pair_key, 0xca9d) % non_direct);
  for (std::size_t i = 1; i < kCandidates; ++i) {
    out[i] = static_cast<via::OptionId>(1 + (start + (i - 1) * 37) % non_direct);
  }
}

/// The benchmark's own ground truth: a stable (pair, option) level, a
/// daily drift and per-call noise, all pure hashes of the seed.
via::PathPerformance sample_perf(std::uint64_t seed, std::uint64_t pair_key,
                                 via::OptionId option, via::TimeSec t, via::CallId id) {
  const std::uint64_t path =
      via::hash_mix(seed, via::hash_mix(pair_key, 0x9e00 + static_cast<std::uint64_t>(option)));
  const double base = via::hashed_uniform(path);
  const double daily =
      via::hashed_uniform(via::hash_mix(path, static_cast<std::uint64_t>(via::day_of(t))));
  const double noise = via::hashed_uniform(
      via::hash_mix(0xca11, static_cast<std::uint64_t>(id) ^ static_cast<std::uint64_t>(option)));
  via::PathPerformance p;
  p.rtt_ms = 40.0 + 260.0 * base + 60.0 * daily + 40.0 * noise;
  p.loss_pct = 2.5 * base * daily + 0.5 * noise;
  p.jitter_ms = 3.0 + 12.0 * base + 5.0 * noise;
  return p;
}

struct Setup {
  std::unique_ptr<via::SyntheticArrivalStream> stream;
  std::unique_ptr<via::RelayOptionTable> options;
  double trace_s = 0.0;
};

Setup build(std::uint64_t seed) {
  Setup s;
  via::StreamTraceConfig trace;
  trace.total_calls = kCalls;
  trace.days = kDays;
  trace.active_pairs = kPairs;
  trace.seed = via::hash_mix(seed, 0x57e4);
  const auto t0 = Clock::now();
  s.stream = std::make_unique<via::SyntheticArrivalStream>(trace);
  s.trace_s = seconds_between(t0, Clock::now());
  s.options = make_options();
  return s;
}

struct Round {
  double wall_s = 0.0;
  std::vector<double> refresh_ms, prepare_ms, commit_us, choose_ns, observe_ns;
  std::vector<std::uint32_t> choose_day, observe_day;  ///< simulated day of each sample
  StreamOutcome outcome;
  via::ViaPolicy::Stats stats;
  via::ViaPolicy::MemoryStats mem;
};

/// One whole replay of the stream through a fresh policy.  Timing covers
/// the replay loop; the cap checks after each refresh are excluded.
Round replay_once(Setup& s, std::uint64_t seed, bool traced) {
  via::ViaConfig config;
  config.seed = seed;
  config.mem.max_window_paths = kWindowPathsCap;
  config.mem.snapshot_memo_budget = kMemoBudget;
  config.mem.max_resident_pairs = kResidentPairsCap;
  config.mem.pair_ttl_periods = kPairTtlPeriods;
  const std::uint64_t perf_seed = via::hash_mix(seed, 0x9ef);
  via::BackboneFn backbone = [perf_seed](via::RelayId a, via::RelayId b) {
    const std::uint64_t h = via::hash_mix(perf_seed, static_cast<std::uint64_t>(a) * 64 +
                                                         static_cast<std::uint64_t>(b));
    via::PathPerformance p;
    p.rtt_ms = 5.0 + 20.0 * via::hashed_uniform(h);
    p.loss_pct = 0.05;
    p.jitter_ms = 1.0 + 2.0 * via::hashed_uniform(via::hash_mix(h, 1));
    return p;
  };
  via::ViaPolicy policy(*s.options, backbone, config);
  const auto non_direct = static_cast<std::uint32_t>(s.options->size() - 1);

  Round r;
  StreamOutcome& o = r.outcome;
  o.calls_requested = s.stream->total_calls();
  o.resident_pairs_cap = kResidentPairsCap;
  o.window_paths_cap = kWindowPathsCap;
  // The window cap holds at every insert, so it is read when the window
  // is fullest, just before a refresh harvests it; the resident-pair cap is
  // enforced at commit, so it is read just after one.
  double excluded_s = 0.0;
  const auto note_caps = [&](bool committed) {
    const auto t0 = Clock::now();
    const via::ViaPolicy::MemoryStats m = policy.memory_stats();
    if (committed) {
      o.max_resident_pairs_seen = std::max(o.max_resident_pairs_seen, m.resident_pairs);
    } else {
      o.max_window_paths_seen = std::max(o.max_window_paths_seen, m.window_paths);
    }
    excluded_s += seconds_between(t0, Clock::now());
  };

  s.stream->reset();
  std::int64_t n = 0;
  via::TimeSec next_refresh = config.refresh_period;
  std::array<via::OptionId, kCandidates> cand{};
  via::CallArrival a;
  const auto start = Clock::now();
  while (s.stream->next(a)) {
    while (a.time >= next_refresh) {
      note_caps(false);
      const auto t0 = Clock::now();
      if (traced) {
        policy.prepare_refresh(next_refresh);
        const auto t1 = Clock::now();
        policy.commit_refresh(next_refresh);
        r.prepare_ms.push_back(ns_between(t0, t1) / 1e6);
        r.commit_us.push_back(ns_between(t1, Clock::now()) / 1e3);
      } else {
        policy.refresh(next_refresh);
      }
      r.refresh_ms.push_back(ns_between(t0, Clock::now()) / 1e6);
      note_caps(true);
      next_refresh += config.refresh_period;
    }
    via::CallContext ctx;
    ctx.id = a.id;
    ctx.time = a.time;
    ctx.src_as = ctx.key_src = a.src_as;
    ctx.dst_as = ctx.key_dst = a.dst_as;
    ctx.src_country = a.src_country;
    ctx.dst_country = a.dst_country;
    const std::uint64_t pair_key = ctx.pair_key();
    candidates_for(pair_key, non_direct, cand);
    ctx.options = cand;

    const bool timed = traced || n % kSampleEvery == 0;
    via::OptionId choice;
    if (timed) {
      const auto t0 = Clock::now();
      choice = policy.choose(ctx);
      r.choose_ns.push_back(ns_between(t0, Clock::now()));
      r.choose_day.push_back(static_cast<std::uint32_t>(a.day()));
    } else {
      choice = policy.choose(ctx);
    }
    if (!choice_in(ctx.options, choice)) ++o.outside_candidates;

    via::Observation obs;
    obs.id = a.id;
    obs.time = a.time;
    obs.src_as = a.src_as;
    obs.dst_as = a.dst_as;
    obs.option = choice;
    obs.perf = sample_perf(perf_seed, pair_key, choice, a.time, a.id);
    o.via_rtt_sum += obs.perf.rtt_ms;
    o.direct_rtt_sum +=
        sample_perf(perf_seed, pair_key, via::RelayOptionTable::direct_id(), a.time, a.id).rtt_ms;
    if (timed) {
      const auto t0 = Clock::now();
      policy.observe(obs);
      r.observe_ns.push_back(ns_between(t0, Clock::now()));
      r.observe_day.push_back(static_cast<std::uint32_t>(a.day()));
    } else {
      policy.observe(obs);
    }
    ++n;
  }
  r.wall_s = seconds_between(start, Clock::now()) - excluded_s;
  o.calls_replayed = n;
  r.stats = policy.stats();
  r.mem = policy.memory_stats();
  return r;
}

struct Rounds {
  std::vector<double> calls_per_s, refresh_ms, prepare_ms, commit_us, choose_ns, observe_ns;
  /// Window of each choose/observe sample: one simulated day of one round.
  std::vector<std::uint32_t> choose_window, observe_window;
  std::int64_t calls = 0;   ///< calls requested
  std::int64_t failed = 0;  ///< calls not replayed, and choices outside the candidates
  via::ViaPolicy::Stats stats;
  via::ViaPolicy::MemoryStats mem;
  std::size_t max_resident_pairs = 0;  ///< right after a commit, over all rounds
};

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

}  // namespace

void run_stream(const Args& args, Result& out, Layers& layers) {
  std::vector<double> setup_s, trace_s;
  Setup s;
  for (int i = 0; i < kSetups; ++i) {
    s = Setup{};
    const auto t0 = Clock::now();
    s = build(args.seed);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    trace_s.push_back(s.trace_s);
  }
  std::printf("stream: %lld calls over %d days, %lld pairs, %zu options, seed %llu\n",
              static_cast<long long>(kCalls), kDays, static_cast<long long>(kPairs),
              s.options->size(), static_cast<unsigned long long>(args.seed));

  Problems& p = out.problems;
  const auto run_rounds = [&](bool traced, double seconds) {
    Rounds rs;
    const auto end = Clock::now() + std::chrono::duration<double>(seconds);
    do {
      const Round r = replay_once(s, args.seed, traced);
      check_stream(r.outcome, p);
      check_stats(r.stats, r.outcome.calls_replayed, p);
      rs.calls += r.outcome.calls_requested;
      rs.failed += r.outcome.outside_candidates +
                   std::max<std::int64_t>(0, r.outcome.calls_requested - r.outcome.calls_replayed);
      rs.calls_per_s.push_back(static_cast<double>(r.outcome.calls_replayed) / r.wall_s);
      append(rs.refresh_ms, r.refresh_ms);
      append(rs.prepare_ms, r.prepare_ms);
      append(rs.commit_us, r.commit_us);
      const auto offset = static_cast<std::uint32_t>(rs.calls_per_s.size() - 1) * kDays;
      for (const std::uint32_t day : r.choose_day) rs.choose_window.push_back(offset + day);
      for (const std::uint32_t day : r.observe_day) rs.observe_window.push_back(offset + day);
      append(rs.choose_ns, r.choose_ns);
      append(rs.observe_ns, r.observe_ns);
      rs.stats = r.stats;
      rs.mem = r.mem;
      rs.max_resident_pairs = std::max(rs.max_resident_pairs, r.outcome.max_resident_pairs_seen);
    } while (Clock::now() < end);
    return rs;
  };

  if (!args.trace) {
    const Rounds r = run_rounds(false, args.seconds);
    out.attempted = r.calls;
    out.failed = r.failed;
    out.metric("setup_s", median(setup_s), "s");
    out.metric("calls_per_s", median(r.calls_per_s), "1/s");
    out.metric("model_refresh_ms", median(r.refresh_ms), "ms");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("decide_p50_us", windowed_quantile(r.choose_ns, r.choose_window, 0.5) / 1e3,
               "us");
    out.metric("decide_p90_us", windowed_quantile(r.choose_ns, r.choose_window, 0.9) / 1e3,
               "us");
    out.metric("report_p50_us", windowed_quantile(r.observe_ns, r.observe_window, 0.5) / 1e3,
               "us");
    std::printf("stream: %zu rounds, %zu refreshes; last round: %lld store and %lld window "
                "evictions, %lld memo-overflow builds, at most %zu resident pairs after a "
                "commit (cap %zu)\n",
                r.calls_per_s.size(), r.refresh_ms.size(),
                static_cast<long long>(r.mem.store_evictions),
                static_cast<long long>(r.mem.window_evictions),
                static_cast<long long>(r.mem.memo_overflow_builds), r.max_resident_pairs,
                kResidentPairsCap);
    return;
  }

  const Rounds plain = run_rounds(false, args.seconds / 2);
  const Rounds traced = run_rounds(true, args.seconds / 2);
  out.attempted = plain.calls + traced.calls;
  out.failed = plain.failed + traced.failed;

  layers["trace.generate_s"] = median(trace_s);
  layers["trace.next_ns"] = arrival_next_ns(*s.stream);
  layers["core.choose_ns"] = mean(traced.choose_ns);
  layers["core.choose_p90_ns"] = quantile(traced.choose_ns, 0.9);
  layers["core.observe_ns"] = mean(traced.observe_ns);
  layers["core.refresh_prepare_ms"] = median(traced.prepare_ms);
  layers["core.refresh_commit_us"] = median(traced.commit_us);
  layers["core.batch_calls_mean"] = 1.0;  // one call per choose()
  policy_layers(traced.stats, traced.mem, layers);
  layers["obs.trace_overhead_pct"] =
      100.0 * (median(plain.calls_per_s) / median(traced.calls_per_s) - 1.0);
  std::printf("trace overhead stream: %.2f%% (calls/s untraced %.0f, traced %.0f)\n",
              layers["obs.trace_overhead_pct"], median(plain.calls_per_s),
              median(traced.calls_per_s));
}

}  // namespace viabench
