// replay: the paper's trace-driven evaluation (§5.1).  SimulationEngine
// replays a seeded Medium-preset trace through ViaPolicy on one thread, as
// every figure bench does; about half of the time is the engine and its
// ground-truth sampling.  No rpc work.
#include <algorithm>
#include <cstdio>
#include <span>

#include "core/policies.h"
#include "sim/oracle.h"
#include "workloads.h"

namespace viabench {

namespace {

/// How far the engine's own time, measured apart, plus the time inside
/// policy calls may be from a traced round's wall time, as a share of it
/// (README).
constexpr double kReplayReconcileMargin = 0.25;

/// Sits between the engine and a policy (ViaPolicy, or RecordedChoices).
/// Refresh is always timed (model_refresh_ms); choose/observe are timed on
/// one call in kSampleEvery, or on every call in a traced round, where
/// refresh is also split into its prepare and commit halves and the
/// replay's choices and ground-truth draws are recorded for the
/// reconciliation and the netsim timing.  With `check` it also verifies
/// choices and recounts the RTT PNR of policy-routed calls.
class ReplayProbe final : public via::RoutingPolicy {
 public:
  struct Draw {
    via::CallId id;
    via::AsId src;
    via::AsId dst;
    via::OptionId option;
    via::TimeSec time;
  };

  ReplayProbe(via::RoutingPolicy& inner, bool check, bool traced)
      : inner_(inner), check_(check), traced_(traced) {}

  via::OptionId choose(const via::CallContext& call) override {
    via::OptionId pick;
    if (traced_ || ++chosen_ % kSampleEvery == 0) {
      const auto t0 = Clock::now();
      pick = inner_.choose(call);
      const double ns = ns_between(t0, Clock::now());
      choose_ns.push_back(ns);
      policy_ns += ns;
    } else {
      pick = inner_.choose(call);
    }
    if (traced_) picks.push_back(pick);
    if (check_) {
      if (!choice_in(call.options, pick)) ++outside_candidates;
      last_routed_ = call.id;
    }
    return pick;
  }

  void observe(const via::Observation& obs) override {
    if (traced_ || ++observed_ % kSampleEvery == 0) {
      const auto t0 = Clock::now();
      inner_.observe(obs);
      const double ns = ns_between(t0, Clock::now());
      observe_ns.push_back(ns);
      policy_ns += ns;
    } else {
      inner_.observe(obs);
    }
    if (traced_) draws.push_back({obs.id, obs.src_as, obs.dst_as, obs.option, obs.time});
    if (check_) {
      if (obs.id == last_routed_) {
        ++routed;
        if (thresholds_.poor(via::Metric::Rtt, obs.perf)) ++poor;
        last_routed_ = -1;
      } else {
        ++background;
      }
    }
  }

  void refresh(via::TimeSec now) override {
    const auto t0 = Clock::now();
    if (traced_) {
      inner_.prepare_refresh(now);
      const auto t1 = Clock::now();
      inner_.commit_refresh(now);
      const auto t2 = Clock::now();
      prepare_ms.push_back(ns_between(t0, t1) / 1e6);
      commit_us.push_back(ns_between(t1, t2) / 1e3);
      refresh_ms.push_back(ns_between(t0, t2) / 1e6);
      policy_ns += ns_between(t0, t2);
    } else {
      inner_.refresh(now);
      refresh_ms.push_back(ns_between(t0, Clock::now()) / 1e6);
    }
  }

  void attach_telemetry(via::obs::Telemetry* telemetry) override {
    inner_.attach_telemetry(telemetry);
  }
  [[nodiscard]] std::string_view name() const override { return inner_.name(); }

  std::vector<double> choose_ns, observe_ns, refresh_ms, prepare_ms, commit_us;
  std::vector<Draw> draws;
  std::vector<via::OptionId> picks;  ///< traced: every choice, in order
  double policy_ns = 0.0;
  std::int64_t outside_candidates = 0;
  std::int64_t routed = 0, poor = 0, background = 0;

 private:
  via::RoutingPolicy& inner_;
  const bool check_;
  const bool traced_;
  const via::PoorThresholds thresholds_{};
  std::int64_t chosen_ = 0;
  std::int64_t observed_ = 0;
  via::CallId last_routed_ = -1;
};

/// Gives the engine the choices a traced round made, in order, and does no
/// other work: a replay through it is the engine's own time for that round.
class RecordedChoices final : public via::RoutingPolicy {
 public:
  explicit RecordedChoices(std::span<const via::OptionId> picks) : picks_(picks) {}
  via::OptionId choose(const via::CallContext& call) override {
    return next_ < picks_.size() ? picks_[next_++] : call.options.front();
  }
  [[nodiscard]] std::string_view name() const override { return "recorded"; }

 private:
  std::span<const via::OptionId> picks_;
  std::size_t next_ = 0;
};

struct Rounds {
  std::vector<double> calls_per_s, refresh_ms, choose_ns, observe_ns;
  std::vector<std::uint32_t> choose_round, observe_round;  ///< window of each sample
  std::vector<double> wall_s, policy_s, engine_self_s, prepare_ms, commit_us;
  /// Traced: (engine alone + policy) / wall of each round, see below.
  std::vector<double> reconciled;
  std::vector<double> engine_alone_s;
  std::int64_t calls = 0;
  std::int64_t failed = 0;  ///< calls of rounds that differ from the checked replay
};

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

}  // namespace

void run_replay(const Args& args, Result& out, Layers& layers) {
  std::vector<double> setup_s, netsim_s, trace_s;
  Scenario sc;
  for (int i = 0; i < kSetups; ++i) {
    sc = Scenario{};  // release the previous set-up first, so peak RSS counts one
    const auto t0 = Clock::now();
    sc = build_scenario(args.seed);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    netsim_s.push_back(sc.netsim_s);
    trace_s.push_back(sc.trace_s);
  }
  const auto total_calls = static_cast<std::int64_t>(sc.arrivals.size());
  std::printf("replay: %lld calls over %d days, %zu ASes, seed %llu\n",
              static_cast<long long>(total_calls), via::day_of(sc.arrivals.back().time) + 1,
              sc.world->ases().size(), static_cast<unsigned long long>(args.seed));

  const via::RunConfig run_config;  // the defaults every figure bench replays with
  via::SimulationEngine engine(*sc.gt, sc.arrivals, run_config);
  const auto make_via = [&] {
    via::ViaConfig config;
    config.target = via::Metric::Rtt;
    return std::make_unique<via::ViaPolicy>(sc.gt->option_table(), sc.backbone(), config);
  };

  // Checked replays, untimed: the baselines and one probed Via run that
  // every timed round must reproduce exactly.
  via::OraclePolicy oracle(*sc.gt, via::Metric::Rtt);
  via::DefaultPolicy direct;
  const via::RunResult oracle_run = engine.run(oracle);
  const via::RunResult default_run = engine.run(direct);
  const auto checked_policy = make_via();
  ReplayProbe checked(*checked_policy, /*check=*/true, /*traced=*/false);
  const via::RunResult reference = engine.run(checked);
  Problems& p = out.problems;
  check_pnr_order(oracle_run.pnr.pnr(via::Metric::Rtt), reference.pnr.pnr(via::Metric::Rtt),
                  default_run.pnr.pnr(via::Metric::Rtt), p);
  check_recomputed_pnr(checked.poor, checked.routed, reference, p);
  check_choices(checked.outside_candidates, p);
  check_stats(checked_policy->stats(), reference.calls, p);
  check_replayed(reference.calls, checked.background, total_calls, p);
  std::printf("replay: RTT PNR oracle %.4f  via %.4f  default %.4f\n",
              oracle_run.pnr.pnr(via::Metric::Rtt), reference.pnr.pnr(via::Metric::Rtt),
              default_run.pnr.pnr(via::Metric::Rtt));

  // Timed rounds: whole replays through a fresh policy until the phase's
  // time is spent.  A traced run spends half its time untraced, half traced.
  std::vector<ReplayProbe::Draw> draws;
  via::ViaPolicy::Stats last_stats;
  via::ViaPolicy::MemoryStats last_mem;
  const auto run_rounds = [&](bool traced, double seconds) {
    Rounds r;
    const auto end = Clock::now() + std::chrono::duration<double>(seconds);
    do {
      const auto policy = make_via();
      ReplayProbe probe(*policy, /*check=*/false, traced);
      const auto t0 = Clock::now();
      const via::RunResult run = engine.run(probe);
      const double wall = seconds_between(t0, Clock::now());
      if (!check_same_replay(reference, run, p)) r.failed += total_calls;
      r.calls += total_calls;
      r.calls_per_s.push_back(static_cast<double>(total_calls) / wall);
      append(r.refresh_ms, probe.refresh_ms);
      append(r.choose_ns, probe.choose_ns);
      append(r.observe_ns, probe.observe_ns);
      const auto round = static_cast<std::uint32_t>(r.calls_per_s.size());
      r.choose_round.resize(r.choose_ns.size(), round);
      r.observe_round.resize(r.observe_ns.size(), round);
      if (traced) {
        const double policy_s = probe.policy_ns / 1e9;
        r.wall_s.push_back(wall);
        r.policy_s.push_back(policy_s);
        r.engine_self_s.push_back(wall - policy_s);
        append(r.prepare_ms, probe.prepare_ms);
        append(r.commit_us, probe.commit_us);
        last_stats = policy->stats();
        last_mem = policy->memory_stats();
        // Reconciliation: the engine's own time, measured apart by
        // replaying this round's choices through RecordedChoices under the
        // same probe (the engine's work with no policy behind it), plus
        // this round's time inside policy calls makes up its wall time.
        // Right after the round, so a drift of the host's speed between
        // rounds does not enter the comparison.
        RecordedChoices recorded(probe.picks);
        ReplayProbe alone(recorded, /*check=*/false, /*traced=*/true);
        const auto r0 = Clock::now();
        const via::RunResult again = engine.run(alone);
        const double engine_s = seconds_between(r0, Clock::now()) - alone.policy_ns / 1e9;
        if (!check_same_replay(reference, again, p)) r.failed += total_calls;
        r.calls += total_calls;
        r.engine_alone_s.push_back(engine_s);
        r.reconciled.push_back((engine_s + policy_s) / wall);
        draws = std::move(probe.draws);
      }
    } while (Clock::now() < end);
    return r;
  };

  if (!args.trace) {
    const Rounds r = run_rounds(false, args.seconds);
    out.attempted = total_calls + r.calls;
    out.failed = checked.outside_candidates + r.failed;
    out.metric("setup_s", median(setup_s), "s");
    out.metric("calls_per_s", median(r.calls_per_s), "1/s");
    out.metric("model_refresh_ms", median(r.refresh_ms), "ms");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("decide_p50_us", windowed_quantile(r.choose_ns, r.choose_round, 0.5) / 1e3, "us");
    out.metric("decide_p90_us", windowed_quantile(r.choose_ns, r.choose_round, 0.9) / 1e3, "us");
    out.metric("report_p50_us", windowed_quantile(r.observe_ns, r.observe_round, 0.5) / 1e3,
               "us");
    std::printf("replay: %zu rounds, %zu refreshes\n", r.calls_per_s.size(),
                r.refresh_ms.size());
    return;
  }

  const Rounds plain = run_rounds(false, args.seconds / 2);
  const Rounds traced = run_rounds(true, args.seconds / 2);
  out.attempted = total_calls + plain.calls + traced.calls;
  out.failed = checked.outside_candidates + plain.failed + traced.failed;

  // Ground-truth sampling over the replay's own draw sequence.
  double sink = 0.0;
  const auto t0 = Clock::now();
  for (const ReplayProbe::Draw& d : draws) {
    sink += sc.gt->sample_call(d.id, d.src, d.dst, d.option, d.time).rtt_ms;
  }
  const double sample_ns = ns_between(t0, Clock::now()) / static_cast<double>(draws.size());
  if (sink < 0.0) std::puts("");

  const double self_s = median(traced.engine_self_s);
  layers["trace.generate_s"] = median(trace_s);
  via::SpanStream walk(sc.arrivals);
  layers["trace.next_ns"] = arrival_next_ns(walk);
  layers["netsim.build_s"] = median(netsim_s);
  layers["netsim.sample_call_ns"] = sample_ns;
  layers["sim.engine_self_s"] = self_s;
  layers["core.choose_ns"] = mean(traced.choose_ns);
  layers["core.choose_p90_ns"] = quantile(traced.choose_ns, 0.9);
  layers["core.observe_ns"] = mean(traced.observe_ns);
  layers["core.refresh_prepare_ms"] = median(traced.prepare_ms);
  layers["core.refresh_commit_us"] = median(traced.commit_us);
  layers["core.batch_calls_mean"] = 1.0;  // the engine decides one call at a time
  policy_layers(last_stats, last_mem, layers);
  layers["obs.trace_overhead_pct"] =
      100.0 * (median(plain.calls_per_s) / median(traced.calls_per_s) - 1.0);

  // Reconciliation, medians over the traced rounds: the engine's own time
  // plus time inside policy calls against the wall time (the ratio is taken
  // round by round), and the engine's own time must hold the ground-truth
  // draws.
  const double engine_s = median(traced.engine_alone_s);
  const double policy_s = median(traced.policy_s);
  const double wall_s = median(traced.wall_s);
  const double ratio = median(traced.reconciled);
  const double draws_s = sample_ns * static_cast<double>(draws.size()) / 1e9;
  std::printf("reconcile replay: engine alone %.4f s + policy %.4f s, wall %.4f s: %+.1f%% "
              "(median over %zu rounds); engine self as the residual %.4f s; ground-truth "
              "draws %.4f s\n",
              engine_s, policy_s, wall_s, 100.0 * (ratio - 1.0), traced.reconciled.size(), self_s,
              draws_s);
  check_adds_up("replay reconciliation", ratio, 1.0, kReplayReconcileMargin, p);
  if (!(draws_s < engine_s)) {
    p.add("replay reconciliation: the engine's own time does not hold its ground-truth draws");
  }
  std::printf("trace overhead replay: %.2f%% (calls/s untraced %.0f, traced %.0f)\n",
              layers["obs.trace_overhead_pct"], median(plain.calls_per_s),
              median(traced.calls_per_s));
}

}  // namespace viabench
