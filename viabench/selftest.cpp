// Shows that each output check of the benchmark fires on a corrupted
// result and stays quiet on a sound one.  Run with
// `python3 viabench/run.py --selftest`; exits non-zero on the first check
// that does not behave.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench.h"

namespace {

using viabench::Problems;

int failures = 0;

/// `sound` must pass every check; `corrupt` must make at least one fire.
void expect(const char* what, const std::function<void(Problems&)>& sound,
            const std::function<void(Problems&)>& corrupt) {
  Problems ok;
  sound(ok);
  Problems bad;
  corrupt(bad);
  const bool pass = ok.ok() && !bad.ok();
  std::printf("%s %s%s%s\n", pass ? "ok  " : "FAIL", what, bad.ok() ? "" : " -> ",
              bad.ok() ? "" : bad.list().front().c_str());
  if (!pass) ++failures;
}

via::RunResult run_with(std::int64_t calls, std::int64_t poor) {
  via::RunResult r;
  r.calls = calls;
  r.evaluated_calls = calls;
  via::PathPerformance good;
  good.rtt_ms = 100.0;
  via::PathPerformance bad;
  bad.rtt_ms = 400.0;
  for (std::int64_t i = 0; i < calls; ++i) r.pnr.add(i < poor ? bad : good);
  r.used_direct = calls;
  return r;
}

via::ViaPolicy::Stats stats_for(std::int64_t calls) {
  via::ViaPolicy::Stats s;
  s.calls = calls;
  s.bandit_served = calls - 10;
  s.cold_start_direct = 10;
  s.chose_direct = 10;
  s.chose_bounce = calls - 10;
  return s;
}

viabench::StreamOutcome sound_stream() {
  viabench::StreamOutcome o;
  o.calls_requested = o.calls_replayed = 1000;
  o.resident_pairs_cap = o.window_paths_cap = 100;
  o.max_resident_pairs_seen = o.max_window_paths_seen = 100;
  o.via_rtt_sum = 150'000.0;
  o.direct_rtt_sum = 180'000.0;
  return o;
}

viabench::ServeOutcome sound_serve() {
  viabench::ServeOutcome o;
  o.decisions_sent = o.replies_received = o.server_decisions = 500;
  o.reports_sent = o.acks_received = o.server_reports = 500;
  o.refreshes_sent = o.refresh_acks = 7;
  o.pings_sent = o.pongs_received = 31;
  return o;
}

}  // namespace

int main() {
  using namespace viabench;

  expect("replay: PNR ordering reversed",
         [](Problems& p) { check_pnr_order(0.011, 0.031, 0.133, p); },
         [](Problems& p) { check_pnr_order(0.011, 0.133, 0.031, p); });
  expect("replay: oracle worse than Via",
         [](Problems& p) { check_pnr_order(0.031, 0.031, 0.133, p); },
         [](Problems& p) { check_pnr_order(0.040, 0.031, 0.133, p); });
  expect("replay: recomputed PNR disagrees with the engine",
         [](Problems& p) { check_recomputed_pnr(31, 1000, run_with(1000, 31), p); },
         [](Problems& p) { check_recomputed_pnr(30, 1000, run_with(1000, 31), p); });
  expect("replay: an observation of a routed call lost",
         [](Problems& p) { check_recomputed_pnr(31, 1000, run_with(1000, 31), p); },
         [](Problems& p) { check_recomputed_pnr(31, 999, run_with(1000, 31), p); });
  expect("replay: decision counters do not add up",
         [](Problems& p) { check_stats(stats_for(1000), 1000, p); },
         [](Problems& p) {
           via::ViaPolicy::Stats s = stats_for(1000);
           s.bandit_served -= 1;
           check_stats(s, 1000, p);
         });
  expect("replay: policy saw fewer calls than were replayed",
         [](Problems& p) { check_stats(stats_for(1000), 1000, p); },
         [](Problems& p) { check_stats(stats_for(999), 1000, p); });
  expect("replay: routed and background calls miss a trace call",
         [](Problems& p) { check_replayed(950, 50, 1000, p); },
         [](Problems& p) { check_replayed(950, 49, 1000, p); });
  expect("replay: a repeated replay differs",
         [](Problems& p) { check_same_replay(run_with(1000, 31), run_with(1000, 31), p); },
         [](Problems& p) { check_same_replay(run_with(1000, 31), run_with(1000, 32), p); });
  expect("any: a choice outside the call's candidates",
         [](Problems& p) { check_choices(0, p); }, [](Problems& p) { check_choices(1, p); });

  expect("stream: resident pairs over their cap",
         [](Problems& p) { check_stream(sound_stream(), p); },
         [](Problems& p) {
           StreamOutcome o = sound_stream();
           o.max_resident_pairs_seen = 101;
           check_stream(o, p);
         });
  expect("stream: window paths over their cap",
         [](Problems& p) { check_stream(sound_stream(), p); },
         [](Problems& p) {
           StreamOutcome o = sound_stream();
           o.max_window_paths_seen = 101;
           check_stream(o, p);
         });
  expect("stream: a call not replayed",
         [](Problems& p) { check_stream(sound_stream(), p); },
         [](Problems& p) {
           StreamOutcome o = sound_stream();
           o.calls_replayed = 999;
           check_stream(o, p);
         });
  expect("stream: Via no better than direct",
         [](Problems& p) { check_stream(sound_stream(), p); },
         [](Problems& p) {
           StreamOutcome o = sound_stream();
           o.via_rtt_sum = o.direct_rtt_sum;
           check_stream(o, p);
         });

  const std::vector<via::OptionId> candidates = {0, 4, 9};
  const PendingDecision sent{42, candidates};
  expect("serve: a reply whose option is outside the request's candidates",
         [&](Problems& p) { check_reply(sent, via::DecisionResponse{42, 9}, p); },
         [&](Problems& p) { check_reply(sent, via::DecisionResponse{42, 5}, p); });
  expect("serve: a reply for another call",
         [&](Problems& p) { check_reply(sent, via::DecisionResponse{42, 0}, p); },
         [&](Problems& p) { check_reply(sent, via::DecisionResponse{43, 0}, p); });
  expect("serve: a lost report",
         [](Problems& p) { check_serve(sound_serve(), p); },
         [](Problems& p) {
           ServeOutcome o = sound_serve();
           o.server_reports -= 1;
           check_serve(o, p);
         });
  expect("serve: an unanswered decision",
         [](Problems& p) { check_serve(sound_serve(), p); },
         [](Problems& p) {
           ServeOutcome o = sound_serve();
           o.replies_received -= 1;
           check_serve(o, p);
         });
  expect("serve: a Busy frame",
         [](Problems& p) { check_serve(sound_serve(), p); },
         [](Problems& p) {
           ServeOutcome o = sound_serve();
           o.busy_frames = 1;
           check_serve(o, p);
         });
  expect("serve: an Error frame",
         [](Problems& p) { check_serve(sound_serve(), p); },
         [](Problems& p) {
           ServeOutcome o = sound_serve();
           o.error_frames = 1;
           o.server_protocol_errors = 1;
           check_serve(o, p);
         });
  expect("serve: an unanswered ping",
         [](Problems& p) { check_serve(sound_serve(), p); },
         [](Problems& p) {
           ServeOutcome o = sound_serve();
           o.pongs_received -= 1;
           check_serve(o, p);
         });
  expect("reconciliation: parts short of the whole",
         [](Problems& p) { check_adds_up("serve", 22.0, 24.0, 0.25, p); },
         [](Problems& p) { check_adds_up("serve", 12.0, 24.0, 0.25, p); });
  expect("reconciliation: parts beyond the whole",
         [](Problems& p) { check_adds_up("replay", 0.52, 0.50, 0.25, p); },
         [](Problems& p) { check_adds_up("replay", 0.70, 0.50, 0.25, p); });
  expect("serve: an unacknowledged refresh",
         [](Problems& p) { check_serve(sound_serve(), p); },
         [](Problems& p) {
           ServeOutcome o = sound_serve();
           o.refresh_acks -= 1;
           check_serve(o, p);
         });

  std::printf("%s: %d check(s) misbehaved\n", failures == 0 ? "selftest passed" : "FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}
