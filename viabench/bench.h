// Shared pieces of the end-to-end benchmark: the result record every
// workload fills, sample statistics, a concurrent latency histogram for the
// traced run, and the output checks (checks.cpp) that the self-test binary
// exercises against corrupted results.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/via_policy.h"
#include "rpc/messages.h"
#include "sim/engine.h"

namespace viabench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;  ///< BENCHMARK.json's run_seconds
  bool trace = false;
  double rate = 0.0;  ///< serve: offered calls per second, 0 for the workload's own
};

/// Collected output-check failures.  A workload is correct when no check
/// added a problem.
class Problems {
 public:
  void add(std::string what) { list_.push_back(std::move(what)); }
  [[nodiscard]] bool ok() const noexcept { return list_.empty(); }
  [[nodiscard]] const std::vector<std::string>& list() const noexcept { return list_; }

 private:
  std::vector<std::string> list_;
};

/// What one run prints as its last line.
struct Result {
  Problems problems;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Interpolated quantile (q in [0, 1]) of unsorted samples; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] double median(std::vector<double> samples);
[[nodiscard]] double mean(std::span<const double> samples);

/// The median over windows of each window's q-quantile, where windows[i]
/// names the window of samples[i] (a second of a serve run, a round or a
/// simulated day of a replay).  A disturbance of the shared host that lasts
/// a second or two moves a few windows, not the figure.
[[nodiscard]] double windowed_quantile(const std::vector<double>& samples,
                                       const std::vector<std::uint32_t>& windows, double q);

/// Peak resident set size of this process (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mb();

/// Lock-free histogram of nanosecond durations for the traced run: 4 ns
/// buckets up to 64 µs plus an overflow bucket, so concurrent reactor
/// workers can record per-call times without a lock and quantiles keep
/// their digits (linear interpolation inside a bucket).
class NsHistogram {
 public:
  NsHistogram();
  void record(double ns, std::int64_t weight = 1) noexcept;
  [[nodiscard]] std::int64_t count() const noexcept { return count_.load(); }
  [[nodiscard]] double sum() const noexcept { return sum_.load(); }
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] double quantile(double q) const noexcept;

 private:
  static constexpr double kBucketNs = 4.0;
  static constexpr std::size_t kBuckets = 16384;
  std::vector<std::atomic<std::int64_t>> buckets_;
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// ------------------------------------------------------------ checks

/// replay: Oracle <= Via < Default on RTT PNR over the same trace.
void check_pnr_order(double oracle, double via_pnr, double default_pnr, Problems& p);

/// replay: the RTT PNR recomputed from the observations of policy-routed
/// calls (`poor` of `routed` calls had RTT >= the poor threshold) matches
/// the engine's own accounting.
void check_recomputed_pnr(std::int64_t poor, std::int64_t routed, const via::RunResult& run,
                          Problems& p);

/// The policy's decision counters add up to the calls it was asked about.
void check_stats(const via::ViaPolicy::Stats& s, std::int64_t calls, Problems& p);

/// Policy-routed plus connectivity-relayed (background) calls make up
/// every call of the trace.
void check_replayed(std::int64_t routed, std::int64_t background, std::int64_t total,
                    Problems& p);

/// Every decision named one of its call's candidates.
[[nodiscard]] bool choice_in(std::span<const via::OptionId> options, via::OptionId choice);
void check_choices(std::int64_t outside_candidates, Problems& p);

/// A repeated replay of the same trace through a fresh policy must give
/// the same outcome as the checked replay.  Returns false when it differs.
bool check_same_replay(const via::RunResult& reference, const via::RunResult& run,
                       Problems& p);

/// Reconciliation of a traced run: `parts`, the sum of figures measured
/// independently of `whole`, equals `whole` within `margin`, a share of
/// `whole`.
void check_adds_up(const std::string& what, double parts, double whole, double margin,
                   Problems& p);

/// stream: outcome of one streaming replay.
struct StreamOutcome {
  std::int64_t calls_requested = 0;
  std::int64_t calls_replayed = 0;
  std::int64_t outside_candidates = 0;
  std::size_t max_resident_pairs_seen = 0;
  std::size_t resident_pairs_cap = 0;
  std::size_t max_window_paths_seen = 0;
  std::size_t window_paths_cap = 0;
  double via_rtt_sum = 0.0;     ///< sampled RTT of each call on Via's choice
  double direct_rtt_sum = 0.0;  ///< the same calls had they gone direct
};
void check_stream(const StreamOutcome& o, Problems& p);

/// serve: one outstanding request as the generator remembers it.
struct PendingDecision {
  via::CallId call_id = 0;
  std::span<const via::OptionId> options;
};
/// Returns false, adding a problem, when the reply is not for `sent` or
/// names an option outside its candidates.
bool check_reply(const PendingDecision& sent, const via::DecisionResponse& reply, Problems& p);

/// serve: what the generator sent and received, and the server's counts.
struct ServeOutcome {
  std::int64_t decisions_sent = 0;
  std::int64_t replies_received = 0;
  std::int64_t reports_sent = 0;
  std::int64_t acks_received = 0;
  std::int64_t refreshes_sent = 0;
  std::int64_t refresh_acks = 0;
  std::int64_t pings_sent = 0;  ///< traced runs only
  std::int64_t pongs_received = 0;
  std::int64_t bad_replies = 0;  ///< replies check_reply rejected
  std::int64_t busy_frames = 0;
  std::int64_t error_frames = 0;
  std::int64_t server_decisions = 0;
  std::int64_t server_reports = 0;
  std::int64_t server_busy = 0;
  std::int64_t server_protocol_errors = 0;
};
void check_serve(const ServeOutcome& o, Problems& p);

/// Operations of a serve run that did not complete as they should.
[[nodiscard]] std::int64_t serve_failed(const ServeOutcome& o);

}  // namespace viabench
