#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>

#include "bench.h"

namespace viabench {

namespace {

template <typename... Parts>
std::string cat(const Parts&... parts) {
  std::ostringstream out;
  out.precision(10);
  (out << ... << parts);
  return out.str();
}

}  // namespace

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (rank - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

double median(std::vector<double> samples) { return quantile(std::move(samples), 0.5); }

double mean(std::span<const double> samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double windowed_quantile(const std::vector<double>& samples,
                         const std::vector<std::uint32_t>& windows, double q) {
  std::vector<std::vector<double>> by_window;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (windows[i] >= by_window.size()) by_window.resize(windows[i] + 1);
    by_window[windows[i]].push_back(samples[i]);
  }
  std::vector<double> per_window;
  for (std::vector<double>& w : by_window) {
    if (!w.empty()) per_window.push_back(quantile(std::move(w), q));
  }
  return median(std::move(per_window));
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + std::strlen("VmHWM:"), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

NsHistogram::NsHistogram() : buckets_(kBuckets + 1) {}

void NsHistogram::record(double ns, std::int64_t weight) noexcept {
  const double slot = std::max(ns, 0.0) / kBucketNs;
  const std::size_t i = slot >= static_cast<double>(kBuckets) ? kBuckets
                                                              : static_cast<std::size_t>(slot);
  buckets_[i].fetch_add(weight, std::memory_order_relaxed);
  count_.fetch_add(weight, std::memory_order_relaxed);
  sum_.fetch_add(ns * static_cast<double>(weight), std::memory_order_relaxed);
}

double NsHistogram::mean() const noexcept {
  const std::int64_t n = count();
  return n > 0 ? sum() / static_cast<double>(n) : 0.0;
}

double NsHistogram::quantile(double q) const noexcept {
  const std::int64_t n = count();
  if (n <= 0) return 0.0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(n);
  double seen = 0.0;
  for (std::size_t i = 0; i <= kBuckets; ++i) {
    const auto c = static_cast<double>(buckets_[i].load(std::memory_order_relaxed));
    if (c > 0.0 && seen + c >= rank) {
      if (i == kBuckets) return static_cast<double>(kBuckets) * kBucketNs;
      return (static_cast<double>(i) + (rank - seen) / c) * kBucketNs;
    }
    seen += c;
  }
  return static_cast<double>(kBuckets) * kBucketNs;
}

// ------------------------------------------------------------ checks

void check_pnr_order(double oracle, double via_pnr, double default_pnr, Problems& p) {
  if (!(oracle <= via_pnr)) p.add(cat("oracle RTT PNR ", oracle, " above Via's ", via_pnr));
  if (!(via_pnr < default_pnr)) {
    p.add(cat("Via RTT PNR ", via_pnr, " not below Default's ", default_pnr));
  }
}

void check_recomputed_pnr(std::int64_t poor, std::int64_t routed, const via::RunResult& run,
                          Problems& p) {
  if (routed != run.evaluated_calls) {
    p.add(cat("observed ", routed, " policy-routed calls, engine evaluated ",
              run.evaluated_calls));
    return;
  }
  const double recomputed =
      routed > 0 ? static_cast<double>(poor) / static_cast<double>(routed) : 0.0;
  if (std::abs(recomputed - run.pnr.pnr(via::Metric::Rtt)) > 1e-12) {
    p.add(cat("recomputed RTT PNR ", recomputed, " != engine's ",
              run.pnr.pnr(via::Metric::Rtt)));
  }
}

void check_stats(const via::ViaPolicy::Stats& s, std::int64_t calls, Problems& p) {
  if (s.calls != calls) p.add(cat("policy counted ", s.calls, " calls, ", calls, " replayed"));
  const std::int64_t by_reason = s.epsilon_explored + s.bandit_served + s.cold_start_direct +
                                 s.budget_denied + s.relay_cap_denied + s.quarantine_rerouted +
                                 s.outage_fallback_direct;
  if (by_reason != s.calls) p.add(cat("decision reasons sum to ", by_reason, " of ", s.calls));
  const std::int64_t by_kind = s.chose_direct + s.chose_bounce + s.chose_transit;
  if (by_kind != s.calls) p.add(cat("option kinds sum to ", by_kind, " of ", s.calls));
}

void check_replayed(std::int64_t routed, std::int64_t background, std::int64_t total,
                    Problems& p) {
  if (routed + background != total) {
    p.add(cat(routed, " routed + ", background, " background calls, trace has ", total));
  }
}

bool choice_in(std::span<const via::OptionId> options, via::OptionId choice) {
  return std::find(options.begin(), options.end(), choice) != options.end();
}

void check_choices(std::int64_t outside_candidates, Problems& p) {
  if (outside_candidates != 0) {
    p.add(cat(outside_candidates, " decisions outside their call's candidates"));
  }
}

bool check_same_replay(const via::RunResult& reference, const via::RunResult& run,
                       Problems& p) {
  bool same = reference.calls == run.calls && reference.evaluated_calls == run.evaluated_calls &&
              reference.used_direct == run.used_direct &&
              reference.used_bounce == run.used_bounce &&
              reference.used_transit == run.used_transit &&
              reference.pnr.pnr_any() == run.pnr.pnr_any();
  for (const via::Metric m : via::kAllMetrics) {
    same = same && reference.pnr.pnr(m) == run.pnr.pnr(m);
  }
  if (!same) {
    p.add(cat("repeated replay differs from the checked one (RTT PNR ",
              run.pnr.pnr(via::Metric::Rtt), " vs ", reference.pnr.pnr(via::Metric::Rtt), ")"));
  }
  return same;
}

void check_adds_up(const std::string& what, double parts, double whole, double margin,
                   Problems& p) {
  if (!(whole > 0.0 && std::fabs(parts - whole) <= margin * whole)) {
    p.add(cat(what, ": parts add up to ", parts, ", not within ", margin * 100.0, "% of ",
              whole));
  }
}

void check_stream(const StreamOutcome& o, Problems& p) {
  if (o.calls_replayed != o.calls_requested) {
    p.add(cat("stream replayed ", o.calls_replayed, " of ", o.calls_requested, " calls"));
  }
  check_choices(o.outside_candidates, p);
  if (o.max_resident_pairs_seen > o.resident_pairs_cap) {
    p.add(cat("resident pairs reached ", o.max_resident_pairs_seen, ", cap ",
              o.resident_pairs_cap));
  }
  if (o.max_window_paths_seen > o.window_paths_cap) {
    p.add(cat("window paths reached ", o.max_window_paths_seen, ", cap ", o.window_paths_cap));
  }
  if (!(o.calls_replayed > 0 && o.via_rtt_sum < o.direct_rtt_sum)) {
    p.add(cat("mean RTT under Via ", o.via_rtt_sum / std::max<double>(1.0, o.calls_replayed),
              " ms not below direct's ",
              o.direct_rtt_sum / std::max<double>(1.0, o.calls_replayed), " ms"));
  }
}

bool check_reply(const PendingDecision& sent, const via::DecisionResponse& reply, Problems& p) {
  if (reply.call_id != sent.call_id) {
    p.add(cat("reply for call ", reply.call_id, " where call ", sent.call_id, " was due"));
    return false;
  }
  if (!choice_in(sent.options, reply.option)) {
    p.add(cat("call ", sent.call_id, " answered with option ", reply.option,
              ", not one of its candidates"));
    return false;
  }
  return true;
}

std::int64_t serve_failed(const ServeOutcome& o) {
  return (o.decisions_sent - o.replies_received) + (o.reports_sent - o.acks_received) +
         (o.refreshes_sent - o.refresh_acks) + (o.pings_sent - o.pongs_received) +
         o.bad_replies + o.busy_frames + o.error_frames;
}

void check_serve(const ServeOutcome& o, Problems& p) {
  if (o.replies_received != o.decisions_sent) {
    p.add(cat(o.replies_received, " decision replies for ", o.decisions_sent, " requests"));
  }
  if (o.acks_received != o.reports_sent) {
    p.add(cat(o.acks_received, " report acks for ", o.reports_sent, " reports"));
  }
  if (o.refresh_acks != o.refreshes_sent) {
    p.add(cat(o.refresh_acks, " refresh acks for ", o.refreshes_sent, " refreshes"));
  }
  if (o.pongs_received != o.pings_sent) {
    p.add(cat(o.pongs_received, " pongs for ", o.pings_sent, " pings"));
  }
  if (o.server_decisions != o.decisions_sent) {
    p.add(cat("server served ", o.server_decisions, " decisions, ", o.decisions_sent, " sent"));
  }
  if (o.server_reports != o.reports_sent) {
    p.add(cat("server received ", o.server_reports, " reports, ", o.reports_sent, " sent"));
  }
  if (o.busy_frames != 0 || o.server_busy != 0) {
    p.add(cat(o.busy_frames, " Busy frames read, server shed ", o.server_busy));
  }
  if (o.error_frames != 0 || o.server_protocol_errors != 0) {
    p.add(cat(o.error_frames, " Error frames read, server counted ", o.server_protocol_errors,
              " protocol errors"));
  }
}

}  // namespace viabench
