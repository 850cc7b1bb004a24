// serve: one generator thread drives an in-process ControllerServer set up
// the way via_controller sets itself up on the host (epoll backend,
// clamp(nproc/2, 2, 8) reactor workers, 16 serving stripes, pre-warm on,
// nproc solve threads).  The load is open-loop: a seeded Poisson schedule
// of calls over at most nproc connections.  Each call is a DecisionRequest
// followed by a Report carrying the controller's choice and a ground-truth
// sample; a Refresh goes out at every simulated period boundary on a
// connection of its own.  Latency runs from each request's scheduled send
// time to the moment its reply or ack is read, so a stall also delays the
// requests queued behind it.  The traced half of a traced run also sends
// Pings on a schedule of their own: their round trip crosses the same
// kernel, loopback and reactor as a decision but does no policy work.
#include <dirent.h>
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>

#include "rpc/conn_buffer.h"
#include "rpc/server.h"
#include "util/rng.h"
#include "workloads.h"

namespace viabench {

namespace {

/// Offered load, calls per second (each call is two requests).
constexpr double kCallsPerSecond = 20'000.0;
/// Days of the trace fed to the policy in-process before serving starts,
/// so the served model is warm and the timed calls start on day kWarmDays.
constexpr int kWarmDays = 3;
/// Simulated days of the trace; a Refresh goes out at each day boundary.
constexpr int kTraceDays = 60;
/// The trace holds the calls of this many seconds at the offered rate (or
/// of --seconds, when longer), after the warm-up days.
constexpr double kTraceSeconds = 30.0;
/// The traced half of a traced run sends Pings at one kPingEvery-th of the
/// call rate.
constexpr std::size_t kPingEvery = 16;
/// How far encode + Ping round trip + server + decode may be from the
/// decision p50 of a traced run, as a share of the p50 (README).
constexpr double kServeReconcileMargin = 0.25;
/// How long the generator waits for outstanding replies after the last send.
constexpr int kDrainTimeoutMs = 20'000;

int hardware_threads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// Forwards every RoutingPolicy entry point to ViaPolicy, keeping the
/// server on its shared-lock, batched and split-refresh paths.  While
/// timing is on it records the time spent in each call.
class ServedPolicy final : public via::RoutingPolicy {
 public:
  explicit ServedPolicy(via::ViaPolicy& inner) : inner_(inner) {}

  void set_timing(bool on) noexcept { timing_.store(on, std::memory_order_relaxed); }

  via::OptionId choose(const via::CallContext& call) override {
    if (!timing()) return inner_.choose(call);
    const auto t0 = Clock::now();
    const via::OptionId pick = inner_.choose(call);
    choose_ns.record(ns_between(t0, Clock::now()));
    batches.fetch_add(1, std::memory_order_relaxed);
    return pick;
  }
  void choose_batch(std::span<const via::CallContext> calls,
                    std::span<via::OptionId> out) override {
    if (!timing()) return inner_.choose_batch(calls, out);
    const auto t0 = Clock::now();
    inner_.choose_batch(calls, out);
    const double ns = ns_between(t0, Clock::now());
    const auto n = static_cast<std::int64_t>(calls.size());
    if (n > 0) choose_ns.record(ns / static_cast<double>(n), n);
    batches.fetch_add(1, std::memory_order_relaxed);
  }
  void observe(const via::Observation& obs) override {
    if (!timing()) return inner_.observe(obs);
    const auto t0 = Clock::now();
    inner_.observe(obs);
    observe_ns.record(ns_between(t0, Clock::now()));
  }
  void refresh(via::TimeSec now) override { inner_.refresh(now); }
  void prepare_refresh(via::TimeSec now) override {
    const auto t0 = Clock::now();
    inner_.prepare_refresh(now);
    const double ms = ns_between(t0, Clock::now()) / 1e6;
    if (timing()) {
      const std::lock_guard lock(mutex_);
      prepare_ms.push_back(ms);
    }
  }
  void commit_refresh(via::TimeSec now) override {
    const auto t0 = Clock::now();
    inner_.commit_refresh(now);
    const double us = ns_between(t0, Clock::now()) / 1e3;
    if (timing()) {
      const std::lock_guard lock(mutex_);
      commit_us.push_back(us);
    }
  }
  [[nodiscard]] std::vector<via::OptionId> choose_candidates(
      const via::CallContext& call) override {
    return inner_.choose_candidates(call);
  }
  [[nodiscard]] std::vector<via::ProbeRequest> plan_probes(std::size_t max_probes) override {
    return inner_.plan_probes(max_probes);
  }
  void attach_telemetry(via::obs::Telemetry* telemetry) override {
    inner_.attach_telemetry(telemetry);
  }
  [[nodiscard]] bool concurrent_safe() const noexcept override {
    return inner_.concurrent_safe();
  }
  [[nodiscard]] std::string_view name() const override { return inner_.name(); }

  [[nodiscard]] std::vector<double> prepare_samples() {
    const std::lock_guard lock(mutex_);
    return prepare_ms;
  }
  [[nodiscard]] std::vector<double> commit_samples() {
    const std::lock_guard lock(mutex_);
    return commit_us;
  }

  NsHistogram choose_ns;  ///< per decision (a batch's time split evenly)
  NsHistogram observe_ns;
  std::atomic<std::int64_t> batches{0};

 private:
  [[nodiscard]] bool timing() const noexcept { return timing_.load(std::memory_order_relaxed); }

  via::ViaPolicy& inner_;
  std::atomic<bool> timing_{false};
  std::mutex mutex_;
  std::vector<double> prepare_ms;  ///< guarded by mutex_
  std::vector<double> commit_us;   ///< guarded by mutex_
};

/// Ids of this process's threads.
std::vector<int> thread_ids() {
  std::vector<int> ids;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return ids;
  while (const dirent* e = ::readdir(dir)) {
    if (e->d_name[0] != '.') ids.push_back(std::atoi(e->d_name));
  }
  ::closedir(dir);
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// CPU seconds (user + system) one thread of this process has used so far;
/// 0 once it has ended.
double thread_cpu_seconds(int tid) {
  const std::string path = "/proc/self/task/" + std::to_string(tid) + "/stat";
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0.0;
  char buf[1024];
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  // Fields after the parenthesised name: state is field 3, utime 14, stime 15.
  const char* rest = std::strrchr(buf, ')');
  if (rest == nullptr) return 0.0;
  unsigned long long utime = 0, stime = 0;
  if (std::sscanf(rest + 1, " %*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu", &utime,
                  &stime) != 2) {
    return 0.0;
  }
  return static_cast<double>(utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double cpu_seconds(int who) {
  rusage u{};
  ::getrusage(who, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
}

/// One SCHED_IDLE busy-wait thread per CPU the process may use (at most
/// nproc - 1, so that with the generator the benchmark's threads stay within
/// nproc), for as long as the object lives.  They run only when a CPU has
/// nothing else to do and keep its vCPU from halting, so a reply waits for
/// a context switch rather than for the hypervisor to wake a halted vCPU;
/// that wake-up swings the decision p90 by 2x from run to run.
class IdleSpinners {
 public:
  IdleSpinners() {
    cpu_set_t set;
    CPU_ZERO(&set);
    const int allowed = ::sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
    const int n = std::min(allowed, hardware_threads() - 1);
    for (int i = 0; i < n; ++i) {
      threads_.emplace_back([this] {
        sched_param param{};
        (void)::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
        const double used = cpu_seconds(RUSAGE_THREAD);
        const std::lock_guard lock(mutex_);
        cpu_s_ += used;
      });
    }
  }
  ~IdleSpinners() { stop(); }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

  /// Ends the spinning; returns the CPU seconds the spinners used.
  double stop() {
    stop_.store(true);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
    const std::lock_guard lock(mutex_);
    return cpu_s_;
  }

 private:
  std::atomic<bool> stop_{false};
  std::mutex mutex_;
  double cpu_s_ = 0.0;  ///< guarded by mutex_
  std::vector<std::thread> threads_;
};

/// A controller, warm and listening, with the generator's connections open.
struct Controller {
  Scenario sc;
  std::unique_ptr<via::ViaPolicy> policy;
  std::unique_ptr<ServedPolicy> served;
  std::unique_ptr<via::ControllerServer> server;
  std::vector<via::TcpConnection> conns;
  std::size_t first_call = 0;  ///< first arrival on day kWarmDays
  std::vector<int> server_threads;  ///< threads the server started

  Controller() = default;
  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;
  /// Stops the server before the policy it hosts is destroyed.
  ~Controller() { shutdown(); }

  void shutdown() {
    conns.clear();
    if (server != nullptr) server->stop();
    server.reset();
  }
};

std::unique_ptr<Controller> start_controller(std::uint64_t seed, bool traced,
                                             double calls_per_s, double seconds) {
  auto owned = std::make_unique<Controller>();
  Controller& c = *owned;
  const double served_calls = calls_per_s * std::max(kTraceSeconds, seconds);
  c.sc = build_scenario(
      seed, kTraceDays,
      static_cast<std::int64_t>(served_calls * kTraceDays / (kTraceDays - kWarmDays) * 1.02));
  const int threads = hardware_threads();
  via::ViaConfig config;
  config.target = via::Metric::Rtt;
  config.serving_stripes = 16;
  config.prewarm_pairs = true;
  config.predictor.tomography.solve_threads = threads;
  c.policy =
      std::make_unique<via::ViaPolicy>(c.sc.gt->option_table(), c.sc.backbone(), config);

  // Warm the model in-process on the first kWarmDays days of the trace.
  via::GroundTruth& gt = *c.sc.gt;
  via::TimeSec next_refresh = config.refresh_period;
  std::size_t i = 0;
  for (; i < c.sc.arrivals.size() && c.sc.arrivals[i].day() < kWarmDays; ++i) {
    const via::CallArrival& a = c.sc.arrivals[i];
    while (a.time >= next_refresh) {
      c.policy->refresh(next_refresh);
      next_refresh += config.refresh_period;
    }
    via::CallContext ctx;
    ctx.id = a.id;
    ctx.time = a.time;
    ctx.src_as = ctx.key_src = a.src_as;
    ctx.dst_as = ctx.key_dst = a.dst_as;
    ctx.options = gt.candidate_options(a.src_as, a.dst_as);
    via::Observation obs;
    obs.id = a.id;
    obs.time = a.time;
    obs.src_as = a.src_as;
    obs.dst_as = a.dst_as;
    obs.option = c.policy->choose(ctx);
    obs.ingress = gt.transit_ingress(a.src_as, obs.option);
    obs.perf = gt.sample_call(a.id, a.src_as, a.dst_as, obs.option, a.time);
    c.policy->observe(obs);
  }
  c.first_call = i;

  via::ServerConfig server_config;
  server_config.backend = via::ServingBackend::kEpoll;
  server_config.reactor_threads = std::clamp(threads / 2, 2, 8);
  via::RoutingPolicy* hosted = c.policy.get();
  if (traced) {
    c.served = std::make_unique<ServedPolicy>(*c.policy);
    hosted = c.served.get();
  }
  const std::vector<int> before = thread_ids();
  c.server = std::make_unique<via::ControllerServer>(*hosted, 0, server_config);
  c.server->start();
  for (const int tid : thread_ids()) {
    if (!std::binary_search(before.begin(), before.end(), tid)) c.server_threads.push_back(tid);
  }
  for (int k = 0; k < threads; ++k) {
    c.conns.push_back(via::TcpConnection::connect_local(c.server->port()));
    const int fd = c.conns.back().fd();
    if (::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK) != 0) {
      throw std::system_error(errno, std::generic_category(), "fcntl");
    }
  }
  return owned;
}

struct Expect {
  via::MsgType reply;
  std::size_t call;  ///< index into the schedule (the call before, for a Ping)
  Clock::time_point due;
};

struct GenConn {
  int fd = -1;
  via::ReadBuffer in;
  via::WriteBuffer out;
  std::deque<Expect> expect;
  bool want_out = false;
};

/// Measurements of one phase of the schedule (all calls of an untraced
/// run; each half of a traced run).
struct Phase {
  std::vector<double> decide_us, report_us, late_us, ping_us;
  /// The one-second window (by due time, from first_due) of each sample.
  std::vector<std::uint32_t> decide_window, report_window;
  NsHistogram encode_ns, decode_ns, sample_ns;
  Clock::time_point first_due, last_ack;
  std::int64_t calls_acked = 0;
};

std::uint32_t window_of(const Phase& ph, Clock::time_point due) {
  return static_cast<std::uint32_t>(std::max(0.0, seconds_between(ph.first_due, due)));
}

class Generator {
 public:
  Generator(Controller& c, std::uint64_t seed, double calls_per_s, std::size_t calls,
            std::size_t traced_from)
      : c_(c), gt_(*c.sc.gt), traced_from_(traced_from) {
    // Poisson schedule: exponential gaps at the offered rate.
    via::Rng rng(via::hash_mix(seed, 0x5c4e));
    double t = 0.0;
    due_s_.reserve(calls);
    for (std::size_t k = 0; k < calls; ++k) {
      t += -std::log(1.0 - rng.uniform()) / calls_per_s;
      due_s_.push_back(t);
    }
    // Pings of the traced half: a Poisson schedule of their own at one
    // kPingEvery-th of the call rate.  Being independent of the calls' sends,
    // each meets the queues as a call would; a Ping placed just after a call
    // would meet that call's own request in the server.
    if (traced_from < calls) {
      via::Rng ping_rng(via::hash_mix(seed, 0x9195));
      const double ping_rate = calls_per_s / static_cast<double>(kPingEvery);
      for (double p = due_s_[traced_from];;) {
        p += -std::log(1.0 - ping_rng.uniform()) / ping_rate;
        if (p >= due_s_.back()) break;
        ping_s_.push_back(p);
        ping_call_.push_back(static_cast<std::size_t>(
            std::upper_bound(due_s_.begin(), due_s_.end(), p) - due_s_.begin() - 1));
      }
    }
    conns_.resize(c.conns.size());
    for (std::size_t i = 0; i < conns_.size(); ++i) conns_[i].fd = c.conns[i].fd();
    call_conns_ = conns_.size() > 1 ? conns_.size() - 1 : 1;
    next_refresh_ = (c.sc.arrivals[c.first_call].day()) * via::kSecondsPerDay;
  }

  /// Runs the whole schedule and waits for every reply.  Calls before
  /// `traced_from` land in `first`, the rest in `second`.
  void run(ServeOutcome& outcome, Phase& first, Phase& second);

  [[nodiscard]] const Problems& problems() const noexcept { return problems_; }
  /// Refresh round trips, send to ack.
  std::vector<double> refresh_ms;
  /// The server's registry when the traced half began.
  via::obs::MetricsSnapshot at_switch;
  /// Requests sent and not yet answered: the most at any send, and the
  /// count when the last call was sent.
  std::int64_t max_outstanding = 0;
  std::int64_t outstanding_at_end = 0;

 private:
  void send_call(std::size_t k, Clock::time_point due, Phase& ph);
  void send_ping(std::size_t i, Clock::time_point due);
  void handle(GenConn& conn, const via::Frame& frame, Clock::time_point now);
  void flush(GenConn& conn);
  [[nodiscard]] Phase& phase_of(std::size_t k) { return k < traced_from_ ? *first_ : *second_; }
  [[nodiscard]] bool traced(std::size_t k) const noexcept { return k >= traced_from_; }

  Controller& c_;
  via::GroundTruth& gt_;
  std::size_t traced_from_;
  std::vector<double> due_s_;
  std::vector<double> ping_s_;         ///< due times of the traced half's Pings
  std::vector<std::size_t> ping_call_; ///< the last call due before each Ping
  std::vector<GenConn> conns_;
  std::size_t call_conns_ = 1;
  via::TimeSec next_refresh_ = 0;
  int epoll_fd_ = -1;
  ServeOutcome* outcome_ = nullptr;
  Phase* first_ = nullptr;
  Phase* second_ = nullptr;
  Problems problems_;
};

void Generator::flush(GenConn& conn) {
  const bool drained = conn.out.flush(conn.fd);
  if (drained != !conn.want_out) {
    conn.want_out = !drained;
    epoll_event ev{};
    ev.events = EPOLLIN | (conn.want_out ? EPOLLOUT : 0u);
    ev.data.u64 = static_cast<std::uint64_t>(&conn - conns_.data());
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  }
}

void Generator::send_call(std::size_t k, Clock::time_point due, Phase& ph) {
  const via::CallArrival& a = c_.sc.arrivals[c_.first_call + k];
  if (a.time >= next_refresh_) {
    // A simulated period closed: ask for the refresh before this call.
    while (a.time >= next_refresh_) next_refresh_ += via::kSecondsPerDay;
    GenConn& rc = conns_.back();
    via::WireWriter w;
    via::RefreshMsg{next_refresh_ - via::kSecondsPerDay}.encode(w);
    rc.out.frame(static_cast<std::uint8_t>(via::MsgType::Refresh), w.bytes());
    rc.expect.push_back({via::MsgType::RefreshAck, k, due});
    ++outcome_->refreshes_sent;
    flush(rc);
  }
  GenConn& conn = conns_[k % call_conns_];
  const auto options = gt_.candidate_options(a.src_as, a.dst_as);
  const auto t0 = Clock::now();
  via::DecisionRequest req;
  req.call_id = a.id;
  req.time = a.time;
  req.src_as = a.src_as;
  req.dst_as = a.dst_as;
  req.options.assign(options.begin(), options.end());
  via::WireWriter w;
  req.encode(w);
  conn.out.frame(static_cast<std::uint8_t>(via::MsgType::DecisionRequest), w.bytes());
  const auto t1 = Clock::now();
  if (traced(k)) ph.encode_ns.record(ns_between(t0, t1));
  conn.expect.push_back({via::MsgType::DecisionResponse, k, due});
  ++outcome_->decisions_sent;
  ph.late_us.push_back(ns_between(due, t1) / 1e3);
  flush(conn);
}

void Generator::send_ping(std::size_t i, Clock::time_point due) {
  const std::size_t k = ping_call_[i];
  GenConn& conn = conns_[(k + 1) % call_conns_];  // where the next call goes
  conn.out.frame(static_cast<std::uint8_t>(via::MsgType::Ping), {});
  conn.expect.push_back({via::MsgType::Pong, k, due});
  ++outcome_->pings_sent;
  flush(conn);
}

void Generator::handle(GenConn& conn, const via::Frame& frame, Clock::time_point now) {
  const auto type = static_cast<via::MsgType>(frame.type);
  if (type == via::MsgType::Busy || type == via::MsgType::Error) {
    // The oldest request on the connection was refused instead of served.
    ++(type == via::MsgType::Busy ? outcome_->busy_frames : outcome_->error_frames);
    if (!conn.expect.empty()) conn.expect.pop_front();
    return;
  }
  if (conn.expect.empty() || conn.expect.front().reply != type) {
    problems_.add("reply of type " + std::to_string(frame.type) + " out of order");
    return;
  }
  const Expect e = conn.expect.front();
  conn.expect.pop_front();
  Phase& ph = phase_of(e.call);
  switch (type) {
    case via::MsgType::DecisionResponse: {
      ++outcome_->replies_received;
      ph.decide_us.push_back(ns_between(e.due, now) / 1e3);
      ph.decide_window.push_back(window_of(ph, e.due));
      const auto t0 = Clock::now();
      via::WireReader r(frame.payload);
      const via::DecisionResponse resp = via::DecisionResponse::decode(r);
      if (traced(e.call)) ph.decode_ns.record(ns_between(t0, Clock::now()));
      const via::CallArrival& a = c_.sc.arrivals[c_.first_call + e.call];
      if (!check_reply({a.id, gt_.candidate_options(a.src_as, a.dst_as)}, resp, problems_)) {
        ++outcome_->bad_replies;
      }
      // The call is placed on the chosen option and reports what it saw.
      const auto t1 = Clock::now();
      via::ReportMsg report;
      report.obs.id = a.id;
      report.obs.time = a.time;
      report.obs.src_as = a.src_as;
      report.obs.dst_as = a.dst_as;
      report.obs.option = resp.option;
      report.obs.ingress = gt_.transit_ingress(a.src_as, resp.option);
      report.obs.perf = gt_.sample_call(a.id, a.src_as, a.dst_as, resp.option, a.time);
      const auto t2 = Clock::now();
      if (traced(e.call)) ph.sample_ns.record(ns_between(t1, t2));
      via::WireWriter w;
      report.encode(w);
      conn.out.frame(static_cast<std::uint8_t>(via::MsgType::Report), w.bytes());
      conn.expect.push_back({via::MsgType::ReportAck, e.call, t2});
      ++outcome_->reports_sent;
      break;
    }
    case via::MsgType::ReportAck:
      ++outcome_->acks_received;
      ph.report_us.push_back(ns_between(e.due, now) / 1e3);
      ph.report_window.push_back(window_of(ph, e.due));
      ++ph.calls_acked;
      ph.last_ack = now;
      break;
    case via::MsgType::RefreshAck:
      ++outcome_->refresh_acks;
      refresh_ms.push_back(ns_between(e.due, now) / 1e6);
      break;
    case via::MsgType::Pong:
      ++outcome_->pongs_received;
      ph.ping_us.push_back(ns_between(e.due, now) / 1e3);
      break;
    default:
      problems_.add("unexpected reply type " + std::to_string(frame.type));
  }
}

void Generator::run(ServeOutcome& outcome, Phase& first, Phase& second) {
  outcome_ = &outcome;
  first_ = &first;
  second_ = &second;
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw std::system_error(errno, std::generic_category(), "epoll_create1");
  const via::FdHandle epoll_guard(epoll_fd_);
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conns_[i].fd, &ev);
  }

  const auto start = Clock::now() + std::chrono::milliseconds(2);
  const auto due_at = [&](std::size_t k) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due_s_[k]));
  };
  first.first_due = due_at(0);
  if (traced_from_ < due_s_.size()) second.first_due = due_at(traced_from_);
  const auto outstanding = [&] {
    return outcome.decisions_sent - outcome.replies_received + outcome.reports_sent -
           outcome.acks_received + outcome.refreshes_sent - outcome.refresh_acks +
           outcome.pings_sent - outcome.pongs_received - outcome.busy_frames -
           outcome.error_frames;
  };
  const auto ping_due_at = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(ping_s_[i]));
  };
  const std::size_t total = due_s_.size();
  std::size_t next = 0;
  std::size_t next_ping = 0;
  Clock::time_point drain_deadline{};
  epoll_event events[32];
  // The generator polls without sleeping, so neither its sends nor its
  // reads wait for the thread to be woken up.
  for (;;) {
    auto now = Clock::now();
    for (;;) {
      // A Ping is due between its call and the next one, so it goes first
      // when both are due.
      if (next_ping < ping_s_.size() && ping_call_[next_ping] < next &&
          ping_due_at(next_ping) <= now) {
        send_ping(next_ping, ping_due_at(next_ping));
        ++next_ping;
      } else if (next < total && due_at(next) <= now) {
        if (next == traced_from_) {
          at_switch = c_.server->telemetry().registry.snapshot();
          c_.served->set_timing(true);
        }
        send_call(next, due_at(next), phase_of(next));
        max_outstanding = std::max(max_outstanding, outstanding());
        ++next;
      } else {
        break;
      }
      now = Clock::now();
    }
    if (next == total) {
      if (outstanding() <= 0) break;
      if (drain_deadline == Clock::time_point{}) {
        outstanding_at_end = outstanding();
        drain_deadline = now + std::chrono::milliseconds(kDrainTimeoutMs);
      }
      if (now >= drain_deadline) break;
    }
    const int n = ::epoll_wait(epoll_fd_, events, 32, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::system_error(errno, std::generic_category(), "epoll_wait");
    }
    for (int i = 0; i < n; ++i) {
      GenConn& conn = conns_[events[i].data.u64];
      if ((events[i].events & EPOLLOUT) != 0) flush(conn);
      if ((events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) == 0) continue;
      for (;;) {
        const auto buf = conn.in.writable(64 * 1024);
        const ssize_t got = ::recv(conn.fd, buf.data(), buf.size(), 0);
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (got < 0 && errno == EINTR) continue;
        if (got <= 0) throw std::runtime_error("the controller closed a connection");
        const auto read_at = Clock::now();
        conn.in.commit(static_cast<std::size_t>(got));
        via::Frame frame;
        while (conn.in.next_frame(frame)) handle(conn, frame, read_at);
        if (static_cast<std::size_t>(got) < buf.size()) break;
      }
      flush(conn);  // the reports of every reply this read delivered
    }
  }
}

void add_reference_figures(const char* label, const Phase& ph, double server_cpu_us) {
  std::printf("reference %s: decide p99 %.1f us, p99.9 %.1f us (%zu samples); report p99 %.1f us; "
              "generator late p90 %.1f us, p99 %.1f us; server CPU %.2f us per call\n",
              label, quantile(ph.decide_us, 0.99), quantile(ph.decide_us, 0.999),
              ph.decide_us.size(), quantile(ph.report_us, 0.99), quantile(ph.late_us, 0.9),
              quantile(ph.late_us, 0.99), server_cpu_us);
}

/// Interpolated quantile of a bucketed server histogram, with the bucket
/// counts taken as the difference of two snapshots.
double histogram_quantile(const via::obs::HistogramSample* before,
                          const via::obs::HistogramSample* after, double q) {
  if (after == nullptr) return 0.0;
  std::vector<std::int64_t> counts = after->counts;
  if (before != nullptr && before->counts.size() == counts.size()) {
    for (std::size_t i = 0; i < counts.size(); ++i) counts[i] -= before->counts[i];
  }
  std::int64_t n = 0;
  for (const std::int64_t c : counts) n += c;
  if (n <= 0) return 0.0;
  const double rank = q * static_cast<double>(n);
  double seen = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const auto c = static_cast<double>(counts[i]);
    if (c > 0.0 && seen + c >= rank) {
      const double lo = i == 0 ? 0.0 : after->upper_bounds[i - 1];
      const double hi = i < after->upper_bounds.size() ? after->upper_bounds[i] : lo;
      return lo + (hi - lo) * (rank - seen) / c;
    }
    seen += c;
  }
  return after->upper_bounds.back();
}

double histogram_mean(const via::obs::HistogramSample* before,
                      const via::obs::HistogramSample* after) {
  if (after == nullptr) return 0.0;
  const double sum = after->sum - (before != nullptr ? before->sum : 0.0);
  const std::int64_t n = after->count - (before != nullptr ? before->count : 0);
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace

void run_serve(const Args& args, Result& out, Layers& layers) {
  const double rate = args.rate > 0.0 ? args.rate : kCallsPerSecond;
  const int workers = std::clamp(hardware_threads() / 2, 2, 8);
  std::vector<double> setup_s, netsim_s, trace_s;
  std::unique_ptr<Controller> owned;
  for (int i = 0; i < kSetups; ++i) {
    owned.reset();  // stop the previous controller first, so peak RSS counts one
    const auto t0 = Clock::now();
    owned = start_controller(args.seed, args.trace, rate, args.seconds);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    netsim_s.push_back(owned->sc.netsim_s);
    trace_s.push_back(owned->sc.trace_s);
  }
  Controller& c = *owned;
  const std::size_t available = c.sc.arrivals.size() - c.first_call;
  const auto calls = std::min(available, static_cast<std::size_t>(rate * args.seconds));
  const std::size_t traced_from = args.trace ? calls / 2 : calls;
  std::printf("serve: %zu calls at %.0f calls/s from day %d, %zu connections, %d reactor "
              "workers, seed %llu\n",
              calls, rate, kWarmDays, c.conns.size(), workers,
              static_cast<unsigned long long>(args.seed));

  Generator gen(c, args.seed, rate, calls, traced_from);
  ServeOutcome outcome;
  Phase first, second;
  std::vector<double> thread_cpu0;
  for (const int tid : c.server_threads) thread_cpu0.push_back(thread_cpu_seconds(tid));
  const auto wall0 = Clock::now();
  const double cpu0 = cpu_seconds(RUSAGE_SELF);
  const double gen_cpu0 = cpu_seconds(RUSAGE_THREAD);
  IdleSpinners keep_cpus_awake;
  gen.run(outcome, first, second);
  const double gen_cpu_s = cpu_seconds(RUSAGE_THREAD) - gen_cpu0;
  const double spin_cpu_s = keep_cpus_awake.stop();
  const double server_cpu_s = cpu_seconds(RUSAGE_SELF) - cpu0 - gen_cpu_s - spin_cpu_s;
  const double wall_s = seconds_between(wall0, Clock::now());
  const via::obs::MetricsSnapshot after = c.server->telemetry().registry.snapshot();

  // Load: the busy share of each server thread over the run; the reactor
  // workers are the `workers` busiest (the others accept connections and
  // build refreshes).  A backlog shows as outstanding requests that keep
  // growing instead of staying near the connection count.
  std::vector<double> busy;
  for (std::size_t i = 0; i < c.server_threads.size(); ++i) {
    busy.push_back((thread_cpu_seconds(c.server_threads[i]) - thread_cpu0[i]) / wall_s);
  }
  std::sort(busy.begin(), busy.end(), std::greater<>());
  std::string shares;
  double worker_busy = 0.0;
  for (std::size_t i = 0; i < busy.size(); ++i) {
    if (i < static_cast<std::size_t>(workers)) worker_busy += busy[i] / workers;
    char share[32];
    std::snprintf(share, sizeof(share), "%s%.1f", shares.empty() ? "" : " ", busy[i] * 100.0);
    shares += share;
  }
  std::printf("load serve: %.0f calls/s offered, reactor workers %.1f%% busy (server threads, "
              "%%: %s); generator %.1f%% busy; outstanding requests at most %lld, %lld when "
              "the last call was sent\n",
              rate, worker_busy * 100.0, shares.c_str(), gen_cpu_s / wall_s * 100.0,
              static_cast<long long>(gen.max_outstanding),
              static_cast<long long>(gen.outstanding_at_end));

  outcome.server_decisions = c.server->decisions_served();
  outcome.server_reports = c.server->reports_received();
  outcome.server_busy = c.server->busy_rejections();
  outcome.server_protocol_errors = c.server->protocol_errors();
  Problems& p = out.problems;
  for (const std::string& problem : gen.problems().list()) p.add(problem);
  check_serve(outcome, p);
  out.attempted = outcome.decisions_sent + outcome.reports_sent + outcome.refreshes_sent +
                  outcome.pings_sent;
  out.failed = serve_failed(outcome);
  const double per_call_cpu_us = server_cpu_s * 1e6 / static_cast<double>(calls);

  if (!args.trace) {
    const double span_s = seconds_between(first.first_due, first.last_ack);
    add_reference_figures("serve", first, per_call_cpu_us);
    out.metric("setup_s", median(setup_s), "s");
    out.metric("calls_per_s", static_cast<double>(first.calls_acked) / span_s, "1/s");
    out.metric("model_refresh_ms", median(gen.refresh_ms), "ms");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("decide_p50_us", windowed_quantile(first.decide_us, first.decide_window, 0.5),
               "us");
    out.metric("decide_p90_us", windowed_quantile(first.decide_us, first.decide_window, 0.9),
               "us");
    out.metric("report_p50_us", windowed_quantile(first.report_us, first.report_window, 0.5),
               "us");
    std::printf("serve: %zu refreshes acked\n", gen.refresh_ms.size());
    return;
  }

  // Server-side figures are deltas over the traced half.
  const via::obs::MetricsSnapshot& before = gen.at_switch;
  ServedPolicy& sp = *c.served;
  const double decide_p50 = quantile(second.decide_us, 0.5);
  const double encode_us = second.encode_ns.mean() / 1e3;
  const double decode_us = second.decode_ns.mean() / 1e3;
  const double server_us =
      histogram_quantile(before.find_histogram("rpc.server.request_us"),
                         after.find_histogram("rpc.server.request_us"), 0.5);
  const double wire_us = decide_p50 - encode_us - decode_us - server_us;
  const double bytes =
      static_cast<double>(after.counter_value("rpc.server.bytes_in") -
                          before.counter_value("rpc.server.bytes_in") +
                          after.counter_value("rpc.server.bytes_out") -
                          before.counter_value("rpc.server.bytes_out"));
  layers["trace.generate_s"] = median(trace_s);
  via::SpanStream walk(c.sc.arrivals);
  layers["trace.next_ns"] = arrival_next_ns(walk);
  layers["netsim.build_s"] = median(netsim_s);
  layers["netsim.sample_call_ns"] = second.sample_ns.mean();
  layers["core.choose_ns"] = sp.choose_ns.mean();
  layers["core.choose_p90_ns"] = sp.choose_ns.quantile(0.9);
  layers["core.observe_ns"] = sp.observe_ns.mean();
  layers["core.refresh_prepare_ms"] = median(sp.prepare_samples());
  layers["core.refresh_commit_us"] = median(sp.commit_samples());
  layers["core.batch_calls_mean"] =
      static_cast<double>(sp.choose_ns.count()) /
      static_cast<double>(std::max<std::int64_t>(1, sp.batches.load()));
  policy_layers(c.policy->stats(), c.policy->memory_stats(), layers);
  layers["rpc.client_encode_ns"] = second.encode_ns.mean();
  layers["rpc.client_decode_ns"] = second.decode_ns.mean();
  layers["rpc.server_request_us"] = server_us;
  layers["rpc.wire_us"] = wire_us;
  layers["rpc.refresh_stall_us"] =
      histogram_mean(before.find_histogram("rpc.server.refresh_stall_us"),
                     after.find_histogram("rpc.server.refresh_stall_us"));
  layers["rpc.bytes_per_call"] = bytes / static_cast<double>(second.calls_acked);
  layers["obs.trace_overhead_pct"] =
      100.0 * (decide_p50 / quantile(first.decide_us, 0.5) - 1.0);
  layers["gen.late_p90_us"] = quantile(second.late_us, 0.9);

  // Reconciliation: wire as the Pings measured it, independently of the
  // decisions, plus the measured parts must make up the decision p50.
  const double ping_us = quantile(second.ping_us, 0.5);
  const double parts_us = encode_us + ping_us + server_us + decode_us;
  std::printf("reconcile serve: encode %.3f + wire (ping p50) %.3f + server %.3f + decode %.3f "
              "= %.3f us, decide p50 %.3f us (%+.1f%%); wire as the residual %.3f us\n",
              encode_us, ping_us, server_us, decode_us, parts_us, decide_p50,
              100.0 * (parts_us / decide_p50 - 1.0), wire_us);
  check_adds_up("serve reconciliation", parts_us, decide_p50, kServeReconcileMargin, p);
  std::printf("trace overhead serve: %.2f%% (decide p50 untraced %.2f us, traced %.2f us)\n",
              layers["obs.trace_overhead_pct"], quantile(first.decide_us, 0.5), decide_p50);
  add_reference_figures("serve traced", second, per_call_cpu_us);
}

}  // namespace viabench
