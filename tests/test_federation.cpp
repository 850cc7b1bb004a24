// Federation tests (DESIGN.md §6k): the sharded multi-controller plane.
//   - ShardRing: determinism, virtual-node balance, and the consistent-
//     hashing minimal-disruption property (removing a replica only moves
//     the keys it owned),
//   - SegmentExchange + TomographySolver::fold_peer_segments: latest-per-
//     peer storage, deterministic merge order, evidence-weighted folding,
//     and the empty-fold no-op that keeps a single-replica ring
//     bit-identical to a standalone controller,
//   - pooled-vs-isolated convergence: shards that gossip segments predict
//     paths they never observed; isolated shards cannot,
//   - wire protocol: Ping/Pong/GossipSegments round trips, replica
//     identity stamps, and backward-compatible decoding of pre-federation
//     frames,
//   - chaos suites on an in-process fleet: kill 1 of 3 (re-homing, zero
//     lost observations, flight narrative in seq order), probation under
//     flap, full-controller outage with direct fallback and recovery, and
//     client reconnect-after-reset.
// This file runs under ASan+UBSan and TSan in CI (tools/ci.sh).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/relay_option.h"
#include "common/types.h"
#include "core/tomography.h"
#include "core/via_policy.h"
#include "fed/federation.h"
#include "fed/segment_exchange.h"
#include "fed/shard_ring.h"
#include "flight_dump.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "quality/pnr.h"
#include "rpc/client.h"
#include "rpc/errors.h"
#include "rpc/fed_client.h"
#include "rpc/fed_fleet.h"
#include "rpc/framing.h"
#include "rpc/messages.h"
#include "rpc/server.h"

VIA_REGISTER_FLIGHT_DUMP("test_federation");

namespace via {
namespace {

// ---------------------------------------------------------------- shard ring

TEST(ShardRing, DeterministicOwnersAndFullRoutes) {
  const fed::ShardRing a(3, 0x5eed, 64);
  const fed::ShardRing b(3, 0x5eed, 64);
  for (std::uint64_t k = 0; k < 500; ++k) {
    const std::uint64_t key = as_pair_key(static_cast<AsId>(k % 97), static_cast<AsId>(k / 7));
    EXPECT_EQ(a.owner(key), b.owner(key));
    const std::vector<std::uint32_t> route = a.route(key);
    ASSERT_EQ(route.size(), 3u);
    EXPECT_EQ(route.front(), a.owner(key));
    // All replicas appear exactly once: the full failover order.
    std::array<int, 3> seen{};
    for (const std::uint32_t r : route) ++seen[r];
    EXPECT_EQ(seen, (std::array<int, 3>{1, 1, 1}));
    EXPECT_EQ(route, b.route(key));
  }
  // A different seed shuffles ownership (the ring is seed-keyed config).
  const fed::ShardRing c(3, 0xfeed, 64);
  int moved = 0;
  for (std::uint64_t key = 0; key < 500; ++key) {
    if (a.owner(key) != c.owner(key)) ++moved;
  }
  EXPECT_GT(moved, 0);
}

TEST(ShardRing, VirtualNodesBalanceTheSplit) {
  const fed::ShardRing ring(3, 42, 128);
  const std::vector<std::uint64_t> split = ring.load_split(30'000);
  ASSERT_EQ(split.size(), 3u);
  std::uint64_t total = 0, lo = split[0], hi = split[0];
  for (const std::uint64_t n : split) {
    total += n;
    lo = std::min(lo, n);
    hi = std::max(hi, n);
  }
  EXPECT_EQ(total, 30'000u);
  // Virtual nodes keep the heaviest shard within 2x the lightest.
  EXPECT_GT(lo, 0u);
  EXPECT_LE(hi, 2 * lo);
}

TEST(ShardRing, RemovingAReplicaOnlyMovesItsKeys) {
  const fed::ShardRing three(3, 7, 64);
  const fed::ShardRing two(2, 7, 64);
  int moved = 0;
  for (std::uint64_t k = 0; k < 2'000; ++k) {
    const std::uint64_t key = k * 0x9E3779B97F4A7C15ULL + 3;
    const std::uint32_t before = three.owner(key);
    if (before != 2) {
      // Minimal disruption: keys the removed replica never owned stay put.
      EXPECT_EQ(two.owner(key), before) << "key " << key;
    } else {
      // Its keys land on exactly the failover successor the 3-ring names.
      EXPECT_EQ(two.owner(key), three.route(key)[1]) << "key " << key;
      ++moved;
    }
  }
  EXPECT_GT(moved, 0);  // the removed replica did own some keys
}

// ---------------------------------------------------------- segment exchange

[[nodiscard]] PeerSegment make_segment(std::uint64_t key, double lin_mean,
                                       std::int64_t evidence) {
  PeerSegment s;
  s.key = key;
  s.est.lin_mean.fill(lin_mean);
  s.est.lin_sem.fill(lin_mean / 10.0);
  s.est.evidence = evidence;
  return s;
}

TEST(SegmentExchange, LatestUpdatePerPeerAndOrderIndependentCollect) {
  const fed::SegmentUpdate from1{1, 1, {make_segment(20, 2.0, 4), make_segment(10, 1.0, 8)}};
  const fed::SegmentUpdate from2{2, 1, {make_segment(10, 1.5, 2)}};

  fed::SegmentExchange forward;
  EXPECT_EQ(forward.accept(from1), 2u);
  EXPECT_EQ(forward.accept(from2), 1u);
  fed::SegmentExchange reverse;
  EXPECT_EQ(reverse.accept(from2), 1u);
  EXPECT_EQ(reverse.accept(from1), 2u);

  const std::vector<PeerSegment> a = forward.collect();
  const std::vector<PeerSegment> b = reverse.collect();
  ASSERT_EQ(a.size(), 3u);
  // Deterministic merge order regardless of arrival order: (key, replica).
  EXPECT_EQ(a[0].key, 10u);
  EXPECT_DOUBLE_EQ(a[0].est.lin_mean[0], 1.0);  // replica 1's key-10 first
  EXPECT_EQ(a[1].key, 10u);
  EXPECT_DOUBLE_EQ(a[1].est.lin_mean[0], 1.5);  // then replica 2's
  EXPECT_EQ(a[2].key, 20u);
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(b[i].key, a[i].key);
    EXPECT_EQ(b[i].est.evidence, a[i].est.evidence);
  }

  // collect() is a view, not a drain; a newer update replaces its peer's.
  EXPECT_EQ(forward.segments_held(), 3u);
  EXPECT_EQ(forward.accept(fed::SegmentUpdate{1, 1, {make_segment(30, 3.0, 1)}}), 1u);
  EXPECT_EQ(forward.segments_held(), 2u);
  EXPECT_EQ(forward.peers(), 2u);
  EXPECT_EQ(forward.updates_accepted(), 3);
}

TEST(SegmentExchange, RenderOrdersByEvidenceAndTruncates) {
  RelayOptionTable options;
  (void)options.intern_bounce(0);
  TomographySolver solver(options, [](RelayId, RelayId) { return PathPerformance{}; });
  // Populate via the fold path (adopting unknown segments).
  ASSERT_EQ(solver.fold_peer_segments(
                {make_segment(5, 1.0, 5), make_segment(9, 2.0, 9), make_segment(1, 3.0, 1)}),
            3u);

  const std::vector<PeerSegment> top = fed::SegmentExchange::render(solver, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, 9u);  // highest evidence first
  EXPECT_EQ(top[1].key, 5u);
  const std::vector<PeerSegment> all = fed::SegmentExchange::render(solver, 100);
  EXPECT_EQ(all.size(), 3u);
}

// ----------------------------------------------------------------- fold math

TEST(TomographyFold, EvidenceWeightedMergeAdoptsAndMerges) {
  RelayOptionTable options;
  (void)options.intern_bounce(0);
  TomographySolver solver(options, [](RelayId, RelayId) { return PathPerformance{}; });

  // Empty fold is a strict no-op (the single-replica-ring guarantee).
  EXPECT_EQ(solver.fold_peer_segments({}), 0u);
  EXPECT_EQ(solver.segment_count(), 0u);

  const std::uint64_t key = TomographySolver::segment_key(1, 0);
  ASSERT_EQ(solver.fold_peer_segments({make_segment(key, 1.0, 10)}), 1u);
  const SegmentEstimate* est = solver.segment(1, 0);
  ASSERT_NE(est, nullptr);
  EXPECT_DOUBLE_EQ(est->lin_mean[0], 1.0);
  EXPECT_EQ(est->evidence, 10);

  // A second fold of the same segment merges by evidence-weighted mean:
  // (10*1.0 + 30*2.0) / 40 = 1.75, evidence pooled.
  ASSERT_EQ(solver.fold_peer_segments({make_segment(key, 2.0, 30)}), 1u);
  est = solver.segment(1, 0);
  ASSERT_NE(est, nullptr);
  for (std::size_t m = 0; m < kNumMetrics; ++m) {
    EXPECT_DOUBLE_EQ(est->lin_mean[m], 1.75);
  }
  EXPECT_EQ(est->evidence, 40);

  // Zero-evidence entries carry no information and are skipped.
  EXPECT_EQ(solver.fold_peer_segments({make_segment(77, 5.0, 0)}), 0u);
  EXPECT_EQ(solver.segment(0, 77 & 0xFFFF), nullptr);
}

// --------------------------------------------------- single-replica identity

/// The determinism acceptance criterion: a policy wired for federation but
/// with no peers (a single-replica ring) must make bit-identical choices
/// and build bit-identical segment estimates to a plain standalone policy.
TEST(FederationDeterminism, EmptyPeerSourceIsBitIdenticalToStandalone) {
  RelayOptionTable plain_options;
  RelayOptionTable fed_options;
  const OptionId bounce_p = plain_options.intern_bounce(0);
  const OptionId bounce_f = fed_options.intern_bounce(0);
  ASSERT_EQ(bounce_p, bounce_f);
  const auto backbone = [](RelayId, RelayId) { return PathPerformance{}; };
  ViaConfig cfg;
  cfg.epsilon = 0.2;  // exercise the seeded exploration path too
  cfg.seed = 13;
  ViaPolicy plain(plain_options, backbone, cfg);
  ViaPolicy federated(fed_options, backbone, cfg);
  fed::SegmentExchange exchange;  // never fed: every collect() is empty
  federated.set_peer_segment_source([&exchange] { return exchange.collect(); });

  const auto feed = [&](ViaPolicy& policy, OptionId bounce) {
    for (int i = 0; i < 12; ++i) {
      for (AsId s = 1; s <= 4; ++s) {
        Observation o;
        o.id = i * 10 + s;
        o.src_as = s;
        o.dst_as = static_cast<AsId>(s + 10);
        o.time = i;
        o.option = (i % 3 == 0) ? RelayOptionTable::direct_id() : bounce;
        o.perf = {120.0 + 5.0 * s + i, 0.4, 3.0 + 0.1 * i};
        policy.observe(o);
      }
    }
  };
  feed(plain, bounce_p);
  feed(federated, bounce_f);
  plain.refresh(kSecondsPerDay);
  federated.refresh(kSecondsPerDay);
  EXPECT_EQ(federated.peer_segments_folded(), 0);

  // Segment estimates must match bit-for-bit.
  std::vector<std::pair<std::uint64_t, SegmentEstimate>> seg_p, seg_f;
  plain.model()->predictor().tomography().for_each_segment(
      [&](std::uint64_t k, const SegmentEstimate& e) { seg_p.emplace_back(k, e); });
  federated.model()->predictor().tomography().for_each_segment(
      [&](std::uint64_t k, const SegmentEstimate& e) { seg_f.emplace_back(k, e); });
  ASSERT_EQ(seg_p.size(), seg_f.size());
  ASSERT_GT(seg_p.size(), 0u);
  for (std::size_t i = 0; i < seg_p.size(); ++i) {
    EXPECT_EQ(seg_p[i].first, seg_f[i].first);
    EXPECT_EQ(seg_p[i].second.evidence, seg_f[i].second.evidence);
    for (std::size_t m = 0; m < kNumMetrics; ++m) {
      EXPECT_EQ(seg_p[i].second.lin_mean[m], seg_f[i].second.lin_mean[m]);
      EXPECT_EQ(seg_p[i].second.lin_sem[m], seg_f[i].second.lin_sem[m]);
    }
  }

  // And the choice stream (including epsilon exploration) stays identical.
  const std::vector<OptionId> candidates = {RelayOptionTable::direct_id(), bounce_p};
  for (int i = 0; i < 200; ++i) {
    CallContext ctx;
    ctx.id = i;
    ctx.time = i;
    ctx.src_as = ctx.key_src = static_cast<AsId>(1 + i % 4);
    ctx.dst_as = ctx.key_dst = static_cast<AsId>(11 + i % 4);
    ctx.options = candidates;
    EXPECT_EQ(plain.choose(ctx), federated.choose(ctx)) << "call " << i;
  }
}

// ------------------------------------------------ pooled-vs-isolated shards

/// The convergence acceptance criterion: segments are shared across AS
/// pairs (§4.3), so shards that pool them can predict paths they never
/// carried a call on, while isolated shards cannot.
TEST(FederationConvergence, PooledShardsCoverPathsIsolatedShardsCannot) {
  RelayOptionTable options;
  const OptionId bounce = options.intern_bounce(0);
  const auto backbone = [](RelayId, RelayId) { return PathPerformance{}; };
  ViaConfig cfg;
  cfg.epsilon = 0.0;
  ViaPolicy pooled_a(options, backbone, cfg), isolated_a(options, backbone, cfg);
  ViaPolicy pooled_b(options, backbone, cfg), isolated_b(options, backbone, cfg);
  fed::SegmentExchange ex_a, ex_b;
  pooled_a.set_peer_segment_source([&ex_a] { return ex_a.collect(); });
  pooled_b.set_peer_segment_source([&ex_b] { return ex_b.collect(); });

  const std::vector<std::pair<AsId, AsId>> pairs_a = {{1, 2}, {3, 4}};
  const std::vector<std::pair<AsId, AsId>> pairs_b = {{11, 12}, {13, 14}};
  const auto feed = [&](ViaPolicy& policy, const std::vector<std::pair<AsId, AsId>>& pairs) {
    for (int i = 0; i < 6; ++i) {
      for (const auto& [s, d] : pairs) {
        Observation o;
        o.id = i * 100 + s;
        o.src_as = s;
        o.dst_as = d;
        o.time = i;
        o.option = bounce;
        o.perf = {110.0 + 2.0 * s + i, 0.4, 3.0};
        policy.observe(o);
      }
    }
  };

  // Round 1: each shard sees only its own pairs.
  for (auto* p : {&pooled_a, &isolated_a}) feed(*p, pairs_a);
  for (auto* p : {&pooled_b, &isolated_b}) feed(*p, pairs_b);
  for (auto* p : {&pooled_a, &isolated_a, &pooled_b, &isolated_b}) p->refresh(kSecondsPerDay);

  // One gossip exchange between the pooled shards.
  ex_a.accept(fed::SegmentUpdate{
      1, 1, fed::SegmentExchange::render(pooled_b.model()->predictor().tomography(), 1024)});
  ex_b.accept(fed::SegmentUpdate{
      0, 1, fed::SegmentExchange::render(pooled_a.model()->predictor().tomography(), 1024)});

  // Round 2: same traffic again; the pooled shards fold peer segments in.
  for (auto* p : {&pooled_a, &isolated_a}) feed(*p, pairs_a);
  for (auto* p : {&pooled_b, &isolated_b}) feed(*p, pairs_b);
  for (auto* p : {&pooled_a, &isolated_a, &pooled_b, &isolated_b}) {
    p->refresh(2 * kSecondsPerDay);
  }
  EXPECT_GT(pooled_a.peer_segments_folded(), 0);
  EXPECT_GT(pooled_b.peer_segments_folded(), 0);
  EXPECT_EQ(isolated_a.peer_segments_folded(), 0);

  const auto coverage = [&](ViaPolicy& policy) {
    int covered = 0;
    std::array<double, kNumMetrics> mean{}, sem{};
    const auto snapshot = policy.model();
    for (const auto& pairs : {pairs_a, pairs_b}) {
      for (const auto& [s, d] : pairs) {
        if (snapshot->predictor().tomography().predict_lin(s, d, bounce, mean, sem)) ++covered;
      }
    }
    return covered;
  };
  // Isolated shards only ever cover their own 2 pairs; pooled shards cover
  // all 4 — they converge on the full pair space with the same call count.
  EXPECT_EQ(coverage(isolated_a), 2);
  EXPECT_EQ(coverage(isolated_b), 2);
  EXPECT_EQ(coverage(pooled_a), 4);
  EXPECT_EQ(coverage(pooled_b), 4);
}

// ------------------------------------------------------------ wire protocol

TEST(FederationWire, PingPongAndGossipRoundTrip) {
  {
    PongMsg pong;
    pong.replica_id = 3;
    pong.ring_epoch = 9;
    WireWriter w;
    pong.encode(w);
    WireReader r(w.bytes());
    const PongMsg back = PongMsg::decode(r);
    EXPECT_EQ(back.replica_id, 3u);
    EXPECT_EQ(back.ring_epoch, 9u);
  }
  {
    GossipSegmentsMsg msg;
    msg.replica_id = 1;
    msg.ring_epoch = 2;
    msg.segments = {make_segment(42, 1.25, 6), make_segment(7, -0.5, 3)};
    WireWriter w;
    msg.encode(w);
    WireReader r(w.bytes());
    const GossipSegmentsMsg back = GossipSegmentsMsg::decode(r);
    EXPECT_EQ(back.replica_id, 1u);
    EXPECT_EQ(back.ring_epoch, 2u);
    ASSERT_EQ(back.segments.size(), 2u);
    EXPECT_EQ(back.segments[0].key, 42u);
    EXPECT_DOUBLE_EQ(back.segments[1].est.lin_mean[0], -0.5);
    EXPECT_EQ(back.segments[1].est.evidence, 3);
  }
  {
    GossipSegmentsAckMsg ack;
    ack.replica_id = 2;
    ack.ring_epoch = 4;
    ack.accepted = 17;
    WireWriter w;
    ack.encode(w);
    WireReader r(w.bytes());
    const GossipSegmentsAckMsg back = GossipSegmentsAckMsg::decode(r);
    EXPECT_EQ(back.replica_id, 2u);
    EXPECT_EQ(back.ring_epoch, 4u);
    EXPECT_EQ(back.accepted, 17u);
  }
}

TEST(FederationWire, OversizedGossipCountIsRejectedNotAllocated) {
  WireWriter w;
  w.u32(1);           // replica
  w.u64(1);           // epoch
  w.u32(1'000'000);   // claimed segment count with no payload behind it
  WireReader r(w.bytes());
  EXPECT_THROW((void)GossipSegmentsMsg::decode(r), ProtocolError);
}

TEST(FederationWire, ReplicaStampsAreBackwardCompatible) {
  {
    DecisionResponse resp;
    resp.call_id = 5;
    resp.option = 2;
    resp.replica_id = 3;
    resp.ring_epoch = 7;
    WireWriter w;
    resp.encode(w);
    WireReader r(w.bytes());
    const DecisionResponse back = DecisionResponse::decode(r);
    EXPECT_EQ(back.replica_id, 3u);
    EXPECT_EQ(back.ring_epoch, 7u);
  }
  {
    // A pre-federation frame ends after (call_id, option) and must decode
    // with the unfederated identity 0/0.
    WireWriter w;
    w.i64(5);
    w.i32(2);
    WireReader r(w.bytes());
    const DecisionResponse back = DecisionResponse::decode(r);
    EXPECT_EQ(back.call_id, 5);
    EXPECT_EQ(back.option, 2);
    EXPECT_EQ(back.replica_id, 0u);
    EXPECT_EQ(back.ring_epoch, 0u);
  }
}

// ------------------------------------------------------------ flight kinds

TEST(FederationFlight, ReplicaEventKindsRoundTripByNameAndJsonl) {
  using obs::FlightEventKind;
  for (const FlightEventKind kind :
       {FlightEventKind::ReplicaDown, FlightEventKind::ReplicaRehomed,
        FlightEventKind::ReplicaRecovered, FlightEventKind::RingEpochBump}) {
    const std::string_view name = obs::flight_event_kind_name(kind);
    ASSERT_FALSE(name.empty());
    const auto parsed = obs::flight_event_kind_from(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, kind);
  }
  obs::FlightEvent event;
  event.kind = obs::FlightEventKind::ReplicaRehomed;
  event.detail = "shard traffic re-homed to ring successor";
  event.a = 0;
  event.b = 1;
  const auto back = obs::FlightEvent::from_jsonl(event.to_jsonl());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->kind, obs::FlightEventKind::ReplicaRehomed);
  EXPECT_EQ(back->a, 0);
  EXPECT_EQ(back->b, 1);
}

// ----------------------------------------------------------- live RPC layer

/// Counts interactions; optionally stalls in choose() to hold requests
/// inflight (the shedding-exemption test).
class CountingPolicy final : public RoutingPolicy {
 public:
  explicit CountingPolicy(OptionId option = 1, int choose_delay_ms = 0)
      : option_(option), choose_delay_ms_(choose_delay_ms) {}
  [[nodiscard]] OptionId choose(const CallContext&) override {
    if (choose_delay_ms_ > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(choose_delay_ms_));
    }
    ++chosen;
    return option_;
  }
  void observe(const Observation&) override { ++observed; }
  void refresh(TimeSec) override { ++refreshed; }
  [[nodiscard]] std::string_view name() const override { return "counting"; }

  std::atomic<int> chosen{0}, observed{0}, refreshed{0};

 private:
  OptionId option_;
  int choose_delay_ms_;
};

TEST(FederationRpc, RepliesCarryReplicaIdentity) {
  CountingPolicy policy(1);
  ServerConfig sc;
  sc.replica_id = 2;
  sc.ring_epoch = 5;
  ControllerServer server(policy, 0, sc);
  server.start();

  ControllerClient client(server.port());
  DecisionRequest req;
  req.call_id = 1;
  req.options = {0, 1};
  (void)client.request_decision(req);
  EXPECT_EQ(client.last_replica_id(), 2u);
  EXPECT_EQ(client.last_ring_epoch(), 5u);
  (void)client.get_stats(obs::StatsFormat::Json);
  EXPECT_EQ(client.last_replica_id(), 2u);
  client.shutdown();
  server.stop();
}

/// Ping and GossipSegments are shedding-exempt: with the server's one
/// inflight slot held by a stalled decision, the control-plane RPCs still
/// answer immediately instead of drawing Busy.
TEST(FederationRpc, PingAndGossipSkipSheddingAndReachTheHandler) {
  CountingPolicy policy(1, /*choose_delay_ms=*/400);
  ServerConfig sc;
  sc.replica_id = 4;
  sc.ring_epoch = 9;
  sc.max_inflight = 1;
  sc.reactor_threads = 2;
  ControllerServer server(policy, 0, sc);
  std::atomic<std::size_t> gossip_segments{0};
  server.set_gossip_handler([&](const GossipSegmentsMsg& msg) {
    gossip_segments += msg.segments.size();
    return msg.segments.size();
  });
  server.start();

  // Connect the probe first: least-connections pinning puts it on one
  // worker and the saturator on the other, so the stalled choose() holds
  // the inflight slot but not the worker that serves the probe.
  ControllerClient probe(server.port());
  for (int i = 0; i < 1000 && server.active_handlers() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.active_handlers(), 1u);

  std::thread saturator([&] {
    ControllerClient c(server.port());
    DecisionRequest req;
    req.call_id = 1;
    req.options = {0, 1};
    (void)c.request_decision(req);
    c.shutdown();
  });
  // Let the decision occupy the single inflight slot.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const auto t0 = std::chrono::steady_clock::now();
  const PongMsg pong = probe.ping();
  const auto ping_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_EQ(pong.replica_id, 4u);
  EXPECT_EQ(pong.ring_epoch, 9u);
  EXPECT_LT(ping_ms, 300);  // answered while the decision was still stalled

  GossipSegmentsMsg msg;
  msg.replica_id = 1;
  msg.ring_epoch = 9;
  msg.segments = {make_segment(11, 1.0, 2), make_segment(12, 2.0, 4)};
  const GossipSegmentsAckMsg ack = probe.gossip_segments(msg);
  EXPECT_EQ(ack.accepted, 2u);
  EXPECT_EQ(ack.replica_id, 4u);
  probe.shutdown();

  saturator.join();
  server.stop();
  EXPECT_EQ(server.busy_rejections(), 0);
  EXPECT_EQ(server.pings_served(), 1);
  EXPECT_EQ(server.gossip_updates(), 1);
  EXPECT_EQ(gossip_segments.load(), 2u);
}

// ------------------------------------------------------------- chaos suites

class FederationChaosTest : public ::testing::Test {
 protected:
  FederationChaosTest() { bounce_ = options_.intern_bounce(0); }

  [[nodiscard]] FedFleetConfig fleet_config(std::uint32_t replicas) const {
    FedFleetConfig cfg;
    cfg.replicas = replicas;
    cfg.via.epsilon = 0.0;
    cfg.via.seed = 11;
    cfg.fed.fail_threshold = 1;
    cfg.fed.probe_period_ms = 100;
    // kill() severs the chaos clients' live connections; don't wait the
    // full default drain on them.
    cfg.server.drain_timeout_ms = 50;
    return cfg;
  }

  [[nodiscard]] static FedClientConfig fed_client_config() {
    FedClientConfig c;
    c.rpc.request_timeout_ms = 250;
    c.rpc.max_retries = 1;
    c.rpc.backoff_base_ms = 1;
    c.rpc.backoff_max_ms = 4;
    return c;
  }

  RelayOptionTable options_;
  OptionId bounce_ = kInvalidOption;
  BackboneFn backbone_ = [](RelayId, RelayId) { return PathPerformance{}; };
};

/// The kill-1-of-3 acceptance scenario: mid-trace, one replica dies.  Its
/// shard's traffic re-homes to the ring successor, zero observations are
/// lost across the fleet, and the flight narrative reads replica_down
/// before replica_rehomed in seq order.
TEST_F(FederationChaosTest, KillOneOfThreeRehomesWithZeroLostObservations) {
  FedFleetConfig cfg = fleet_config(3);
  cfg.fed.probe_period_ms = 60'000;  // the victim stays down for the test
  FedFleet fleet(options_, backbone_, cfg);
  fleet.start();

  FederatedClient client(fleet.federation(), fed_client_config());
  obs::FlightRecorder flight(1024);
  client.attach_flight(&flight);
  obs::MetricsRegistry registry;
  client.attach_metrics(&registry);

  CallId seq = 0;
  int sent = 0;
  const auto drive = [&](AsId s, AsId d, int n) {
    for (int i = 0; i < n; ++i) {
      DecisionRequest req;
      req.call_id = ++seq;
      req.time = seq;
      req.src_as = s;
      req.dst_as = d;
      req.options = {RelayOptionTable::direct_id(), bounce_};
      (void)client.request_decision(req);
      Observation o;
      o.id = req.call_id;
      o.src_as = s;
      o.dst_as = d;
      o.option = bounce_;
      o.time = seq;
      o.perf = {105.0 + i, 0.3, 3.0};
      client.report(o);
      ++sent;
    }
  };

  // Phase 1: traffic across several shards, all replicas up.
  for (AsId s = 1; s <= 6; ++s) drive(s, static_cast<AsId>(s + 10), 3);
  EXPECT_EQ(client.replicas_marked_down(), 0);
  EXPECT_EQ(fleet.total_reports(), sent);

  // Kill the replica owning one of the driven shards, then keep driving.
  const std::uint32_t victim = client.ring().owner(as_pair_key(1, 11));
  fleet.kill(victim);
  for (AsId s = 1; s <= 6; ++s) drive(s, static_cast<AsId>(s + 10), 3);

  EXPECT_EQ(client.replicas_marked_down(), 1);
  EXPECT_GT(client.rehomed_requests(), 0);
  EXPECT_EQ(client.fallback_decisions(), 0);  // survivors absorbed the shard
  EXPECT_EQ(registry.counter("fed.client.rehomed_requests").value(),
            client.rehomed_requests());

  // Zero lost observations: every distinct report landed exactly once
  // somewhere in the fleet, none buffered, none dropped.
  EXPECT_EQ(client.reports_lost(), 0);
  EXPECT_EQ(client.pending_reports(), 0u);
  EXPECT_EQ(fleet.total_reports(), sent);
  EXPECT_EQ(fleet.total_decisions(), sent);

  // Flight narrative, verified in seq order: down strictly before rehome.
  std::int64_t down_seq = -1, rehome_seq = -1;
  for (const obs::FlightEvent& e : flight.snapshot()) {
    if (e.kind == obs::FlightEventKind::ReplicaDown && e.a == victim && down_seq < 0) {
      down_seq = e.seq;
    }
    if (e.kind == obs::FlightEventKind::ReplicaRehomed && e.a == victim && rehome_seq < 0) {
      rehome_seq = e.seq;
      EXPECT_NE(static_cast<std::uint32_t>(e.b), victim);  // successor differs
    }
  }
  ASSERT_GE(down_seq, 0);
  ASSERT_GE(rehome_seq, 0);
  EXPECT_LT(down_seq, rehome_seq);
}

/// Probation bounds flap thrash: a replica that comes back is not given
/// traffic until a probation probe succeeds, and the down transition is
/// recorded once, not per request.
TEST_F(FederationChaosTest, ProbationKeepsRestartedReplicaOutUntilProbe) {
  FedFleetConfig cfg = fleet_config(2);
  cfg.fed.probe_period_ms = 60'000;  // no probe lands during this test
  FedFleet fleet(options_, backbone_, cfg);
  fleet.start();

  FederatedClient client(fleet.federation(), fed_client_config());

  // Find a pair whose shard home is replica 0.
  AsId src = 1;
  while (client.ring().owner(as_pair_key(src, static_cast<AsId>(src + 10))) != 0) ++src;
  const AsId dst = static_cast<AsId>(src + 10);

  fleet.kill(0);
  CallId seq = 0;
  const auto drive_one = [&] {
    DecisionRequest req;
    req.call_id = ++seq;
    req.time = seq;
    req.src_as = src;
    req.dst_as = dst;
    req.options = {RelayOptionTable::direct_id(), bounce_};
    (void)client.request_decision(req);
  };
  drive_one();  // trips the health threshold and re-homes
  EXPECT_EQ(client.replica_state(0), FederatedClient::ReplicaState::kDown);
  EXPECT_EQ(client.replicas_marked_down(), 1);

  // The replica returns immediately — a flap.  Probation must keep its
  // traffic on the successor until a probe period elapses, so a flapping
  // replica can never thrash requests back and forth.
  fleet.restart(0);
  const std::int64_t before = fleet.server(1).decisions_served();
  for (int i = 0; i < 10; ++i) drive_one();
  EXPECT_EQ(client.replica_state(0), FederatedClient::ReplicaState::kDown);
  EXPECT_EQ(client.replicas_recovered(), 0);
  EXPECT_EQ(client.replicas_marked_down(), 1);  // one transition, not ten
  EXPECT_EQ(fleet.server(1).decisions_served() - before, 10);
  EXPECT_EQ(fleet.server(0).decisions_served(), 0);
  // Even an explicit probe request respects the probation window.
  EXPECT_FALSE(client.probe_replica(0));
}

/// The full-controller-outage drill: every replica dies, clients fall back
/// to the direct path and buffer their observations; after the restart the
/// client re-homes within one probe period, the buffered reports flush,
/// and PNR returns to the no-fault level.
TEST_F(FederationChaosTest, FullOutageFallsBackDirectThenRecovers) {
  FedFleetConfig cfg = fleet_config(2);
  FedFleet fleet(options_, backbone_, cfg);
  fleet.start();

  // Teach every replica that the bounce clearly beats the poor direct path
  // for the drilled pair (direct trips every PNR threshold).
  for (std::uint32_t r = 0; r < fleet.replicas(); ++r) {
    for (int i = 0; i < 8; ++i) {
      Observation direct;
      direct.id = 1'000 + i;
      direct.src_as = 1;
      direct.dst_as = 2;
      direct.option = RelayOptionTable::direct_id();
      direct.time = i;
      direct.perf = {330.0 + i, 1.4, 13.0};
      fleet.policy(r).observe(direct);
      Observation bounce;
      bounce.id = 2'000 + i;
      bounce.src_as = 1;
      bounce.dst_as = 2;
      bounce.option = bounce_;
      bounce.time = i;
      bounce.perf = {100.0 + i, 0.3, 3.0};
      fleet.policy(r).observe(bounce);
    }
    fleet.policy(r).refresh(kSecondsPerDay);
  }

  FedClientConfig fc = fed_client_config();
  fc.rpc.max_retries = 0;
  fc.rpc.request_timeout_ms = 150;
  FederatedClient client(fleet.federation(), fc);
  obs::FlightRecorder flight(1024);
  client.attach_flight(&flight);

  CallId seq = 0;
  const auto perf_of = [&](OptionId pick, int i) {
    return pick == bounce_ ? PathPerformance{100.0 + i, 0.3, 3.0}
                           : PathPerformance{330.0 + i, 1.4, 13.0};
  };
  const auto drive = [&](PnrAccumulator& pnr, int n) {
    for (int i = 0; i < n; ++i) {
      DecisionRequest req;
      req.call_id = ++seq;
      req.time = seq;
      req.src_as = 1;
      req.dst_as = 2;
      req.options = {RelayOptionTable::direct_id(), bounce_};
      const OptionId pick = client.request_decision(req);
      pnr.add(perf_of(pick, i));
      Observation o;
      o.id = req.call_id;
      o.src_as = 1;
      o.dst_as = 2;
      o.option = pick;
      o.time = seq;
      o.perf = perf_of(pick, i);
      client.report(o);
    }
  };

  PnrAccumulator before, during, after;
  drive(before, 10);
  EXPECT_DOUBLE_EQ(before.pnr_any(), 0.0);  // the relay keeps calls healthy
  EXPECT_EQ(fleet.total_reports(), 10);

  fleet.kill(0);
  fleet.kill(1);
  drive(during, 10);
  EXPECT_EQ(client.fallback_decisions(), 10);  // every call served direct
  EXPECT_DOUBLE_EQ(during.pnr_any(), 1.0);     // relay gain lost, calls poor
  EXPECT_EQ(client.pending_reports(), 10u);    // measurements parked, not lost
  EXPECT_EQ(client.reports_lost(), 0);

  fleet.restart(0);
  fleet.restart(1);
  // One probe period later the probation Ping readmits the replicas.
  std::this_thread::sleep_for(std::chrono::milliseconds(cfg.fed.probe_period_ms + 50));
  drive(after, 10);
  EXPECT_GE(client.replicas_recovered(), 1);
  EXPECT_EQ(client.pending_reports(), 0u);
  EXPECT_EQ(client.reports_flushed(), 10);
  EXPECT_EQ(client.reports_lost(), 0);
  // The outage lost the calls' relay gain, never their measurements.
  EXPECT_EQ(fleet.total_reports(), 30);
  // PNR recovered to the no-fault tail exactly.
  EXPECT_DOUBLE_EQ(after.pnr_any(), before.pnr_any());

  // The narrative: fallback during the outage, recovery after the restart.
  bool saw_fallback = false, saw_recovered = false;
  for (const obs::FlightEvent& e : flight.snapshot()) {
    if (e.kind == obs::FlightEventKind::RpcFallback) saw_fallback = true;
    if (e.kind == obs::FlightEventKind::ReplicaRecovered) saw_recovered = true;
  }
  EXPECT_TRUE(saw_fallback);
  EXPECT_TRUE(saw_recovered);
}

/// Stale-ring detection: a client whose configured ring epoch trails the
/// fleet's records one ring_epoch_bump flight event (then adopts the
/// observed epoch) instead of spamming one per request.
TEST_F(FederationChaosTest, StaleRingEpochIsDetectedOnce) {
  FedFleetConfig cfg = fleet_config(1);
  cfg.fed.ring_epoch = 5;
  FedFleet fleet(options_, backbone_, cfg);
  fleet.start();

  fed::FederationConfig stale = fleet.federation();
  stale.ring_epoch = 4;
  FederatedClient client(stale, fed_client_config());
  obs::FlightRecorder flight(64);
  client.attach_flight(&flight);

  for (int i = 0; i < 3; ++i) {
    DecisionRequest req;
    req.call_id = i + 1;
    req.time = i;
    req.src_as = 1;
    req.dst_as = 2;
    req.options = {RelayOptionTable::direct_id(), bounce_};
    (void)client.request_decision(req);
  }
  EXPECT_EQ(client.ring_epoch_bumps(), 1);
  int bump_events = 0;
  for (const obs::FlightEvent& e : flight.snapshot()) {
    if (e.kind == obs::FlightEventKind::RingEpochBump) {
      ++bump_events;
      EXPECT_EQ(e.a, 4);
      EXPECT_EQ(e.b, 5);
    }
  }
  EXPECT_EQ(bump_events, 1);
}

/// Gossip over the real RPC path pools segments across the fleet: after
/// one gossip round and a refresh, each replica predicts paths only its
/// peer ever observed.
TEST_F(FederationChaosTest, GossipOverRpcPoolsSegmentsAcrossReplicas) {
  FedFleet fleet(options_, backbone_, fleet_config(2));
  fleet.start();

  const auto feed = [&](std::uint32_t r, AsId s, AsId d) {
    for (int i = 0; i < 6; ++i) {
      Observation o;
      o.id = i * 100 + s;
      o.src_as = s;
      o.dst_as = d;
      o.option = bounce_;
      o.time = i;
      o.perf = {120.0 + i, 0.4, 3.5};
      fleet.policy(r).observe(o);
    }
  };
  feed(0, 1, 2);
  feed(1, 21, 22);
  fleet.policy(0).refresh(kSecondsPerDay);
  fleet.policy(1).refresh(kSecondsPerDay);

  EXPECT_EQ(fleet.gossip_once(), 2u);  // both replicas pushed to their peer
  EXPECT_EQ(fleet.exchange(0).peers(), 1u);
  EXPECT_GT(fleet.exchange(0).segments_held(), 0u);
  EXPECT_EQ(fleet.server(0).gossip_updates(), 1);

  feed(0, 1, 2);
  feed(1, 21, 22);
  fleet.policy(0).refresh(2 * kSecondsPerDay);
  fleet.policy(1).refresh(2 * kSecondsPerDay);
  EXPECT_GT(fleet.policy(0).peer_segments_folded(), 0);
  EXPECT_GT(fleet.policy(1).peer_segments_folded(), 0);

  std::array<double, kNumMetrics> mean{}, sem{};
  const auto snap0 = fleet.policy(0).model();
  EXPECT_TRUE(snap0->predictor().tomography().predict_lin(21, 22, bounce_, mean, sem));
  const auto snap1 = fleet.policy(1).model();
  EXPECT_TRUE(snap1->predictor().tomography().predict_lin(1, 2, bounce_, mean, sem));
}

/// Reconnect-after-reset: a client whose connection died with the server
/// must transparently reconnect and succeed once the server is back on
/// the same port.
TEST_F(FederationChaosTest, ClientReconnectsAfterReset) {
  FedFleetConfig cfg = fleet_config(1);
  cfg.server.reactor_threads = 1;
  FedFleet fleet(options_, backbone_, cfg);
  fleet.start();

  ClientConfig cc;
  cc.request_timeout_ms = 500;
  cc.max_retries = 10;
  cc.backoff_base_ms = 1;
  cc.backoff_max_ms = 8;
  ControllerClient client(fleet.federation().replica_ports[0], cc);
  obs::MetricsRegistry registry;
  client.attach_metrics(&registry);

  DecisionRequest req;
  req.call_id = 1;
  req.time = 0;
  req.src_as = 1;
  req.dst_as = 2;
  req.options = {RelayOptionTable::direct_id(), bounce_};
  EXPECT_EQ(client.request_decision(req), RelayOptionTable::direct_id());  // cold start

  fleet.kill(0);     // resets the client's established connection
  fleet.restart(0);  // same port, fresh server
  req.call_id = 2;
  EXPECT_EQ(client.request_decision(req), RelayOptionTable::direct_id());
  EXPECT_GE(registry.counter("rpc.client.reconnects").value(), 1);
  client.shutdown();
}

}  // namespace
}  // namespace via
