// Multi-segment internetwork tests (DESIGN.md §13): SegmentMap routing and
// supervisor reroutes, gateway store-and-forward with bounded queues, the
// home-segment publish-responsibility partition, the oracle's
// gateway_forwarding monitor, and chaos runs that partition a gateway
// mid-traffic and crash a per-segment recorder.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/internet/internet.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/lifecycle.h"
#include "src/obs/observability.h"
#include "src/obs/oracle.h"
#include "tests/test_programs.h"

namespace publishing {
namespace {

// ---------------------------------------------------------------------------
// SegmentMap unit tests
// ---------------------------------------------------------------------------

// Four segments in a ring: 0-1-2-3 chained by gateways 0..2, gateway 3
// closing 3-0.
SegmentMap RingMap4() {
  SegmentMap map;
  for (size_t k = 0; k < 4; ++k) {
    map.AddSegment(NodeId{static_cast<uint32_t>(k) * 1000});
  }
  for (size_t k = 0; k < 3; ++k) {
    map.AddGateway(NodeId{900000u + static_cast<uint32_t>(k)}, {k, k + 1});
  }
  map.AddGateway(NodeId{900003}, {3, 0});
  return map;
}

TEST(SegmentMap, HomesAndUnknownNodes) {
  SegmentMap map = RingMap4();
  map.AssignNode(NodeId{1001}, 1);
  EXPECT_EQ(map.SegmentOf(NodeId{1001}), 1);
  EXPECT_EQ(map.SegmentOf(NodeId{0}), 0);     // Recorder nodes are auto-homed.
  EXPECT_EQ(map.SegmentOf(NodeId{2000}), 2);
  EXPECT_EQ(map.SegmentOf(NodeId{900000}), -1);  // Gateways have no segment.
  EXPECT_EQ(map.SegmentOf(NodeId{424242}), -1);
}

TEST(SegmentMap, ShortestPathWithLowestGatewayTieBreak) {
  SegmentMap map = RingMap4();
  auto hop01 = map.Route(0, 1);
  ASSERT_TRUE(hop01.has_value());
  EXPECT_EQ(hop01->gateway, 0u);
  EXPECT_EQ(hop01->egress, 1u);
  // 0 -> 2 is two hops either way; BFS expands gateway 0 before gateway 3,
  // so the chain direction wins deterministically.
  auto hop02 = map.Route(0, 2);
  ASSERT_TRUE(hop02.has_value());
  EXPECT_EQ(hop02->gateway, 0u);
  EXPECT_EQ(hop02->egress, 1u);
  // 0 -> 3 is one hop through the ring-closing gateway.
  auto hop03 = map.Route(0, 3);
  ASSERT_TRUE(hop03.has_value());
  EXPECT_EQ(hop03->gateway, 3u);
  EXPECT_EQ(hop03->egress, 3u);
  // Self-routes and out-of-range segments have no next hop.
  EXPECT_FALSE(map.Route(2, 2).has_value());
  EXPECT_FALSE(map.Route(0, 7).has_value());
}

TEST(SegmentMap, DownGatewayReroutesAroundTheRing) {
  SegmentMap map = RingMap4();
  map.SetGatewayUp(0, false);
  // 0 -> 1 must now go the long way: 0 -> 3 -> 2 -> 1.
  auto hop = map.Route(0, 1);
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(hop->gateway, 3u);
  EXPECT_EQ(hop->egress, 3u);
  auto hop32 = map.Route(3, 2);
  ASSERT_TRUE(hop32.has_value());
  EXPECT_EQ(hop32->gateway, 2u);
  map.SetGatewayUp(0, true);
  EXPECT_EQ(map.Route(0, 1)->gateway, 0u);
}

TEST(SegmentMap, ChainPartitionLeavesSegmentsUnreachable) {
  SegmentMap map;
  for (size_t k = 0; k < 3; ++k) {
    map.AddSegment(NodeId{static_cast<uint32_t>(k) * 1000});
  }
  map.AddGateway(NodeId{900000}, {0, 1});
  map.AddGateway(NodeId{900001}, {1, 2});
  ASSERT_TRUE(map.Route(0, 2).has_value());
  map.SetGatewayUp(1, false);
  EXPECT_FALSE(map.Route(0, 2).has_value());  // No path: chain, not ring.
  EXPECT_TRUE(map.Route(0, 1).has_value());
}

// ---------------------------------------------------------------------------
// Stage / monitor naming
// ---------------------------------------------------------------------------

TEST(InternetNaming, ForwardedStageAndGatewayMonitor) {
  EXPECT_STREQ(LifecycleStageName(LifecycleStage::kForwarded), "forwarded");
  EXPECT_STREQ(OracleMonitorName(OracleMonitor::kGatewayForwarding),
               "gateway_forwarding");
}

// ---------------------------------------------------------------------------
// Oracle gateway_forwarding monitor (synthetic event feed)
// ---------------------------------------------------------------------------

// Nodes 0..999 home on segment 0, 1000..1999 on segment 1; everything else
// (gateways) outside.
int32_t TwoSegmentResolver(NodeId node) {
  if (node.value < 1000) {
    return 0;
  }
  if (node.value < 2000) {
    return 1;
  }
  return -1;
}

LifecycleEvent MakeEvent(LifecycleStage stage, NodeId node, uint32_t hop = 0,
                         uint8_t flags = kCausalGuaranteed) {
  LifecycleEvent event;
  event.ctx.id = MessageId{NodeId{1}, 7};
  event.ctx.origin = NodeId{1};
  event.ctx.hop = hop;
  event.ctx.flags = flags;
  event.stage = stage;
  event.node = node;
  return event;
}

LifecycleEvent MakeForward(uint32_t hop, int32_t from, int32_t to) {
  LifecycleEvent event = MakeEvent(LifecycleStage::kForwarded, NodeId{900000}, hop);
  event.from_segment = from;
  event.to_segment = to;
  return event;
}

TEST(GatewayForwardingOracle, DuplicateForwardAcrossSamePairIsFlagged) {
  InvariantOracle oracle(OracleOptions{.policy = OraclePolicy::kCount});
  oracle.SetSegmentResolver(TwoSegmentResolver);
  oracle.OnEvent(MakeEvent(LifecycleStage::kOnWire, NodeId{1}));
  oracle.OnEvent(MakeForward(0, 0, 1));
  EXPECT_EQ(oracle.total_violations(), 0u);
  // The same attempt crossing the same segment pair again = duplication.
  oracle.OnEvent(MakeForward(0, 0, 1));
  EXPECT_EQ(oracle.violations(OracleMonitor::kGatewayForwarding), 1u);
  // A retransmission (new hop) legitimately crosses the same pair.
  oracle.OnEvent(MakeForward(1, 0, 1));
  EXPECT_EQ(oracle.violations(OracleMonitor::kGatewayForwarding), 1u);
}

TEST(GatewayForwardingOracle, CrossSegmentDeliveryWithoutForwardIsFlagged) {
  InvariantOracle oracle(OracleOptions{.policy = OraclePolicy::kCount});
  oracle.SetSegmentResolver(TwoSegmentResolver);
  oracle.OnEvent(MakeEvent(LifecycleStage::kOnWire, NodeId{1}));
  // Published by segment 1's recorder, so per-segment completeness is
  // satisfied — but the frame never crossed a gateway.
  oracle.OnEvent(MakeEvent(LifecycleStage::kPublished, NodeId{1000}));
  oracle.OnEvent(MakeEvent(LifecycleStage::kDurable, NodeId{1000}));
  oracle.OnEvent(MakeEvent(LifecycleStage::kDelivered, NodeId{1001}));
  EXPECT_EQ(oracle.violations(OracleMonitor::kGatewayForwarding), 1u);
}

TEST(GatewayForwardingOracle, PerSegmentCompletenessScopesThePublisher) {
  InvariantOracle oracle(OracleOptions{.policy = OraclePolicy::kCount});
  oracle.SetSegmentResolver(TwoSegmentResolver);
  oracle.OnEvent(MakeEvent(LifecycleStage::kOnWire, NodeId{1}));
  // Published only by segment 0's recorder, then delivered on segment 1:
  // globally published, but not by the responsible recorder.
  oracle.OnEvent(MakeEvent(LifecycleStage::kPublished, NodeId{0}));
  oracle.OnEvent(MakeEvent(LifecycleStage::kDurable, NodeId{0}));
  oracle.OnEvent(MakeForward(0, 0, 1));
  oracle.OnEvent(MakeEvent(LifecycleStage::kDelivered, NodeId{1001}));
  EXPECT_EQ(oracle.violations(OracleMonitor::kRecorderCompleteness), 1u);
  EXPECT_EQ(oracle.violations(OracleMonitor::kGatewayForwarding), 0u);
}

TEST(GatewayForwardingOracle, ForwardedButNeverDeliveredIsFlaggedAtQuiescence) {
  InvariantOracle oracle(OracleOptions{.policy = OraclePolicy::kCount});
  oracle.SetSegmentResolver(TwoSegmentResolver);
  oracle.OnEvent(MakeEvent(LifecycleStage::kOnWire, NodeId{1}));
  oracle.OnEvent(MakeEvent(LifecycleStage::kPublished, NodeId{0}));
  oracle.OnEvent(MakeEvent(LifecycleStage::kPublished, NodeId{1000}));
  oracle.OnEvent(MakeForward(0, 0, 1));
  oracle.CheckQuiescent();
  EXPECT_EQ(oracle.violations(OracleMonitor::kGatewayForwarding), 1u);
  EXPECT_NE(oracle.ReportJson().find("gateway_forwarding"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Internet integration
// ---------------------------------------------------------------------------

InternetConfig BaseConfig(size_t segments, size_t nodes_per_segment = 2) {
  InternetConfig config;
  config.segments = segments;
  config.nodes_per_segment = nodes_per_segment;
  config.seed = 17;
  return config;
}

void RegisterPrograms(Internet& net, uint64_t ping_target) {
  net.registry().Register("echo", [] { return std::make_unique<EchoProgram>(); });
  net.registry().Register(
      "pinger", [ping_target] { return std::make_unique<PingerProgram>(ping_target); });
}

const PingerProgram* PingerAt(Internet& net, NodeId node, const ProcessId& pid) {
  return dynamic_cast<const PingerProgram*>(net.kernel(node)->ProgramFor(pid));
}

// Full observability stack around an Internet, mirroring the single-segment
// ObsSystem harness.
struct ObsInternet {
  MetricsRegistry registry;
  InvariantOracle oracle;
  FlightRecorder flight;
  Internet net;
  Tracer tracer;
  LifecycleTracker lifecycle;

  explicit ObsInternet(const InternetConfig& config)
      : oracle(OracleOptions{.policy = OraclePolicy::kCount}),
        net(config),
        tracer(&net.sim()),
        lifecycle(&net.sim()) {
    lifecycle.AttachTracer(&tracer);
    lifecycle.AttachMetrics(&registry);
    lifecycle.AttachOracle(&oracle);
    lifecycle.AttachFlightRecorder(&flight);
    oracle.AttachFlightRecorder(&flight);
    oracle.AttachMetrics(&registry);

    Observability obs;
    obs.metrics = &registry;
    obs.tracer = &tracer;
    obs.lifecycle = &lifecycle;
    net.EnableObservability(obs);
  }

  // Each gateway.* counter equals the gateway's merged stats (attached
  // before any traffic, so nothing predates the counters).
  void ExpectGatewayCountersMatchStats() {
    for (size_t i = 0; i < net.gateway_count(); ++i) {
      SCOPED_TRACE("gateway " + std::to_string(i));
      const GatewayStats stats = net.gateway(i).stats();
      const MetricLabels labels = {{"gateway", "gw" + std::to_string(i)}};
      EXPECT_EQ(registry.GetCounter("gateway.frames_forwarded", labels)->value(),
                stats.frames_forwarded);
      EXPECT_EQ(registry.GetCounter("gateway.bytes_forwarded", labels)->value(),
                stats.bytes_forwarded);
      EXPECT_EQ(registry.GetCounter("gateway.dropped_queue_full", labels)->value(),
                stats.dropped_queue_full);
      EXPECT_EQ(registry.GetCounter("gateway.dropped_down", labels)->value(),
                stats.dropped_down);
    }
  }
};

// A cross-segment ping-pong: the pinger's sends are published by its home
// recorder (watermarks + messages addressed into segment 0) and the echo's
// home recorder publishes the pings addressed to it — both storages fill,
// each recorder skips the direction it is not responsible for.
TEST(Internet, CrossSegmentPingPongPublishesOnBothHomes) {
  ObsInternet obs(BaseConfig(2));
  Internet& net = obs.net;
  RegisterPrograms(net, 20);
  auto echo = net.Spawn(Internet::ProcessingNode(1, 0), "echo");
  ASSERT_TRUE(echo.ok());
  auto pinger =
      net.Spawn(Internet::ProcessingNode(0, 0), "pinger", {Link{*echo, 1, 0, 0}});
  ASSERT_TRUE(pinger.ok());

  net.RunFor(Seconds(30));

  const PingerProgram* p = PingerAt(net, Internet::ProcessingNode(0, 0), *pinger);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->received(), 20u);

  // Both home recorders published their side of the conversation...
  EXPECT_GT(net.recorder(0).stats().messages_published, 0u);
  EXPECT_GT(net.recorder(1).stats().messages_published, 0u);
  EXPECT_GT(net.storage(0).messages_stored(), 0u);
  EXPECT_GT(net.storage(1).messages_stored(), 0u);
  // ...and each skipped the frames whose destination homes elsewhere.
  EXPECT_GT(net.recorder(0).stats().foreign_dst_skipped, 0u);
  EXPECT_GT(net.recorder(1).stats().foreign_dst_skipped, 0u);

  // With two parallel gateways (ring of 2), the lowest index owns the flow.
  EXPECT_GT(net.gateway(0).stats().frames_forwarded, 0u);
  EXPECT_EQ(net.gateway(1).stats().frames_forwarded, 0u);
  EXPECT_GT(net.gateway(1).stats().ignored_not_owner, 0u);
  obs.ExpectGatewayCountersMatchStats();

  // The lifecycle table records the gateway crossings.
  EXPECT_NE(obs.lifecycle.TableToJson().find("\"forwards\":[{\"from\":0,\"to\":1}]"),
            std::string::npos);

  obs.oracle.CheckQuiescent();
  EXPECT_EQ(obs.oracle.total_violations(), 0u) << obs.oracle.ReportJson();
}

// Transit frames (neither endpoint homed on the observing segment) must pass
// through a middle segment without being recorded or vetoed there.
TEST(Internet, TransitFramesAreNotRecordedByMiddleSegments) {
  InternetConfig config = BaseConfig(3);
  config.ring_topology = false;  // Chain 0-1-2: traffic 0<->2 transits 1.
  ObsInternet obs(config);
  Internet& net = obs.net;
  RegisterPrograms(net, 10);
  auto echo = net.Spawn(Internet::ProcessingNode(2, 0), "echo");
  ASSERT_TRUE(echo.ok());
  auto pinger =
      net.Spawn(Internet::ProcessingNode(0, 0), "pinger", {Link{*echo, 1, 0, 0}});
  ASSERT_TRUE(pinger.ok());

  net.RunFor(Seconds(60));

  const PingerProgram* p = PingerAt(net, Internet::ProcessingNode(0, 0), *pinger);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->received(), 10u);
  // Segment 1 saw every crossing frame but published none of them.
  EXPECT_GT(net.recorder(1).stats().transit_skipped, 0u);
  EXPECT_EQ(net.recorder(1).stats().messages_published, 0u);
  EXPECT_EQ(net.storage(1).messages_stored(), 0u);
  // Two crossings per direction show up in the lifecycle forward lists.
  EXPECT_NE(obs.lifecycle.TableToJson().find(
                "\"forwards\":[{\"from\":0,\"to\":1},{\"from\":1,\"to\":2}]"),
            std::string::npos);

  obs.oracle.CheckQuiescent();
  EXPECT_EQ(obs.oracle.total_violations(), 0u) << obs.oracle.ReportJson();
}

// A one-frame gateway queue under a burst of traffic must drop (bounded
// store-and-forward) and the end-to-end retransmission must still complete
// every conversation with a clean oracle.
TEST(Internet, QueueOverflowBackPressureIsRecoveredByRetransmission) {
  InternetConfig config = BaseConfig(2, /*nodes_per_segment=*/4);
  config.gateway.max_queue_frames = 1;
  config.gateway.forward_latency = MillisF(5.0);  // Slow gateway: queue builds.
  ObsInternet obs(config);
  Internet& net = obs.net;
  RegisterPrograms(net, 10);

  std::vector<ProcessId> pingers;
  for (size_t i = 0; i < 4; ++i) {
    auto echo = net.Spawn(Internet::ProcessingNode(1, i), "echo");
    ASSERT_TRUE(echo.ok());
    auto pinger = net.Spawn(Internet::ProcessingNode(0, i), "pinger",
                            {Link{*echo, 1, 0, 0}});
    ASSERT_TRUE(pinger.ok());
    pingers.push_back(*pinger);
  }

  net.RunFor(Seconds(120));

  for (size_t i = 0; i < pingers.size(); ++i) {
    const PingerProgram* p =
        PingerAt(net, Internet::ProcessingNode(0, i), pingers[i]);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->received(), 10u) << "pinger " << i;
  }
  EXPECT_GT(net.gateway(0).stats().dropped_queue_full, 0u)
      << "a one-frame queue under 4 concurrent conversations must overflow";
  obs.ExpectGatewayCountersMatchStats();

  obs.oracle.CheckQuiescent();
  EXPECT_EQ(obs.oracle.total_violations(), 0u) << obs.oracle.ReportJson();
}

// Chaos: partition the owning gateway mid-traffic on a 4-segment ring.  The
// supervisor reroutes and traffic finishes the long way around; the oracle
// stays clean throughout.
TEST(Internet, GatewayPartitionMidTrafficReroutesAroundTheRing) {
  ObsInternet obs(BaseConfig(4));
  Internet& net = obs.net;
  RegisterPrograms(net, 30);
  auto echo = net.Spawn(Internet::ProcessingNode(1, 0), "echo");
  ASSERT_TRUE(echo.ok());
  auto pinger =
      net.Spawn(Internet::ProcessingNode(0, 0), "pinger", {Link{*echo, 1, 0, 0}});
  ASSERT_TRUE(pinger.ok());

  net.RunFor(Millis(200));
  const PingerProgram* p = PingerAt(net, Internet::ProcessingNode(0, 0), *pinger);
  ASSERT_NE(p, nullptr);
  const uint64_t before = p->received();
  EXPECT_GT(before, 0u);
  EXPECT_LT(before, 30u) << "the fault must land mid-conversation";

  // Gateway 0 carries 0<->1; partition it.  The route becomes 0-3-2-1.
  net.SetGatewayUp(0, false);
  net.RunFor(Seconds(120));

  EXPECT_EQ(p->received(), 30u);
  EXPECT_GT(net.gateway(3).stats().frames_forwarded, 0u);
  EXPECT_GT(net.gateway(2).stats().frames_forwarded, 0u);
  EXPECT_GT(net.gateway(1).stats().frames_forwarded, 0u);
  obs.ExpectGatewayCountersMatchStats();

  obs.oracle.CheckQuiescent();
  EXPECT_EQ(obs.oracle.total_violations(), 0u) << obs.oracle.ReportJson();
}

// The blackhole window: the gateway dies but the supervisor has not rerouted
// yet, so frames routed through it are dropped and counted; once the map is
// updated the conversation completes.
TEST(Internet, DeadGatewayBlackholesUntilTheSupervisorReroutes) {
  ObsInternet obs(BaseConfig(4));
  Internet& net = obs.net;
  RegisterPrograms(net, 40);
  auto echo = net.Spawn(Internet::ProcessingNode(1, 0), "echo");
  ASSERT_TRUE(echo.ok());
  auto pinger =
      net.Spawn(Internet::ProcessingNode(0, 0), "pinger", {Link{*echo, 1, 0, 0}});
  ASSERT_TRUE(pinger.ok());

  net.RunFor(Millis(100));
  {
    const PingerProgram* p =
        PingerAt(net, Internet::ProcessingNode(0, 0), *pinger);
    ASSERT_NE(p, nullptr);
    ASSERT_LT(p->received(), 40u) << "the fault must land mid-conversation";
  }
  // Fault without the supervisor noticing: frames keep routing into the
  // dead gateway and die there.
  net.gateway(0).SetDown(true);
  net.RunFor(Seconds(2));
  EXPECT_GT(net.gateway(0).stats().dropped_down, 0u);

  // Supervisor catches up; retransmissions take the long way and finish.
  net.map().SetGatewayUp(0, false);
  net.RunFor(Seconds(120));
  const PingerProgram* p = PingerAt(net, Internet::ProcessingNode(0, 0), *pinger);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->received(), 40u);
  obs.ExpectGatewayCountersMatchStats();

  obs.oracle.CheckQuiescent();
  EXPECT_EQ(obs.oracle.total_violations(), 0u) << obs.oracle.ReportJson();
}

// Chaos: crash a per-segment recorder mid-traffic, restart it, then crash a
// process homed on that segment.  Recovery must replay from the home
// segment's recorder (its manager completes the recovery; the other segment's
// manager is never involved).
TEST(Internet, RecorderCrashThenProcessRecoveryFromHomeSegment) {
  ObsInternet obs(BaseConfig(2));
  Internet& net = obs.net;
  RegisterPrograms(net, 40);
  auto echo = net.Spawn(Internet::ProcessingNode(1, 0), "echo");
  ASSERT_TRUE(echo.ok());
  auto pinger =
      net.Spawn(Internet::ProcessingNode(0, 0), "pinger", {Link{*echo, 1, 0, 0}});
  ASSERT_TRUE(pinger.ok());

  net.RunFor(Millis(300));
  // Segment 1's recorder goes down and comes back; its stable storage
  // survives the crash (the paper's recorder restart model).
  net.CrashRecorder(1);
  net.RunFor(Millis(100));
  net.RestartRecorder(1);
  net.RunFor(Millis(300));

  // Now kill the echo process (homed on segment 1) and let its home
  // segment's manager recover it.
  ASSERT_TRUE(net.CrashProcess(*echo).ok());
  ASSERT_TRUE(net.RunUntilRecovered(*echo, Seconds(600)));
  net.RunFor(Seconds(120));

  const PingerProgram* p = PingerAt(net, Internet::ProcessingNode(0, 0), *pinger);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->received(), 40u);
  EXPECT_EQ(net.recovery(1).stats().process_recoveries_completed, 1u);
  EXPECT_EQ(net.recovery(0).stats().process_recoveries_started, 0u)
      << "the crash is segment 1's responsibility alone";

  obs.oracle.CheckQuiescent();
  EXPECT_EQ(obs.oracle.total_violations(), 0u) << obs.oracle.ReportJson();
}

// A single-segment Internet behaves like a plain cluster: no gateways, no
// forwards, and the partition function is a no-op that skips nothing.
TEST(Internet, SingleSegmentDegeneratesToACluster) {
  ObsInternet obs(BaseConfig(1));
  Internet& net = obs.net;
  RegisterPrograms(net, 10);
  auto echo = net.Spawn(Internet::ProcessingNode(0, 1), "echo");
  ASSERT_TRUE(echo.ok());
  auto pinger =
      net.Spawn(Internet::ProcessingNode(0, 0), "pinger", {Link{*echo, 1, 0, 0}});
  ASSERT_TRUE(pinger.ok());

  net.RunFor(Seconds(30));

  const PingerProgram* p = PingerAt(net, Internet::ProcessingNode(0, 0), *pinger);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->received(), 10u);
  EXPECT_EQ(net.gateway_count(), 0u);
  EXPECT_EQ(net.recorder(0).stats().transit_skipped, 0u);
  EXPECT_EQ(net.recorder(0).stats().foreign_dst_skipped, 0u);

  obs.oracle.CheckQuiescent();
  EXPECT_EQ(obs.oracle.total_violations(), 0u) << obs.oracle.ReportJson();
}

// Same seed, same bytes: two runs of a four-segment ring with cross-segment
// ping-pong in every direction (every gateway forwards, every domain both
// sends and receives handoffs) dump byte-identical lifecycle and oracle JSON.
struct InternetRunArtifacts {
  std::string lifecycle_json;
  std::string oracle_json;
  uint64_t pings_received = 0;
  uint64_t frames_forwarded = 0;
};

InternetRunArtifacts RunRingScenario() {
  InternetConfig config = BaseConfig(4);
  config.seed = 42;
  InvariantOracle oracle(OracleOptions{.policy = OraclePolicy::kCount});
  Internet net(config);
  LifecycleTracker lifecycle(&net.sim());
  lifecycle.AttachOracle(&oracle);
  Observability obs;
  obs.lifecycle = &lifecycle;
  net.EnableObservability(obs);
  RegisterPrograms(net, 15);

  std::vector<ProcessId> pingers;
  for (size_t k = 0; k < 4; ++k) {
    auto echo = net.Spawn(Internet::ProcessingNode((k + 1) % 4, 0), "echo");
    EXPECT_TRUE(echo.ok());
    auto pinger = net.Spawn(Internet::ProcessingNode(k, 1), "pinger",
                            {Link{*echo, 1, 0, 0}});
    EXPECT_TRUE(pinger.ok());
    pingers.push_back(*pinger);
  }
  net.RunFor(Seconds(60));

  InternetRunArtifacts artifacts;
  artifacts.lifecycle_json = lifecycle.TableToJson();
  artifacts.oracle_json = oracle.ReportJson();
  for (size_t k = 0; k < pingers.size(); ++k) {
    if (const PingerProgram* p = PingerAt(net, Internet::ProcessingNode(k, 1), pingers[k])) {
      artifacts.pings_received += p->received();
    }
  }
  for (size_t g = 0; g < net.gateway_count(); ++g) {
    artifacts.frames_forwarded += net.gateway(g).stats().frames_forwarded;
  }
  net.EnableObservability(Observability{});
  return artifacts;
}

TEST(Internet, SameSeedSameBytesAcrossRuns) {
  const InternetRunArtifacts first = RunRingScenario();
  const InternetRunArtifacts second = RunRingScenario();

  // The scenario did real cross-segment work...
  EXPECT_EQ(first.pings_received, 4u * 15u);
  EXPECT_GT(first.frames_forwarded, 0u);
  // ...and the second run reproduced it byte for byte.
  EXPECT_EQ(first.pings_received, second.pings_received);
  EXPECT_EQ(first.frames_forwarded, second.frames_forwarded);
  EXPECT_EQ(first.oracle_json, second.oracle_json);
  ASSERT_EQ(first.lifecycle_json, second.lifecycle_json);
}

}  // namespace
}  // namespace publishing
