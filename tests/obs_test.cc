// Tests for src/obs: registry semantics, label handling, trace export
// well-formedness, ring-buffer bounds, and the two system-level guarantees
// the subsystem makes — identical runs serialize byte-identically, and an
// uninstrumented run behaves bit-identically to an instrumented one.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "src/core/publishing_system.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/lifecycle.h"
#include "src/obs/metrics.h"
#include "src/obs/observability.h"
#include "src/obs/oracle.h"
#include "src/obs/trace.h"
#include "src/storage/wal.h"
#include "tests/json_checker.h"
#include "tests/test_programs.h"

namespace publishing {
namespace {

// ---------------------------------------------------------------------------
// Registry semantics
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CounterGaugeHistogramBasics) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("a.count");
  c->Add();
  c->Add(41);
  EXPECT_EQ(c->value(), 42u);

  Gauge* g = registry.GetGauge("a.gauge");
  g->Set(2.5);
  g->Add(-0.5);
  EXPECT_DOUBLE_EQ(g->value(), 2.0);

  Histogram* h = registry.GetHistogram("a.hist");
  h->Observe(1.0);
  h->Observe(3.0);
  EXPECT_EQ(h->stats().count(), 2u);
  EXPECT_DOUBLE_EQ(h->stats().mean(), 2.0);
}

TEST(MetricsRegistry, BoundCountersCountFieldGrowthFromBindAndFreezeOnRelease) {
  MetricsRegistry registry;
  uint64_t a = 5;
  uint64_t b = 0;
  CounterBinding bind_a = registry.BindCounter("x.total", {}, &a);
  CounterBinding bind_b = registry.BindCounter("x.total", {}, &b);
  Counter* total = registry.GetCounter("x.total");
  EXPECT_EQ(total->value(), 0u) << "counts from bind, not from zero";
  a += 3;
  b += 4;
  EXPECT_EQ(total->value(), 7u);
  bind_a.Release();
  a += 100;  // No longer counted.
  EXPECT_EQ(total->value(), 7u);
  CounterBinding moved = std::move(bind_b);
  b += 1;
  EXPECT_EQ(total->value(), 8u);
  moved = CounterBinding();  // Move-assignment releases the old binding.
  b += 1;
  EXPECT_EQ(total->value(), 8u);
}

TEST(MetricsRegistry, BindingOutlivingItsRegistryReleasesSafely) {
  uint64_t field = 0;
  CounterBinding binding;
  {
    MetricsRegistry registry;
    binding = registry.BindCounter("x.count", {}, &field);
    ++field;
    EXPECT_EQ(registry.GetCounter("x.count")->value(), 1u);
  }
  ++field;
  binding.Release();  // The registry is gone: nothing to fold into.
}

TEST(MetricsRegistry, LookupReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x");
  // Force rebalancing of the underlying map with many more instruments.
  for (int i = 0; i < 100; ++i) {
    registry.GetCounter("x" + std::to_string(i));
  }
  EXPECT_EQ(registry.GetCounter("x"), a);
}

TEST(MetricsRegistry, LabelsDistinguishInstrumentsAndSortInKey) {
  MetricsRegistry registry;
  Counter* eth = registry.GetCounter("net.frames", {{"medium", "ethernet"}});
  Counter* ring = registry.GetCounter("net.frames", {{"medium", "token_ring"}});
  EXPECT_NE(eth, ring);
  // Label order must not matter: the key canonicalizes by sorting.
  EXPECT_EQ(MetricKey("m", {{"b", "2"}, {"a", "1"}}), "m{a=1,b=2}");
  EXPECT_EQ(MetricKey("m", {}), "m");
  Counter* ab = registry.GetCounter("k", {{"b", "2"}, {"a", "1"}});
  Counter* ba = registry.GetCounter("k", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(ab, ba);
}

TEST(MetricsRegistry, JsonAndCsvAreWellFormed) {
  MetricsRegistry registry;
  registry.GetCounter("c.one")->Add(7);
  registry.GetGauge("g.two", {{"k", "v"}})->Set(0.25);
  Histogram* h = registry.GetHistogram("h.three");
  for (int i = 1; i <= 10; ++i) {
    h->Observe(static_cast<double>(i));
  }
  const std::string json = registry.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"c.one\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("g.two{k=v}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\""), std::string::npos) << json;

  const std::string csv = registry.ToCsv();
  EXPECT_NE(csv.find("metric,stat,value"), std::string::npos);
  EXPECT_NE(csv.find("c.one"), std::string::npos);
}

TEST(MetricsRegistry, HistogramExportsBucketsAndQuantiles) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("lat.ms");
  // One sample per decade bucket, plus an overflow sample.
  const double samples[] = {0.0005, 0.005, 0.05, 0.5, 5.0, 50.0, 500.0, 5000.0, 50000.0};
  for (double s : samples) {
    h->Observe(s);
  }
  EXPECT_EQ(h->count(), 9u);
  EXPECT_DOUBLE_EQ(h->sum(), 0.0005 + 0.005 + 0.05 + 0.5 + 5.0 + 50.0 + 500.0 +
                                 5000.0 + 50000.0);
  EXPECT_EQ(h->min(), 0.0005);
  EXPECT_EQ(h->max(), 50000.0);
  EXPECT_LE(h->p50(), h->p99());
  for (size_t i = 0; i < Histogram::kBucketCount; ++i) {
    EXPECT_EQ(h->bucket(i), 1u) << "bucket " << i;
  }

  const std::string json = registry.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"buckets\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"0.001\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"inf\":1"), std::string::npos) << json;
}

TEST(Metrics, FormatMetricValueIsDeterministic) {
  EXPECT_EQ(FormatMetricValue(7.0), "7");
  EXPECT_EQ(FormatMetricValue(0.5), "0.5");
  EXPECT_EQ(FormatMetricValue(-3.0), "-3");
  // NaN (empty histogram stats) serializes as 0, not "nan".
  EXPECT_EQ(FormatMetricValue(std::nan("")), "0");
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(Tracer, RecordsSpansAndExportsValidChromeJson) {
  Simulator sim;
  Tracer tracer(&sim);
  sim.ScheduleAt(Millis(1), [&] {
    tracer.Instant("boot", "sim", obs_track::kSim);
  });
  uint64_t span = 0;
  sim.ScheduleAt(Millis(2), [&] {
    span = tracer.BeginSpan("work", "sim", obs_track::kSim, {{"k", "v"}});
  });
  sim.ScheduleAt(Millis(5), [&] {
    tracer.EndSpan(span, "work", "sim", obs_track::kSim);
    tracer.Complete(Millis(4), "tail", "sim", obs_track::kSim);
    tracer.CounterSample("depth", obs_track::kSim, 3);
  });
  sim.Run();

  EXPECT_EQ(tracer.size(), 5u);
  EXPECT_TRUE(tracer.Contains("work"));
  EXPECT_FALSE(tracer.Contains("nonexistent"));
  const std::string json = tracer.ToChromeJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
}

TEST(Tracer, RingBufferBoundsMemoryAndCountsDrops) {
  Simulator sim;
  Tracer tracer(&sim, /*capacity=*/16);
  for (int i = 0; i < 100; ++i) {
    tracer.Instant("e" + std::to_string(i), "sim", obs_track::kSim);
  }
  EXPECT_EQ(tracer.size(), 16u);
  EXPECT_EQ(tracer.dropped(), 84u);
  // Oldest events were overwritten; the newest survive.
  EXPECT_FALSE(tracer.Contains("e0"));
  EXPECT_TRUE(tracer.Contains("e99"));
  EXPECT_TRUE(JsonChecker(tracer.ToChromeJson()).Valid());
}

TEST(Tracer, ExportFooterReportsDroppedEvents) {
  // The Chrome JSON self-reports whether the ring wrapped, so a consumer can
  // tell a complete trace from a truncated one without external bookkeeping.
  Simulator sim;
  Tracer tracer(&sim, /*capacity=*/8);
  for (int i = 0; i < 20; ++i) {
    tracer.Instant("e" + std::to_string(i), "sim", obs_track::kSim);
  }
  const std::string json = tracer.ToChromeJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"metadata\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"capacity\":8"), std::string::npos) << json;
  EXPECT_NE(json.find("\"droppedEvents\":12"), std::string::npos) << json;
  EXPECT_NE(json.find("\"retainedEvents\":8"), std::string::npos) << json;

  Tracer quiet(&sim, /*capacity=*/8);
  quiet.Instant("only", "sim", obs_track::kSim);
  EXPECT_NE(quiet.ToChromeJson().find("\"droppedEvents\":0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// System-level: determinism and behaviour equivalence
// ---------------------------------------------------------------------------

// Per metric key: the sum of the component stats fields the counter counts.
using FieldSums = std::map<std::string, uint64_t>;

FieldSums PingPongFieldSums(PublishingSystem& system, const LifecycleTracker& tracker,
                            const InvariantOracle& oracle) {
  FieldSums sums;
  const Simulator::EventTallies& events = system.sim().event_tallies();
  sums["sim.events_scheduled"] = events.scheduled;
  sums["sim.events_fired"] = events.fired;
  sums["sim.events_cancelled"] = events.cancelled;

  const MediumStats& net = system.cluster().medium().stats();
  const MetricLabels medium = {{"medium", "ack_ethernet"}};
  sums[MetricKey("net.frames_sent", medium)] = net.frames_sent;
  sums[MetricKey("net.bytes_sent", medium)] = net.bytes_sent;
  sums[MetricKey("net.frames_delivered", medium)] = net.frames_delivered;
  sums[MetricKey("net.frames_vetoed", medium)] = net.frames_vetoed;
  sums[MetricKey("net.frames_corrupted", medium)] = net.frames_corrupted;
  sums[MetricKey("net.collisions", medium)] = net.collisions;

  std::vector<const TransportStats*> endpoints = {&system.recorder().endpoint().stats()};
  for (NodeId node : system.cluster().node_ids()) {
    endpoints.push_back(&system.cluster().kernel(node)->endpoint().stats());
  }
  for (const TransportStats* t : endpoints) {
    sums["transport.data_sent"] += t->data_sent;
    sums["transport.data_delivered"] += t->data_delivered;
    sums["transport.acks_sent"] += t->acks_sent;
    sums["transport.retransmits"] += t->retransmits;
    sums["transport.dup_cache_hits"] += t->duplicates_suppressed;
    sums["transport.corrupt_dropped"] += t->corrupt_dropped;
  }

  const RecorderStats& recorder = system.recorder().stats();
  sums["recorder.frames_seen"] = recorder.frames_seen;
  sums["recorder.messages_published"] = recorder.messages_published;
  sums["recorder.bytes_published"] = recorder.bytes_published;
  sums["recorder.checkpoints_stored"] = recorder.checkpoints_stored;

  const RecoveryManagerStats& recovery = system.recovery().stats();
  sums["recovery.started"] = recovery.process_recoveries_started;
  sums["recovery.completed"] = recovery.process_recoveries_completed;
  sums["recovery.node_crashes_detected"] = recovery.node_crashes_detected;
  sums["recovery.replayed_messages"] = recovery.replayed_messages;
  sums["recovery.replay_bursts_sent"] = recovery.replay_bursts_sent;
  sums["recovery.replay_burst_retransmits"] = recovery.replay_burst_retransmits;
  sums["recovery.deferred"] = recovery.recoveries_deferred;

  for (size_t i = 0; i < kLifecycleStageCount; ++i) {
    const auto stage = static_cast<LifecycleStage>(i);
    sums[MetricKey("lifecycle.stage", {{"stage", LifecycleStageName(stage)}})] =
        tracker.observed(stage);
  }
  sums["lifecycle.faults"] = tracker.faults();
  sums["lifecycle.evictions"] = tracker.evicted();
  for (size_t m = 0; m < kOracleMonitorCount; ++m) {
    const auto monitor = static_cast<OracleMonitor>(m);
    sums[MetricKey("oracle.violations", {{"monitor", OracleMonitorName(monitor)}})] =
        oracle.violations(monitor);
  }
  return sums;
}

struct InstrumentedRun {
  std::string metrics_json;
  std::string trace_json;
  std::string lifecycle_json;
  std::string flight_dump;
  uint64_t oracle_violations = 0;
  uint64_t messages_published = 0;
  uint64_t data_delivered = 0;
  SimTime end_time = 0;
  std::map<std::string, uint64_t> counters;  // Registry counters at the end.
};

// `instrument` attaches metrics + tracer; `lifecycle` additionally attaches
// the full causal stack (tracker, oracle, flight recorder).  A non-null
// `field_sums` receives PingPongFieldSums just before attach and at the end.
InstrumentedRun RunPingPong(bool instrument, bool crash, bool lifecycle = false,
                            std::vector<FieldSums>* field_sums = nullptr) {
  // The system detaches on destruction and its counter bindings tolerate
  // either teardown order (RegistryDestroyed*System tests), but the tracer,
  // tracker and oracle are read here after the run, so they come first.
  MetricsRegistry registry;
  InvariantOracle oracle;
  FlightRecorder flight;
  PublishingSystemConfig config;
  config.cluster.node_count = 2;
  config.cluster.start_system_processes = false;
  PublishingSystem system(config);

  Tracer tracer(&system.sim());
  LifecycleTracker tracker(&system.sim());
  if (instrument) {
    Observability obs;
    obs.metrics = &registry;
    obs.tracer = &tracer;
    if (lifecycle) {
      tracker.AttachTracer(&tracer);
      tracker.AttachMetrics(&registry);
      tracker.AttachOracle(&oracle);
      tracker.AttachFlightRecorder(&flight);
      oracle.AttachFlightRecorder(&flight);
      oracle.AttachMetrics(&registry);
      obs.lifecycle = &tracker;
    }
    if (field_sums != nullptr) {
      field_sums->push_back(PingPongFieldSums(system, tracker, oracle));
    }
    system.EnableObservability(obs);
  }

  system.cluster().registry().Register("echo",
                                       [] { return std::make_unique<EchoProgram>(); });
  system.cluster().registry().Register("pinger",
                                       [] { return std::make_unique<PingerProgram>(40); });
  auto echo = system.cluster().Spawn(NodeId{2}, "echo");
  auto pinger = system.cluster().Spawn(NodeId{1}, "pinger", {Link{*echo, 1, 0, 0}});
  system.RunFor(Seconds(2));
  if (crash) {
    EXPECT_TRUE(system.CrashProcess(*echo).ok());
    EXPECT_TRUE(system.RunUntilRecovered(*echo, Seconds(30)));
    system.RunFor(Seconds(2));
  }
  (void)pinger;

  InstrumentedRun run;
  run.metrics_json = registry.ToJson();
  run.trace_json = tracer.ToChromeJson();
  run.lifecycle_json = tracker.TableToJson();
  run.flight_dump = flight.Dump("explicit", "end of run");
  run.oracle_violations = oracle.total_violations();
  run.messages_published = system.recorder().stats().messages_published;
  run.data_delivered = system.recorder().endpoint().stats().data_delivered;
  run.end_time = system.sim().Now();
  for (const auto& [key, counter] : registry.counters()) {
    run.counters[key] = counter->value();
  }
  if (field_sums != nullptr) {
    field_sums->push_back(PingPongFieldSums(system, tracker, oracle));
  }
  return run;
}

TEST(ObservabilityIntegration, IdenticalRunsSerializeByteIdentically) {
  InstrumentedRun a = RunPingPong(/*instrument=*/true, /*crash=*/true);
  InstrumentedRun b = RunPingPong(/*instrument=*/true, /*crash=*/true);
  EXPECT_GT(a.messages_published, 0u);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.trace_json, b.trace_json);
}

TEST(ObservabilityIntegration, InstrumentationDoesNotChangeBehaviour) {
  InstrumentedRun with = RunPingPong(/*instrument=*/true, /*crash=*/true);
  InstrumentedRun without = RunPingPong(/*instrument=*/false, /*crash=*/true);
  EXPECT_EQ(with.messages_published, without.messages_published);
  EXPECT_EQ(with.data_delivered, without.data_delivered);
  EXPECT_EQ(with.end_time, without.end_time);
}

TEST(ObservabilityIntegration, LifecycleStackDoesNotChangeBehaviour) {
  // The stronger equivalence claim for this PR: even with the full causal
  // stack attached — tracker, oracle, flight recorder — the run is
  // bit-identical to an uninstrumented one.
  InstrumentedRun with =
      RunPingPong(/*instrument=*/true, /*crash=*/true, /*lifecycle=*/true);
  InstrumentedRun without = RunPingPong(/*instrument=*/false, /*crash=*/true);
  EXPECT_EQ(with.messages_published, without.messages_published);
  EXPECT_EQ(with.data_delivered, without.data_delivered);
  EXPECT_EQ(with.end_time, without.end_time);
  EXPECT_EQ(with.oracle_violations, 0u);
}

TEST(ObservabilityIntegration, LifecycleExportsSerializeByteIdentically) {
  InstrumentedRun a =
      RunPingPong(/*instrument=*/true, /*crash=*/true, /*lifecycle=*/true);
  InstrumentedRun b =
      RunPingPong(/*instrument=*/true, /*crash=*/true, /*lifecycle=*/true);
  EXPECT_NE(a.lifecycle_json.find("\"messages\""), std::string::npos);
  EXPECT_EQ(a.lifecycle_json, b.lifecycle_json);
  EXPECT_EQ(a.flight_dump, b.flight_dump);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_TRUE(JsonChecker(a.lifecycle_json).Valid());
  EXPECT_TRUE(JsonChecker(a.flight_dump).Valid());
}

TEST(ObservabilityIntegration, MetricsCoverEveryLayerAndMatchLegacyStats) {
  // Every counter counts from attach: it must equal the growth of the stats
  // fields it mirrors between attach and the end of a crash-and-recovery run.
  std::vector<FieldSums> sums;
  InstrumentedRun run =
      RunPingPong(/*instrument=*/true, /*crash=*/true, /*lifecycle=*/true, &sums);
  ASSERT_EQ(sums.size(), 2u);
  for (const auto& [key, end] : sums[1]) {
    const auto it = run.counters.find(key);
    ASSERT_NE(it, run.counters.end()) << key;
    EXPECT_EQ(it->second, end - sums[0].at(key)) << key;
  }
  // ...and no counter escapes the check.  buf.* is the process-wide buffer
  // sink, fed by events rather than by a component's stats.
  for (const auto& [key, value] : run.counters) {
    if (!key.starts_with("buf.")) {
      EXPECT_TRUE(sums[1].contains(key)) << key << " is not checked against a field";
    }
  }
  EXPECT_GT(run.counters.at("recovery.completed"), 0u);
  EXPECT_GT(run.counters.at("recovery.replayed_messages"), 0u);
  EXPECT_GT(run.counters.at("recorder.messages_published"), 0u);
  EXPECT_GT(run.counters.at("sim.events_cancelled"), 0u);
  EXPECT_TRUE(JsonChecker(run.metrics_json).Valid());
}

// The storage.* counters against WalStats, with one and two stripes; the
// compaction seals and reopens active segments.
void ExpectWalCountersMatchStats(WalOptions options) {
  std::filesystem::remove_all(options.dir);
  auto wal = Wal::Open(options);
  ASSERT_TRUE(wal.ok());
  const WalStats at_attach = wal->get()->stats();
  MetricsRegistry registry;
  Observability obs;
  obs.metrics = &registry;
  wal->get()->SetObservability(obs);
  wal->get()->SetSnapshotSource([] { return std::vector<Bytes>{Bytes(64, 0x5a)}; });
  for (uint64_t i = 1; i <= 200; ++i) {
    ASSERT_TRUE(wal->get()->Append(Bytes(100, static_cast<uint8_t>(i)), i).ok());
  }
  ASSERT_TRUE(wal->get()->CompactNow());
  ASSERT_TRUE(wal->get()->Append(Bytes(100, 0x11), 201).ok());
  ASSERT_TRUE(wal->get()->Sync().ok());

  const WalStats& end = wal->get()->stats();
  EXPECT_GT(end.compactions, 0u);
  EXPECT_EQ(registry.GetCounter("storage.appends")->value(),
            end.records_appended - at_attach.records_appended);
  EXPECT_EQ(registry.GetCounter("storage.bytes_appended")->value(),
            end.bytes_appended - at_attach.bytes_appended);
  EXPECT_EQ(registry.GetCounter("storage.syncs")->value(), end.syncs - at_attach.syncs);
  EXPECT_EQ(registry.GetCounter("storage.segments_created")->value(),
            end.segments_created - at_attach.segments_created);
  EXPECT_EQ(registry.GetCounter("storage.compactions")->value(),
            end.compactions - at_attach.compactions);
  wal->get()->SetObservability(Observability{});
  wal->reset();
  std::filesystem::remove_all(options.dir);
}

TEST(ObservabilityIntegration, StorageCountersMatchWalStats) {
  WalOptions single;
  single.dir = (std::filesystem::path(testing::TempDir()) / "pub_obs_wal_single").string();
  single.segment_bytes = 2048;
  {
    SCOPED_TRACE("one stripe");
    ExpectWalCountersMatchStats(single);
  }
  WalOptions striped = single;
  striped.dir = (std::filesystem::path(testing::TempDir()) / "pub_obs_wal_striped").string();
  striped.stripes = 2;
  {
    SCOPED_TRACE("two stripes");
    ExpectWalCountersMatchStats(striped);
  }
}

TEST(ObservabilityIntegration, SteadyStatePublishCopiesNoPayloadBytes) {
  // The zero-copy contract (ISSUE acceptance criterion): with no faults
  // injected, the publish path sender -> wire -> recorder -> storage shares
  // one allocation per message; buf.bytes_copied stays 0 while
  // buf.bytes_shared proves the payload actually travelled by refcount.
  MetricsRegistry registry;
  PublishingSystemConfig config;
  config.cluster.node_count = 2;
  config.cluster.start_system_processes = false;
  PublishingSystem system(config);
  Observability obs;
  obs.metrics = &registry;
  system.EnableObservability(obs);

  system.cluster().registry().Register("echo",
                                       [] { return std::make_unique<EchoProgram>(); });
  system.cluster().registry().Register("pinger",
                                       [] { return std::make_unique<PingerProgram>(40); });
  auto echo = system.cluster().Spawn(NodeId{2}, "echo");
  system.cluster().Spawn(NodeId{1}, "pinger", {Link{*echo, 1, 0, 0}});
  system.RunFor(Seconds(2));

  EXPECT_GT(system.recorder().stats().messages_published, 0u);
  EXPECT_EQ(registry.GetCounter("buf.bytes_copied")->value(), 0u);
  EXPECT_GT(registry.GetCounter("buf.bytes_shared")->value(), 0u);
}

TEST(ObservabilityIntegration, FaultInjectionIsTheOnlyCopier) {
  // Corrupting one frame pays for exactly the copies the damage needs (the
  // CoW clone at the injection site, plus the receiver's corrupt-then-unwrap
  // on delivery) and nothing else.
  MetricsRegistry registry;
  PublishingSystemConfig config;
  config.cluster.node_count = 2;
  config.cluster.start_system_processes = false;
  config.cluster.faults.receiver_error_rate = 0.2;
  PublishingSystem system(config);
  Observability obs;
  obs.metrics = &registry;
  system.EnableObservability(obs);

  system.cluster().registry().Register("echo",
                                       [] { return std::make_unique<EchoProgram>(); });
  system.cluster().registry().Register("pinger",
                                       [] { return std::make_unique<PingerProgram>(10); });
  auto echo = system.cluster().Spawn(NodeId{2}, "echo");
  system.cluster().Spawn(NodeId{1}, "pinger", {Link{*echo, 1, 0, 0}});
  system.RunFor(Seconds(2));

  EXPECT_GT(system.recorder().stats().messages_published, 0u);
  EXPECT_GT(registry.GetCounter("buf.bytes_copied")->value(), 0u);
}

TEST(ObservabilityIntegration, TraceCapturesRecoveryTimeline) {
  PublishingSystemConfig config;
  config.cluster.node_count = 2;
  config.cluster.start_system_processes = false;
  PublishingSystem system(config);
  MetricsRegistry registry;
  Tracer tracer(&system.sim());
  Observability obs;
  obs.metrics = &registry;
  obs.tracer = &tracer;
  system.EnableObservability(obs);

  system.cluster().registry().Register("echo",
                                       [] { return std::make_unique<EchoProgram>(); });
  system.cluster().registry().Register("pinger",
                                       [] { return std::make_unique<PingerProgram>(20); });
  auto echo = system.cluster().Spawn(NodeId{2}, "echo");
  system.cluster().Spawn(NodeId{1}, "pinger", {Link{*echo, 1, 0, 0}});
  system.RunFor(Seconds(1));
  ASSERT_TRUE(system.CrashProcess(*echo).ok());
  ASSERT_TRUE(system.RunUntilRecovered(*echo, Seconds(30)));

  EXPECT_TRUE(tracer.Contains("recovery.crash_notice"));
  EXPECT_TRUE(tracer.Contains("recovery.process"));
  EXPECT_TRUE(tracer.Contains("recovery.replay"));
  EXPECT_TRUE(tracer.Contains("recovery.caught_up"));
  EXPECT_TRUE(tracer.Contains("net.transmit"));
  EXPECT_TRUE(tracer.Contains("transport.rtt"));
  EXPECT_TRUE(tracer.Contains("recorder.publish"));
  EXPECT_EQ(registry.GetCounter("recovery.completed")->value(), 1u);
}

// Teardown order: counter bindings are released by whichever of the
// registry and the system goes first.  Both tests leave bindings live with
// traffic since attach; ASan (the obs CI job) checks the releases.
void RunTrafficWithLiveBindings(PublishingSystem& system, MetricsRegistry& registry) {
  Observability obs;
  obs.metrics = &registry;
  system.EnableObservability(obs);
  system.cluster().registry().Register("echo",
                                       [] { return std::make_unique<EchoProgram>(); });
  system.cluster().registry().Register("pinger",
                                       [] { return std::make_unique<PingerProgram>(5); });
  auto echo = system.cluster().Spawn(NodeId{2}, "echo");
  system.cluster().Spawn(NodeId{1}, "pinger", {Link{*echo, 1, 0, 0}});
  system.RunFor(Seconds(1));
  ASSERT_EQ(registry.GetCounter("recorder.messages_published")->value(),
            system.recorder().stats().messages_published);
}

PublishingSystemConfig TwoNodeConfig() {
  PublishingSystemConfig config;
  config.cluster.node_count = 2;
  config.cluster.start_system_processes = false;
  return config;
}

TEST(ObservabilityIntegration, RegistryDestroyedBeforeSystem) {
  auto system = std::make_unique<PublishingSystem>(TwoNodeConfig());
  auto registry = std::make_unique<MetricsRegistry>();
  RunTrafficWithLiveBindings(*system, *registry);
  registry.reset();
  system.reset();  // Releases bindings into a dead registry: a no-op.
}

TEST(ObservabilityIntegration, RegistryDestroyedAfterSystem) {
  auto registry = std::make_unique<MetricsRegistry>();
  auto system = std::make_unique<PublishingSystem>(TwoNodeConfig());
  RunTrafficWithLiveBindings(*system, *registry);
  const uint64_t published = system->recorder().stats().messages_published;
  EXPECT_GT(published, 0u);
  system.reset();  // Folds each binding's count into its counter.
  EXPECT_EQ(registry->GetCounter("recorder.messages_published")->value(), published);
  EXPECT_TRUE(JsonChecker(registry->ToJson()).Valid());
}

TEST(ObservabilityIntegration, DetachingResetsToNullObject) {
  PublishingSystemConfig config;
  config.cluster.node_count = 2;
  config.cluster.start_system_processes = false;
  PublishingSystem system(config);
  MetricsRegistry registry;
  Observability obs;
  obs.metrics = &registry;
  system.EnableObservability(obs);
  system.EnableObservability(Observability{});  // Detach.

  system.cluster().registry().Register("echo",
                                       [] { return std::make_unique<EchoProgram>(); });
  system.cluster().registry().Register("pinger",
                                       [] { return std::make_unique<PingerProgram>(5); });
  auto echo = system.cluster().Spawn(NodeId{2}, "echo");
  system.cluster().Spawn(NodeId{1}, "pinger", {Link{*echo, 1, 0, 0}});
  system.RunFor(Seconds(1));
  // The registry saw nothing after the detach (instruments exist from the
  // first attach but hold no samples).
  EXPECT_EQ(registry.GetCounter("recorder.messages_published")->value(), 0u);
  EXPECT_GT(system.recorder().stats().messages_published, 0u);
}

}  // namespace
}  // namespace publishing
