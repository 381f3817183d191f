#include "perfbench/workloads.h"

#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>

#include "perfbench/wrappers.h"
#include "src/common/buffer.h"
#include "src/common/checksum.h"
#include "src/core/publishing_system.h"
#include "src/internet/internet.h"
#include "src/net/link_layer.h"
#include "src/obs/lifecycle.h"
#include "src/obs/oracle.h"
#include "src/sim/parallel.h"
#include "src/storage/recovered_db.h"
#include "src/storage/wal.h"
#include "src/transport/packet.h"

namespace perfbench {

using namespace publishing;

SpanTracer* g_tracer = nullptr;

namespace {

// --- Workload sizes -------------------------------------------------------

constexpr uint64_t kPingpongPings = 100'000;

constexpr size_t kInternetSegments = 4;
constexpr size_t kInternetNodesPerSegment = 8;
constexpr size_t kInternetUsersPerSegment = 2340;
constexpr uint64_t kInternetPingsPerUser = 2;
constexpr size_t kInternetWaves = 10;
constexpr SimDuration kInternetWaveGap = Seconds(5);

constexpr size_t kRecoveryServers = 64;
constexpr uint64_t kRecoveryPingsPerUser = 150;
constexpr uint32_t kRecoveryMinBody = 256;
constexpr uint32_t kRecoveryMaxBody = 4096;
constexpr size_t kRecoveryCrashRounds = 3;

// A closed loop that makes no progress for this long has lost a message.
constexpr SimDuration kStallLimit = Seconds(120);

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

uint64_t Fnv(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash = (hash ^ ((value >> (8 * i)) & 0xFF)) * 1099511628211ull;
  }
  return hash;
}

double WallSeconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// --- Driving the simulator ------------------------------------------------

struct Stepper {
  Simulator* sim = nullptr;
  bool traced = false;
  std::function<size_t()> pending;  // Pending events over all domains.
  LayerCounts* counts = nullptr;

  bool StepOnce() {
    bool stepped = false;
    if (traced) {
      Span span(Layer::kSim);
      stepped = sim->Step();
    } else {
      stepped = sim->Step();
    }
    if (stepped) {
      ++counts->sim_events;
      if (traced) {
        counts->sim_pending_peak =
            std::max<uint64_t>(counts->sim_pending_peak, pending());
      }
    }
    return stepped;
  }

  // Steps until `done`; false if the queue drains first or `progress` stops
  // advancing for kStallLimit of virtual time.
  bool Until(const std::function<bool()>& done, const SimTime* progress) {
    uint64_t steps = 0;
    while (!done()) {
      if (!StepOnce()) {
        return done();
      }
      if ((++steps & 4095) == 0 && sim->Now() - *progress > kStallLimit) {
        return false;
      }
    }
    return true;
  }

  // RunFor(span) with every event that fires inside it stepped singly: a
  // sentinel at the deadline ends the stepped part, and RunUntil runs the
  // same-instant events queued behind it and advances every domain clock.
  void For(SimDuration span) {
    const SimTime deadline = sim->Now() + span;
    bool reached = false;
    sim->ScheduleAt(deadline, [&reached] { reached = true; });
    while (!reached && StepOnce()) {
    }
    sim->RunUntil(deadline);
  }

  // Steps until no event is pending (or `limit` steps), for quiescence.
  void Drain(uint64_t limit) {
    for (uint64_t i = 0; i < limit && StepOnce(); ++i) {
    }
  }
};

void Check(RoundResult& r, bool ok, const std::string& what) {
  if (!ok) {
    r.errors.push_back(what);
  }
}

// Everything a round wraps for its traced pass.  Declared before the system
// it wraps, so the wrappers outlive it.
struct Wrapping {
  FrameSampler sampler;
  std::vector<std::unique_ptr<TimedStation>> stations;
  std::vector<std::unique_ptr<TimedListener>> listeners;

  void WrapStation(Station* station, Medium& medium) {
    stations.push_back(std::make_unique<TimedStation>(station, &sampler));
    stations.back()->Install(medium);
  }
  void WrapRecorder(Recorder& recorder, Medium& medium) {
    listeners.push_back(std::make_unique<TimedListener>(&recorder));
    listeners.back()->Install(medium, recorder.node());
  }
  void Collect(TraceResult& trace, LayerCounts& counts) const {
    for (const auto& s : stations) {
      trace.station_frames += s->frames();
      trace.station_payload_bytes += s->payload_bytes();
      counts.station_broadcasts += s->broadcasts();
    }
    for (const auto& l : listeners) {
      trace.listener_frames += l->frames();
      trace.listener_payload_bytes += l->payload_bytes();
    }
  }
};

// Times CRC32 and packet parse/encode alone over the captured frames.
void TimeCodecsAlone(const FrameSampler& sampler, TraceResult& trace) {
  std::vector<Buffer> payloads;
  std::vector<Buffer> bodies;
  std::vector<Packet> packets;
  size_t payload_bytes = 0;
  for (const Frame& frame : sampler.frames()) {
    if (frame.payload.empty()) {
      continue;
    }
    payloads.push_back(frame.payload);
    payload_bytes += frame.payload.size();
    if (frame.type != FrameType::kData || !frame.segments.empty()) {
      continue;
    }
    auto body = LinkUnwrap(frame.payload);
    if (!body.ok()) {
      continue;
    }
    auto packet = ParsePacket(body->span());
    if (!packet.ok()) {
      continue;
    }
    bodies.push_back(*body);
    packets.push_back(std::move(*packet));
  }
  if (payloads.empty()) {
    return;
  }
  uint64_t fold = 0;
  // At least 8 MiB of CRC input, however small the frames are.
  const size_t crc_reps = std::max<size_t>(1, (8u << 20) / std::max<size_t>(1, payload_bytes));
  int64_t start = NowNs();
  for (size_t rep = 0; rep < crc_reps; ++rep) {
    for (const Buffer& p : payloads) {
      fold += Crc32(p.span());
    }
  }
  trace.crc_ns_per_kib = static_cast<double>(NowNs() - start) * 1024.0 /
                         static_cast<double>(payload_bytes * crc_reps);
  if (!packets.empty()) {
    const size_t reps = std::max<size_t>(1, 200'000 / packets.size());
    start = NowNs();
    for (size_t rep = 0; rep < reps; ++rep) {
      for (const Buffer& b : bodies) {
        auto parsed = ParsePacket(b.span());
        fold += parsed.ok() ? parsed->header.id.sequence : 1;
      }
    }
    trace.parse_ns = static_cast<double>(NowNs() - start) /
                     static_cast<double>(reps * bodies.size());
    start = NowNs();
    for (size_t rep = 0; rep < reps; ++rep) {
      for (const Packet& p : packets) {
        fold += SerializePacket(p).size();
      }
    }
    trace.encode_ns = static_cast<double>(NowNs() - start) /
                      static_cast<double>(reps * packets.size());
    for (size_t i = 0; i < packets.size(); ++i) {
      const Bytes again = SerializePacket(packets[i]);
      if (!std::equal(again.begin(), again.end(), bodies[i].begin(), bodies[i].end())) {
        trace.codec_roundtrip_ok = false;
      }
    }
  }
  static std::atomic<uint64_t> sink{0};
  sink.fetch_add(fold, std::memory_order_relaxed);
}

void AddTransport(Signature& sig, LayerCounts& counts, const TransportStats& t) {
  sig.data_sent += t.data_sent;
  sig.data_delivered += t.data_delivered;
  sig.acks_sent += t.acks_sent;
  sig.retransmits += t.retransmits;
  sig.duplicates_suppressed += t.duplicates_suppressed;
  counts.transport_retransmits += t.retransmits;
  counts.transport_duplicates += t.duplicates_suppressed;
}

void AddMedium(Signature& sig, LayerCounts& counts, const MediumStats& m) {
  sig.frames_sent += m.frames_sent;
  sig.frames_delivered += m.frames_delivered;
  sig.bytes_sent += m.bytes_sent;
  sig.collisions += m.collisions;
  counts.net_frames += m.frames_delivered;
  counts.net_wire_bytes += m.bytes_sent;
  counts.net_collisions += m.collisions;
}

void AddRecorder(Signature& sig, LayerCounts& counts, const RecorderStats& s) {
  sig.frames_seen += s.frames_seen;
  sig.messages_published += s.messages_published;
  sig.bytes_published += s.bytes_published;
  sig.replay_bursts += s.replay_bursts_seen;
  sig.replay_segments += s.replay_segments_seen;
  counts.core_messages_published += s.messages_published;
  counts.core_replay_bursts += s.replay_bursts_seen;
  counts.core_replay_segments += s.replay_segments_seen;
}

void FinishRtts(RoundResult& r) {
  r.signature.rtt_count = r.rtts.size();
  uint64_t hash = 1469598103934665603ull;
  for (SimTime t : r.rtts) {
    hash = Fnv(hash, static_cast<uint64_t>(t));
  }
  r.signature.rtt_hash = hash;
}

void FinishBuffers(RoundResult& r) {
  const BufferStats buffers = GetBufferStats();
  r.counts.buffer_bytes_copied = buffers.bytes_copied;
  r.counts.buffer_bytes_shared = buffers.bytes_shared;
}

void FinishTrace(RoundResult& r, const SpanTracer& tracer, const Wrapping& wrapping) {
  for (size_t i = 0; i < kLayerCount; ++i) {
    r.trace.tallies[i] = tracer.tally(static_cast<Layer>(i));
  }
  r.trace.attribution = Attribute(tracer, r.measured_ns);
  wrapping.Collect(r.trace, r.counts);
  TimeCodecsAlone(wrapping.sampler, r.trace);
  Check(r, r.trace.codec_roundtrip_ok, "SerializePacket(ParsePacket(frame)) differs from the frame");
}

// Sends one well-formed broadcast data packet from `src` (self-test only).
void InjectBroadcast(Medium& medium, NodeId src) {
  Packet packet;
  packet.header.src_process = ProcessId{src, 999};
  packet.header.dst_process = ProcessId{kBroadcastNode, 999};
  packet.header.src_node = src;
  packet.header.dst_node = kBroadcastNode;
  packet.header.id = MessageId{packet.header.src_process, 1};
  packet.body = Bytes{1, 2, 3};
  Frame frame;
  frame.src = src;
  frame.dst = kBroadcastNode;
  frame.type = FrameType::kData;
  frame.payload = LinkWrap(SerializePacket(packet));
  medium.Send(std::move(frame));
}

// --- pingpong ----------------------------------------------------------------

RoundResult RunPingpong(const RoundOptions& o) {
  RoundResult r;
  const uint64_t pings = o.pings != 0 ? o.pings : kPingpongPings;
  PingSink sink;
  sink.faults = o.sabotage.programs;
  SpanTracer tracer;
  Wrapping wrapping;
  const BodySpec spec{o.seed, 8, 8};

  const int64_t setup_start = NowNs();
  PublishingSystemConfig config;
  config.cluster.node_count = 2;
  config.cluster.start_system_processes = false;
  config.cluster.seed = o.seed;
  auto system = std::make_unique<PublishingSystem>(config);
  sink.sim = &system->sim();
  system->cluster().registry().Register(
      "echo", [&sink] { return std::make_unique<BenchEcho>(&sink); });
  system->cluster().registry().Register("pinger", [&sink, spec, pings] {
    return std::make_unique<BenchPinger>(&sink, spec, 0, pings);
  });
  auto echo = system->cluster().Spawn(NodeId{2}, "echo");
  r.setup_s = WallSeconds(NowNs() - setup_start);
  if (o.setup_only) {
    return r;
  }
  if (!echo.ok()) {
    Check(r, false, "spawn echo failed");
    return r;
  }

  Simulator& sim = system->sim();
  Stepper drive{&sim, o.traced, [&sim] { return sim.pending_events(); }, &r.counts};
  if (o.traced) {
    for (uint32_t n = 1; n <= 2; ++n) {
      wrapping.WrapStation(&system->cluster().kernel(NodeId{n})->endpoint(),
                           system->cluster().medium());
    }
    wrapping.WrapStation(&system->recorder().endpoint(), system->cluster().medium());
    wrapping.WrapRecorder(system->recorder(), system->cluster().medium());
  }
  ResetBufferStats();
  ActiveTracer active(o.traced ? &tracer : nullptr);
  const int64_t run_start = NowNs();
  auto pinger = system->cluster().Spawn(NodeId{1}, "pinger", {Link{*echo, 1, 0, 0}});
  Check(r, pinger.ok(), "spawn pinger failed");
  if (o.sabotage.inject_broadcast) {
    InjectBroadcast(system->cluster().medium(), NodeId{1});
  }
  const bool finished =
      drive.Until([&sink] { return sink.users_done == 1; }, &sink.last_progress);
  const int64_t run_ns = NowNs() - run_start;
  r.run_s = WallSeconds(run_ns);
  r.measured_ns = run_ns;
  r.messages = sink.delivered;
  FinishBuffers(r);

  r.attempted = pings;
  r.failed = pings - std::min(pings, sink.pongs) + sink.mismatches;
  Check(r, finished, "pinger did not receive every pong");
  Check(r, sink.mismatches == 0, "pong body differs from its ping");
  const auto* e = dynamic_cast<const BenchEcho*>(
      system->cluster().kernel(NodeId{2})->ProgramFor(*echo));
  Check(r, e != nullptr && (!finished || e->echoed() == pings),
        "echo server count differs from the pings sent");

  r.rtts = std::move(sink.rtts);
  FinishRtts(r);
  AddMedium(r.signature, r.counts, system->cluster().medium().stats());
  for (uint32_t n = 1; n <= 2; ++n) {
    NodeKernel* k = system->cluster().kernel(NodeId{n});
    AddTransport(r.signature, r.counts, k->endpoint().stats());
    r.counts.demos_replay_accepted += k->stats().replay_accepted;
  }
  AddTransport(r.signature, r.counts, system->recorder().endpoint().stats());
  AddRecorder(r.signature, r.counts, system->recorder().stats());
  r.signature.end_vns = sim.Now();
  if (o.traced) {
    FinishTrace(r, tracer, wrapping);
  }
  return r;
}

// --- internet ----------------------------------------------------------------

RoundResult RunInternet(const RoundOptions& o) {
  RoundResult r;
  const size_t users_per_segment =
      o.users_per_segment != 0 ? o.users_per_segment : kInternetUsersPerSegment;
  PingSink sink;
  sink.faults = o.sabotage.programs;
  SpanTracer tracer;
  Wrapping wrapping;
  const BodySpec spec{o.seed, 8, 8};
  InvariantOracle oracle(OracleOptions{.policy = OraclePolicy::kCount});

  const int64_t setup_start = NowNs();
  InternetConfig config;
  config.segments = kInternetSegments;
  config.nodes_per_segment = kInternetNodesPerSegment;
  config.seed = o.seed;
  config.workers = 1;
  // No faults: push the retransmission timer past any queueing backlog, as
  // bench_internetwork does, so latency is not poisoned by retransmit storms.
  config.kernel.transport.retransmit_timeout = publishing::Seconds(60);
  config.kernel.transport.max_retransmit_timeout = publishing::Seconds(120);
  config.gateway.max_queue_frames = o.sabotage.tiny_gateway_queues ? 1 : 256;
  config.gateway.max_queue_bytes = o.sabotage.tiny_gateway_queues ? 64 : 1024 * 1024;
  config.start_recovery_managers = false;
  auto net = std::make_unique<Internet>(config);
  std::unique_ptr<LifecycleTracker> lifecycle;
  if (o.lifecycle) {
    lifecycle = std::make_unique<LifecycleTracker>(&net->sim(), /*max_messages=*/1 << 18);
    lifecycle->AttachOracle(&oracle);
    Observability obs;
    obs.lifecycle = lifecycle.get();
    net->EnableObservability(obs);
  }
  sink.sim = &net->sim();
  uint64_t next_user = 0;
  net->registry().Register("echo", [&sink] { return std::make_unique<BenchEcho>(&sink); });
  net->registry().Register("pinger", [&sink, spec, &next_user] {
    return std::make_unique<BenchPinger>(&sink, spec, next_user++, kInternetPingsPerUser);
  });
  std::vector<std::vector<ProcessId>> echoes(kInternetSegments);
  bool spawned = true;
  for (size_t s = 0; s < kInternetSegments; ++s) {
    for (size_t n = 0; n < kInternetNodesPerSegment; ++n) {
      auto echo = net->Spawn(Internet::ProcessingNode(s, n), "echo");
      spawned = spawned && echo.ok();
      echoes[s].push_back(echo.ok() ? *echo : ProcessId{});
    }
  }
  r.setup_s = WallSeconds(NowNs() - setup_start);
  if (o.setup_only) {
    net->EnableObservability(Observability{});
    return r;
  }
  if (!spawned) {
    Check(r, false, "spawn echo failed");
    return r;
  }

  Simulator& sim = net->sim();
  auto pending = [&sim] {
    size_t total = 0;
    for (size_t d = 0; d < sim.core().domain_count(); ++d) {
      total += sim.core().domain(d)->pending_events();
    }
    return total;
  };
  Stepper drive{&sim, o.traced, pending, &r.counts};
  if (o.traced) {
    for (size_t s = 0; s < kInternetSegments; ++s) {
      for (size_t n = 0; n < kInternetNodesPerSegment; ++n) {
        wrapping.WrapStation(&net->kernel(Internet::ProcessingNode(s, n))->endpoint(),
                             net->medium(s));
      }
      wrapping.WrapStation(&net->recorder(s).endpoint(), net->medium(s));
      wrapping.WrapRecorder(net->recorder(s), net->medium(s));
    }
  }
  ResetBufferStats();
  ActiveTracer active(o.traced ? &tracer : nullptr);
  const int64_t run_start = NowNs();
  // Users arrive in waves.  User i of segment s lives on node i % 8 and talks
  // to an echo on another node of its segment chosen from the seed; every
  // fourth user talks to the next segment around the ring instead.
  const size_t per_wave = users_per_segment / kInternetWaves;
  size_t users = 0;
  for (size_t wave = 0; wave < kInternetWaves; ++wave) {
    for (size_t s = 0; s < kInternetSegments; ++s) {
      for (size_t j = 0; j < per_wave; ++j) {
        const size_t i = wave * per_wave + j;
        const size_t offset = 1 + SplitMix64(o.seed ^ (s << 32) ^ i) % (kInternetNodesPerSegment - 1);
        const size_t target_segment = i % 4 == 0 ? (s + 1) % kInternetSegments : s;
        const ProcessId& echo =
            echoes[target_segment][(i + offset) % kInternetNodesPerSegment];
        auto pinger = net->Spawn(Internet::ProcessingNode(s, i % kInternetNodesPerSegment),
                                 "pinger", {Link{echo, 1, 0, 0}});
        Check(r, pinger.ok(), "spawn pinger failed");
        ++users;
      }
    }
    if (o.sabotage.inject_broadcast && wave == 0) {
      InjectBroadcast(net->medium(0), Internet::ProcessingNode(0, 0));
    }
    drive.For(kInternetWaveGap);
  }
  const bool finished =
      drive.Until([&sink, users] { return sink.users_done == users; }, &sink.last_progress);
  const int64_t run_ns = NowNs() - run_start;
  r.run_s = WallSeconds(run_ns);
  r.measured_ns = run_ns;
  r.messages = sink.delivered;
  FinishBuffers(r);
  // Let in-flight acknowledgements settle so the oracle sees quiescence.
  Stepper{&sim, false, pending, &r.counts}.Drain(10'000'000);

  const uint64_t pings = users * kInternetPingsPerUser;
  uint64_t gateway_drops = 0;
  for (size_t g = 0; g < net->gateway_count(); ++g) {
    const GatewayStats gs = net->gateway(g).stats();
    r.counts.internet_forwarded += gs.frames_forwarded;
    gateway_drops += gs.dropped_queue_full + gs.dropped_down;
  }
  r.counts.internet_gateway_drops = gateway_drops;
  if (lifecycle != nullptr && o.sabotage.duplicate_read) {
    for (const auto& [id, record] : lifecycle->table()) {
      if (record.Saw(LifecycleStage::kRead) && record.dst_process.IsValid()) {
        lifecycle->Observe(CausalContext{id, id.sender.origin, 0, record.flags},
                           LifecycleStage::kRead, record.dst_node, record.dst_process);
        break;
      }
    }
  }
  if (lifecycle != nullptr) {
    oracle.CheckQuiescent();
    r.counts.oracle_violations = oracle.total_violations();
    r.counts.obs_lifecycle_records = lifecycle->observed();
  }
  r.attempted = pings;
  r.failed = pings - std::min(pings, sink.pongs) + sink.mismatches +
             r.counts.oracle_violations;
  Check(r, finished, "a user did not receive every pong");
  Check(r, sink.mismatches == 0, "pong body differs from its ping");
  Check(r, r.counts.oracle_violations == 0, "invariant oracle reported violations");
  Check(r, gateway_drops == 0, "a gateway dropped frames");
  Check(r, r.counts.internet_forwarded > 0, "no frame crossed a gateway");

  r.rtts = std::move(sink.rtts);
  FinishRtts(r);
  for (size_t s = 0; s < kInternetSegments; ++s) {
    AddMedium(r.signature, r.counts, net->medium(s).stats());
    for (size_t n = 0; n < kInternetNodesPerSegment; ++n) {
      NodeKernel* k = net->kernel(Internet::ProcessingNode(s, n));
      AddTransport(r.signature, r.counts, k->endpoint().stats());
      r.counts.demos_replay_accepted += k->stats().replay_accepted;
    }
    AddTransport(r.signature, r.counts, net->recorder(s).endpoint().stats());
    AddRecorder(r.signature, r.counts, net->recorder(s).stats());
  }
  r.signature.end_vns = sim.Now();
  if (o.traced) {
    FinishTrace(r, tracer, wrapping);
  }
  if (lifecycle != nullptr) {
    net->EnableObservability(Observability{});
  }
  return r;
}

// --- recovery ----------------------------------------------------------------

RoundResult RunRecovery(const RoundOptions& o) {
  namespace fs = std::filesystem;
  RoundResult r;
  const uint64_t pings = o.pings != 0 ? o.pings : kRecoveryPingsPerUser;
  const size_t crash_rounds = o.crash_rounds != 0 ? o.crash_rounds : kRecoveryCrashRounds;
  static std::atomic<uint64_t> round_counter{0};
  const fs::path dir = fs::path(o.wal_root) /
                       ("wal-" + std::to_string(::getpid()) + "-" +
                        std::to_string(round_counter.fetch_add(1)));
  fs::remove_all(dir);
  // Removes the WAL directory however the round ends.
  struct DirGuard {
    fs::path path;
    ~DirGuard() {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  } guard{dir};

  PingSink sink;
  sink.faults = o.sabotage.programs;
  SpanTracer tracer;
  Wrapping wrapping;
  const BodySpec spec{o.seed, kRecoveryMinBody, kRecoveryMaxBody};

  // The Wal is the caller's backend, opened before the system is built; its
  // directory and file creation are filesystem metadata latency, not setup
  // work of the system, and are left out of setup_s.
  WalOptions wal_options;
  wal_options.dir = dir.string();
  auto wal = Wal::Open(wal_options);
  if (!wal.ok()) {
    Check(r, false, "cannot open WAL: " + wal.status().message());
    return r;
  }
  TimedBackend timed(wal->get());
  const int64_t setup_start = NowNs();
  PublishingSystemConfig config;
  config.cluster.node_count = 2;
  config.cluster.start_system_processes = false;
  config.cluster.seed = o.seed;
  // Detection is a constant; keep it short so the phase measures replay.
  config.recovery.watchdog_period = Millis(50);
  config.recovery.watchdog_timeout = Millis(200);
  config.start_recovery_manager = !o.sabotage.no_recovery_manager;
  config.storage_backend = o.traced ? static_cast<StorageBackend*>(&timed) : wal->get();
  auto system = std::make_unique<PublishingSystem>(config);
  sink.sim = &system->sim();
  uint64_t next_user = 0;
  system->cluster().registry().Register(
      "echo", [&sink] { return std::make_unique<BenchEcho>(&sink); });
  system->cluster().registry().Register("pinger", [&sink, spec, pings, &next_user] {
    return std::make_unique<BenchPinger>(&sink, spec, next_user++, pings);
  });
  std::vector<ProcessId> echoes;
  for (size_t i = 0; i < kRecoveryServers; ++i) {
    auto echo = system->cluster().Spawn(NodeId{2}, "echo");
    if (!echo.ok()) {
      Check(r, false, "spawn echo failed");
      return r;
    }
    echoes.push_back(*echo);
  }
  r.setup_s = WallSeconds(NowNs() - setup_start);
  if (o.setup_only) {
    return r;
  }

  Simulator& sim = system->sim();
  Stepper drive{&sim, o.traced, [&sim] { return sim.pending_events(); }, &r.counts};
  if (o.traced) {
    for (uint32_t n = 1; n <= 2; ++n) {
      wrapping.WrapStation(&system->cluster().kernel(NodeId{n})->endpoint(),
                           system->cluster().medium());
    }
    wrapping.WrapStation(&system->recorder().endpoint(), system->cluster().medium());
    wrapping.WrapRecorder(system->recorder(), system->cluster().medium());
  }
  ResetBufferStats();
  ActiveTracer active(o.traced ? &tracer : nullptr);

  // Phase 1: load.
  const int64_t load_start = NowNs();
  std::vector<ProcessId> pingers;
  for (size_t i = 0; i < kRecoveryServers; ++i) {
    auto pinger = system->cluster().Spawn(NodeId{1}, "pinger", {Link{echoes[i], 1, 0, 0}});
    Check(r, pinger.ok(), "spawn pinger failed");
    if (pinger.ok()) {
      pingers.push_back(*pinger);
    }
  }
  if (o.sabotage.inject_broadcast) {
    InjectBroadcast(system->cluster().medium(), NodeId{1});
  }
  const bool loaded = drive.Until(
      [&sink] { return sink.users_done == kRecoveryServers; }, &sink.last_progress);
  const int64_t load_ns = NowNs() - load_start;
  r.run_s = WallSeconds(load_ns);
  r.messages = sink.delivered;
  FinishBuffers(r);
  const uint64_t total_pings = kRecoveryServers * pings;
  // Attempts: every ping, every process the rebuild must know, and every
  // process recovery.
  r.attempted = total_pings + 2 * kRecoveryServers + kRecoveryServers * crash_rounds;
  r.failed = total_pings - std::min(total_pings, sink.pongs) + sink.mismatches;
  Check(r, loaded, "a pinger did not receive every pong");
  Check(r, sink.mismatches == 0, "pong body differs from its ping");
  NodeKernel* server_node = system->cluster().kernel(NodeId{2});
  auto echoed = [server_node](const ProcessId& pid) -> uint64_t {
    const auto* e = dynamic_cast<const BenchEcho*>(server_node->ProgramFor(pid));
    return e == nullptr ? UINT64_MAX : e->echoed();
  };
  std::vector<uint64_t> before;
  for (const ProcessId& pid : echoes) {
    before.push_back(echoed(pid));
  }

  // Phase 2: flush, then rebuild the database from the WAL directory alone.
  const int64_t rebuild_phase_start = NowNs();
  Check(r, system->storage().Flush().ok(), "WAL flush failed");
  if (o.sabotage.wipe_wal_before_rebuild) {
    for (const auto& entry : fs::directory_iterator(dir)) {
      fs::remove_all(entry.path());
    }
  }
  {
    RecoveryReport report;
    const int64_t rebuild_start = NowNs();
    Result<StableStorage> rebuilt = [&] {
      Span span(Layer::kStorage);
      return RecoverStableStorage(dir.string(), &report);
    }();
    r.rebuild_s = WallSeconds(NowNs() - rebuild_start);
    r.counts.storage_records_rebuilt = report.records_applied;
    Check(r, rebuilt.ok(), "RecoverStableStorage failed");
    size_t unknown = 0;
    if (rebuilt.ok()) {
      for (const ProcessId& pid : echoes) {
        unknown += rebuilt->Knows(pid) ? 0 : 1;
      }
      for (const ProcessId& pid : pingers) {
        unknown += rebuilt->Knows(pid) ? 0 : 1;
      }
    }
    r.failed += unknown;
    Check(r, unknown == 0, "rebuilt database does not know every live process");
  }
  const int64_t rebuild_phase_ns = NowNs() - rebuild_phase_start;

  // Phase 3: crash the server node and replay, `crash_rounds` times.
  int64_t crash_phase_ns = 0;
  for (size_t round = 0; round < crash_rounds; ++round) {
    std::set<ProcessId> outstanding(echoes.begin(), echoes.end());
    SimTime crash_vns = 0;
    int64_t crash_ns = 0;
    SimTime last_vns = 0;
    int64_t last_ns = 0;
    SimTime progress = 0;
    system->recovery().set_recovery_done_callback([&](const ProcessId& pid) {
      if (outstanding.erase(pid) != 0) {
        last_ns = NowNs();
        last_vns = sim.Now();
        progress = last_vns;
        r.recovery_wall_ms.push_back(static_cast<double>(last_ns - crash_ns) / 1e6);
      }
    });
    crash_ns = NowNs();
    crash_vns = sim.Now();
    progress = crash_vns;
    Check(r, system->CrashNode(NodeId{2}).ok(), "CrashNode failed");
    const bool recovered = drive.Until([&outstanding] { return outstanding.empty(); }, &progress);
    crash_phase_ns += NowNs() - crash_ns;
    system->recovery().set_recovery_done_callback(nullptr);
    if (!recovered) {
      r.failed += outstanding.size();
      Check(r, false, "a crashed process was not recovered");
      break;
    }
    r.recovery_s.push_back(WallSeconds(last_ns - crash_ns));
    r.recovery_vms.push_back(ToMillis(last_vns - crash_vns));
    r.signature.recovery_vns += last_vns - crash_vns;
    size_t mismatched = 0;
    for (size_t i = 0; i < echoes.size(); ++i) {
      mismatched += echoed(echoes[i]) == before[i] ? 0 : 1;
    }
    r.failed += mismatched;
    Check(r, mismatched == 0, "a recovered echo count differs from its pre-crash value");
  }
  r.measured_ns = load_ns + rebuild_phase_ns + crash_phase_ns;

  r.rtts = std::move(sink.rtts);
  FinishRtts(r);
  AddMedium(r.signature, r.counts, system->cluster().medium().stats());
  for (uint32_t n = 1; n <= 2; ++n) {
    NodeKernel* k = system->cluster().kernel(NodeId{n});
    AddTransport(r.signature, r.counts, k->endpoint().stats());
    r.counts.demos_replay_accepted += k->stats().replay_accepted;
  }
  AddTransport(r.signature, r.counts, system->recorder().endpoint().stats());
  AddRecorder(r.signature, r.counts, system->recorder().stats());
  r.counts.core_recoveries_deferred = system->recovery().stats().recoveries_deferred;
  const WalStats& ws = (*wal)->stats();
  r.counts.storage_appends = ws.records_appended;
  r.counts.storage_syncs = ws.syncs;
  r.counts.storage_bytes = ws.bytes_appended;
  r.signature.end_vns = sim.Now();
  if (o.traced) {
    r.trace.storage_append_ns = timed.append_ns();
    r.trace.storage_sync_ns = timed.sync_ns();
    r.trace.storage_appends = timed.appends();
    r.trace.storage_explicit_syncs = timed.explicit_syncs();
    FinishTrace(r, tracer, wrapping);
  }
  return r;
}

}  // namespace

// --- Programs ----------------------------------------------------------------

Bytes PingBody(const BodySpec& spec, uint64_t user, uint64_t index) {
  uint64_t state = SplitMix64(spec.seed ^ SplitMix64(user * 0x100000001B3ull + index));
  const uint32_t span = spec.max_bytes - spec.min_bytes + 1;
  const size_t size = spec.min_bytes + static_cast<size_t>(state % span);
  Bytes body(size);
  for (size_t i = 0; i < size; i += 8) {
    state = SplitMix64(state);
    for (size_t b = 0; b < 8 && i + b < size; ++b) {
      body[i + b] = static_cast<uint8_t>(state >> (8 * b));
    }
  }
  return body;
}

void BenchEcho::OnMessage(KernelApi& api, const DeliveredMessage& msg) {
  Span span(Layer::kDemosHandler);
  ++sink_->delivered;
  ++echoed_;
  if (!msg.passed_link.IsValid()) {
    return;
  }
  Bytes body = msg.body;
  ++sink_->replies;
  if (sink_->faults.corrupt_echo && sink_->replies % 1000 == 0 && !body.empty()) {
    body[0] ^= 0x5A;
  }
  Span send(Layer::kDemosSend);
  api.Send(msg.passed_link, std::move(body));
}

Status BenchEcho::LoadState(Reader& r) {
  auto echoed = r.ReadU64();
  if (!echoed.ok()) {
    return echoed.status();
  }
  echoed_ = *echoed;
  return Status::Ok();
}

void BenchPinger::OnMessage(KernelApi& api, const DeliveredMessage& msg) {
  Span span(Layer::kDemosHandler);
  ++sink_->delivered;
  if (msg.channel != kPongChannel) {
    return;
  }
  ++sink_->pongs;
  if (sink_->faults.drop_pong_at != 0 && sink_->pongs == sink_->faults.drop_pong_at) {
    return;  // Self-test: behave as if this pong never arrived.
  }
  sink_->rtts.push_back(sink_->sim->Now() - sent_at_);
  sink_->last_progress = sink_->sim->Now();
  if (msg.body != PingBody(spec_, user_, msg.code)) {
    ++sink_->mismatches;
  }
  ++received_;
  if (received_ >= target_) {
    ++sink_->users_done;
    return;
  }
  SendNext(api);
}

void BenchPinger::SendNext(KernelApi& api) {
  auto reply = api.CreateLink(kPongChannel, static_cast<uint32_t>(sent_));
  if (!reply.ok()) {
    return;
  }
  Bytes body = PingBody(spec_, user_, sent_);
  ++sent_;
  sent_at_ = sink_->sim->Now();
  Span send(Layer::kDemosSend);
  api.Send(LinkId{kServerLink}, std::move(body), *reply);
}

void BenchPinger::SaveState(Writer& w) const {
  w.WriteU64(user_);
  w.WriteU64(target_);
  w.WriteU64(sent_);
  w.WriteU64(received_);
}

Status BenchPinger::LoadState(Reader& r) {
  uint64_t* fields[] = {&user_, &target_, &sent_, &received_};
  for (uint64_t* field : fields) {
    auto value = r.ReadU64();
    if (!value.ok()) {
      return value.status();
    }
    *field = *value;
  }
  return Status::Ok();
}

// --- Tracing -------------------------------------------------------------------

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kSim: return "sim";
    case Layer::kNet: return "net";
    case Layer::kCore: return "core";
    case Layer::kStorage: return "storage";
    case Layer::kDemosSend: return "demos.send";
    case Layer::kDemosHandler: return "demos.handler";
    case Layer::kCount: break;
  }
  return "?";
}

Attribution Attribute(const SpanTracer& tracer, int64_t wall_ns) {
  Attribution a;
  a.wall_ns = wall_ns;
  a.covered_ns = tracer.covered_ns();
  int64_t sum = 0;
  bool negative = false;
  for (size_t i = 0; i < kLayerCount; ++i) {
    a.self_ns[i] = tracer.tally(static_cast<Layer>(i)).self_ns;
    sum += a.self_ns[i];
    negative = negative || a.self_ns[i] < 0;
  }
  a.unattributed_ns = wall_ns - a.covered_ns;
  if (tracer.open_spans() != 0 || tracer.unbalanced_ends() != 0) {
    a.error = "spans left open or closed twice";
  } else if (negative) {
    a.error = "a layer's self time is negative";
  } else if (sum != a.covered_ns) {
    a.error = "layer self times do not add up to the covered time";
  } else if (a.unattributed_ns < 0) {
    a.error = "spans cover more than the measured wall time";
  } else {
    a.ok = true;
  }
  return a;
}

// --- Public entry points ---------------------------------------------------------

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kPingpong, Workload::kInternet, Workload::kRecovery}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kPingpong: return "pingpong";
    case Workload::kInternet: return "internet";
    case Workload::kRecovery: return "recovery";
  }
  return "?";
}

std::string Signature::FirstDifference(const Signature& other) const {
  struct Field {
    const char* name;
    uint64_t a;
    uint64_t b;
  };
  const Field fields[] = {
      {"rtt_count", rtt_count, other.rtt_count},
      {"rtt_hash", rtt_hash, other.rtt_hash},
      {"recovery_vns", static_cast<uint64_t>(recovery_vns), static_cast<uint64_t>(other.recovery_vns)},
      {"frames_sent", frames_sent, other.frames_sent},
      {"frames_delivered", frames_delivered, other.frames_delivered},
      {"bytes_sent", bytes_sent, other.bytes_sent},
      {"collisions", collisions, other.collisions},
      {"data_sent", data_sent, other.data_sent},
      {"data_delivered", data_delivered, other.data_delivered},
      {"acks_sent", acks_sent, other.acks_sent},
      {"retransmits", retransmits, other.retransmits},
      {"duplicates_suppressed", duplicates_suppressed, other.duplicates_suppressed},
      {"frames_seen", frames_seen, other.frames_seen},
      {"messages_published", messages_published, other.messages_published},
      {"bytes_published", bytes_published, other.bytes_published},
      {"replay_bursts", replay_bursts, other.replay_bursts},
      {"replay_segments", replay_segments, other.replay_segments},
      {"end_vns", static_cast<uint64_t>(end_vns), static_cast<uint64_t>(other.end_vns)},
  };
  for (const Field& f : fields) {
    if (f.a != f.b) {
      return std::string(f.name) + " " + std::to_string(f.a) + " vs " + std::to_string(f.b);
    }
  }
  return "";
}

std::string FilesystemType(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

double CalibrationSeconds() {
  constexpr size_t kEntries = kCalibrationBytes / sizeof(uint32_t);
  static const std::vector<uint32_t> cycle = [] {
    std::vector<uint32_t> next(kEntries);
    for (size_t i = 0; i < kEntries; ++i) {
      next[i] = static_cast<uint32_t>(i);
    }
    // Sattolo's algorithm: a single cycle through every entry.
    uint64_t state = 12345;
    for (size_t i = kEntries - 1; i > 0; --i) {
      state = SplitMix64(state);
      std::swap(next[i], next[state % i]);
    }
    return next;
  }();
  const int64_t start = NowNs();
  uint32_t at = 0;
  uint64_t hash = 0;
  for (int step = 0; step < 200'000; ++step) {
    at = cycle[at];
    for (int k = 0; k < 16; ++k) {
      hash = SplitMix64(hash + at);
    }
  }
  static std::atomic<uint64_t> sink{0};
  sink.fetch_add(hash, std::memory_order_relaxed);
  return static_cast<double>(NowNs() - start) / 1e9;
}

RoundResult RunRound(const RoundOptions& options) {
  switch (options.workload) {
    case Workload::kPingpong: return RunPingpong(options);
    case Workload::kInternet: return RunInternet(options);
    case Workload::kRecovery: return RunRecovery(options);
  }
  return {};
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

}  // namespace perfbench
