// Hot-path microbenchmarks for the zero-copy + event-loop rewrite.
//
// Measures, and persists to BENCH_hot_path.json:
//   - raw simulator event throughput (events/sec) for the slab/intrusive-heap
//     queue against an in-file reimplementation of the previous design
//     (std::priority_queue of {when, id, std::function} with lazy
//     cancellation bitsets), on the schedule/fire/cancel mix the transport
//     layer actually generates;
//   - end-to-end wall-clock ns per delivered frame on the full stack
//     (ping-pong over the acknowledging ethernet with the recorder
//     publishing every message);
//   - bytes physically copied and logically shared per published message on
//     a fault-free run (the zero-copy acceptance criterion: copied == 0);
//   - recorder publish-path saturation: how many overheard messages per
//     wall-clock second the record-and-append path absorbs, with one
//     destination process and with 4,096 (the population sweep: the
//     per-message cost must not grow with the processes the recorder knows);
//   - CRC-32 ns/KiB at 64 B, 1.5 KiB and 4 KiB for the slicing-by-8 Crc32
//     against an in-file byte-at-a-time table CRC (the previous
//     implementation), which every guaranteed message pays four times.
//
// The binary exits non-zero if the determinism self-check fails (two
// identical instrumented runs must serialize byte-identical metrics), if the
// fault-free publish path copies payload bytes, if the saturation rate at
// 4,096 processes falls below a quarter of the rate at one, or if Crc32 is
// less than 2x the bytewise CRC at 4 KiB, so CI can gate on it.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/buffer.h"
#include "src/common/checksum.h"
#include "src/common/rng.h"
#include "src/core/publishing_system.h"
#include "src/obs/metrics.h"
#include "src/sim/simulator.h"
#include "tests/test_programs.h"

namespace publishing {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// The previous event queue, reproduced verbatim in miniature: a
// std::priority_queue of events carrying their std::function payload through
// every sift, plus the two unbounded id-indexed bitsets that implemented
// lazy cancellation.  Kept here as the baseline the rewrite is measured
// against.
// ---------------------------------------------------------------------------

class LegacySimulator {
 public:
  using Action = std::function<void()>;

  SimTime Now() const { return now_; }

  EventId ScheduleAt(SimTime when, Action action) {
    EventId id{++next_id_};
    queue_.push(Event{when, id.value, std::move(action)});
    ++pending_;
    return id;
  }

  EventId ScheduleAfter(SimDuration delay, Action action) {
    return ScheduleAt(now_ + delay, std::move(action));
  }

  bool Cancel(EventId id) {
    if (!id.IsValid() || id.value > next_id_) {
      return false;
    }
    if (cancelled_.size() <= id.value) {
      cancelled_.resize(next_id_ + 1, false);
    }
    if (fired_.size() <= id.value) {
      fired_.resize(next_id_ + 1, false);
    }
    if (cancelled_[id.value] || fired_[id.value]) {
      return false;
    }
    cancelled_[id.value] = true;
    --pending_;
    return true;
  }

  bool Step() {
    while (!queue_.empty()) {
      Event ev = queue_.top();
      queue_.pop();
      if (ev.id < cancelled_.size() && cancelled_[ev.id]) {
        continue;
      }
      if (fired_.size() <= ev.id) {
        fired_.resize(ev.id + 1, false);
      }
      fired_[ev.id] = true;
      --pending_;
      now_ = ev.when;
      ev.action();
      return true;
    }
    return false;
  }

  void Run() {
    while (Step()) {
    }
  }

  size_t pending_events() const { return pending_; }

 private:
  struct Event {
    SimTime when;
    uint64_t id;
    Action action;

    bool operator<(const Event& other) const {
      if (when != other.when) {
        return when > other.when;
      }
      return id > other.id;
    }
  };

  SimTime now_ = 0;
  uint64_t next_id_ = 0;
  size_t pending_ = 0;
  std::priority_queue<Event> queue_;
  std::vector<bool> cancelled_;
  std::vector<bool> fired_;
};

// ---------------------------------------------------------------------------
// Event churn workload: the mix the transport layer generates.  kChains
// self-rescheduling handler chains (delivery -> next delivery), and per
// firing one retransmission timer that is armed and then cancelled by the
// "ack".  Handler captures are sized like real ones (header-ish payload),
// within the rewrite's inline budget.
// ---------------------------------------------------------------------------

struct HandlerContext {
  uint64_t src = 0;
  uint64_t dst = 0;
  uint64_t sequence = 0;
  uint64_t attempt = 0;
};

template <typename Sim>
struct ChurnDriver {
  Sim* sim;
  uint64_t limit = 0;
  uint64_t fired = 0;

  void Fire(HandlerContext ctx) {
    ++fired;
    // Retransmission timer: armed on send, cancelled when the ack arrives.
    EventId timer = sim->ScheduleAfter(Millis(250), [ctx] {
      benchmark::DoNotOptimize(ctx.sequence);
    });
    sim->Cancel(timer);
    if (fired + sim->pending_events() < limit) {
      ctx.sequence += 1;
      sim->ScheduleAfter(Millis(3) + static_cast<SimDuration>(ctx.src % 7),
                         [this, ctx] { Fire(ctx); });
    }
  }
};

template <typename Sim>
double MeasureEventsPerSec(uint64_t total_events) {
  Sim sim;
  ChurnDriver<Sim> driver{&sim, total_events};
  constexpr uint64_t kChains = 64;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < kChains; ++i) {
    HandlerContext ctx{i, i ^ 1, 0, 0};
    sim.ScheduleAfter(static_cast<SimDuration>(i), [&driver, ctx] { driver.Fire(ctx); });
  }
  sim.Run();
  const double elapsed = SecondsSince(start);
  // Every firing also scheduled + cancelled a timer; count both sides of
  // that work as events processed.
  const double events = static_cast<double>(driver.fired) * 2.0;
  return events / elapsed;
}

void RunEventThroughput(BenchJson& json) {
  PrintHeader("Simulator event throughput: slab heap vs legacy priority_queue");
  constexpr uint64_t kEvents = 2'000'000;
  // Interleave and keep the best of 3 to shake out allocator warmup noise.
  double best_new = 0.0;
  double best_legacy = 0.0;
  for (int round = 0; round < 3; ++round) {
    best_legacy = std::max(best_legacy, MeasureEventsPerSec<LegacySimulator>(kEvents));
    best_new = std::max(best_new, MeasureEventsPerSec<Simulator>(kEvents));
  }
  const double ratio = best_new / best_legacy;
  std::printf("  legacy queue : %12.0f events/sec\n", best_legacy);
  std::printf("  slab heap    : %12.0f events/sec\n", best_new);
  std::printf("  speedup      : %12.2fx\n", ratio);
  json.Set("events_per_sec_legacy", best_legacy);
  json.Set("events_per_sec_new", best_new);
  json.Set("speedup_ratio", ratio);
}

// ---------------------------------------------------------------------------
// Full-stack frame path + zero-copy accounting.
// ---------------------------------------------------------------------------

struct FrameRun {
  double wall_seconds = 0;
  uint64_t frames_delivered = 0;
  uint64_t messages_published = 0;
  BufferStats buffers;
};

FrameRun RunFramePath(uint64_t pings) {
  PublishingSystemConfig config;
  config.cluster.node_count = 2;
  config.cluster.start_system_processes = false;
  PublishingSystem system(config);
  system.cluster().registry().Register("echo", [] { return std::make_unique<EchoProgram>(); });
  system.cluster().registry().Register(
      "pinger", [pings] { return std::make_unique<PingerProgram>(pings); });
  auto echo = system.cluster().Spawn(NodeId{2}, "echo");
  system.cluster().Spawn(NodeId{1}, "pinger", {Link{*echo, 1, 0, 0}});

  ResetBufferStats();
  const auto start = std::chrono::steady_clock::now();
  // Step until every ping has been overheard and published (the recovery
  // manager's watchdogs re-arm forever, so the queue never drains on its own).
  while (system.recorder().stats().messages_published < pings && system.sim().Step()) {
  }
  FrameRun run;
  run.wall_seconds = SecondsSince(start);
  run.buffers = GetBufferStats();
  run.frames_delivered = system.cluster().medium().stats().frames_delivered;
  run.messages_published = system.recorder().stats().messages_published;
  return run;
}

void RunFramePathBench(BenchJson& json) {
  PrintHeader("End-to-end frame path (ping-pong, recorder publishing, no faults)");
  const FrameRun run = RunFramePath(/*pings=*/5000);
  const double ns_per_frame =
      run.wall_seconds * 1e9 / static_cast<double>(run.frames_delivered);
  const double copied_per_msg = static_cast<double>(run.buffers.bytes_copied) /
                                static_cast<double>(run.messages_published);
  const double shared_per_msg = static_cast<double>(run.buffers.bytes_shared) /
                                static_cast<double>(run.messages_published);
  std::printf("  frames delivered      : %llu\n",
              static_cast<unsigned long long>(run.frames_delivered));
  std::printf("  messages published    : %llu\n",
              static_cast<unsigned long long>(run.messages_published));
  std::printf("  wall ns/frame         : %.0f\n", ns_per_frame);
  std::printf("  payload bytes copied  : %llu (%.1f per published message)\n",
              static_cast<unsigned long long>(run.buffers.bytes_copied), copied_per_msg);
  std::printf("  payload bytes shared  : %llu (%.1f per published message)\n",
              static_cast<unsigned long long>(run.buffers.bytes_shared), shared_per_msg);
  json.Set("frames_delivered", static_cast<double>(run.frames_delivered));
  json.Set("ns_per_frame", ns_per_frame);
  json.Set("bytes_copied_per_published_message", copied_per_msg);
  json.Set("bytes_shared_per_published_message", shared_per_msg);
  if (run.buffers.bytes_copied != 0) {
    std::fprintf(stderr,
                 "hot_path: FAIL — %llu payload bytes copied on a fault-free "
                 "publish path (expected 0)\n",
                 static_cast<unsigned long long>(run.buffers.bytes_copied));
    std::exit(1);
  }
  std::printf("  zero-copy check       : PASS (0 bytes copied outside faults/disk)\n");
}

// ---------------------------------------------------------------------------
// Recorder saturation: overheard message rate the record-and-append path
// absorbs, measured by driving RecordParsedPacket directly.
// ---------------------------------------------------------------------------

constexpr uint64_t kSaturationMessages = 200'000;

// Messages per wall-clock second with kSaturationMessages round-robined over
// `population` destination processes the recorder knows from their creation.
double RecorderSaturationRate(uint32_t population) {
  PublishingSystemConfig config;
  config.cluster.node_count = 2;
  config.cluster.start_system_processes = false;
  PublishingSystem system(config);

  std::vector<ProcessId> destinations;
  for (uint32_t i = 0; i < population; ++i) {
    destinations.push_back(ProcessId{NodeId{2}, 9 + i});
    system.recorder().storage().RecordCreation(destinations.back(), "echo", {}, NodeId{2});
  }

  Packet packet;
  packet.header.src_process = ProcessId{NodeId{1}, 7};
  packet.header.src_node = NodeId{1};
  packet.header.dst_node = NodeId{2};
  packet.header.flags = kFlagGuaranteed;
  packet.body = Bytes(128, 0xAB);

  const auto start = std::chrono::steady_clock::now();
  for (uint64_t seq = 1; seq <= kSaturationMessages; ++seq) {
    packet.header.dst_process = destinations[seq % population];
    packet.header.id = MessageId{packet.header.src_process, seq};
    Buffer wire{SerializePacket(packet)};
    if (!system.recorder().RecordParsedPacket(packet, wire)) {
      std::fprintf(stderr, "hot_path: recorder refused message %llu\n",
                   static_cast<unsigned long long>(seq));
      std::exit(1);
    }
  }
  return static_cast<double>(kSaturationMessages) / SecondsSince(start);
}

void RunRecorderSaturation(BenchJson& json) {
  PrintHeader("Recorder publish-path saturation (direct overhear feed)");
  // Population sweep: a publish path that walked every known process would
  // slow down about population-fold at p4096.  Reps alternate so host drift
  // hits both sizes alike; each size reports its median of 3.
  constexpr uint32_t kLargePopulation = 4096;
  constexpr double kMinPopulationRatio = 0.25;
  std::vector<double> small_rates;
  std::vector<double> large_rates;
  for (int rep = 0; rep < 3; ++rep) {
    small_rates.push_back(RecorderSaturationRate(1));
    large_rates.push_back(RecorderSaturationRate(kLargePopulation));
  }
  std::sort(small_rates.begin(), small_rates.end());
  std::sort(large_rates.begin(), large_rates.end());
  const double rate = small_rates[1];
  const double rate_large = large_rates[1];
  const double ratio = rate_large / rate;
  std::printf("  %llu messages, 1 destination     : %12.0f msgs/sec saturation\n",
              static_cast<unsigned long long>(kSaturationMessages), rate);
  std::printf("  %llu messages, %u destinations : %12.0f msgs/sec saturation\n",
              static_cast<unsigned long long>(kSaturationMessages), kLargePopulation,
              rate_large);
  std::printf("  population ratio (p%u / p1)      : %12.2f (gate >= %.2f)\n",
              kLargePopulation, ratio, kMinPopulationRatio);
  json.Set("recorder_saturation_msgs_per_sec", rate);
  json.Set("recorder_saturation_msgs_per_sec_p4096", rate_large);
  json.Set("recorder_population_ratio", ratio);
  if (ratio < kMinPopulationRatio) {
    std::fprintf(stderr,
                 "hot_path: FAIL — recorder publish rate at %u processes is %.2fx the "
                 "rate at 1 (expected >= %.2f): the publish path grows with the "
                 "population\n",
                 kLargePopulation, ratio, kMinPopulationRatio);
    std::exit(1);
  }
}

// ---------------------------------------------------------------------------
// CRC-32: slicing-by-8 against the previous byte-at-a-time table loop, kept
// here as the measurement baseline.  Both compute the same value.
// ---------------------------------------------------------------------------

uint32_t BytewiseCrc32(std::span<const uint8_t> data) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t state = 0xFFFFFFFFu;
  for (uint8_t byte : data) {
    state = table[(state ^ byte) & 0xFF] ^ (state >> 8);
  }
  return state ^ 0xFFFFFFFFu;
}

// Wall ns per KiB checksummed, over ~16 MiB of `size`-byte buffers.  Each
// result feeds the next buffer's first byte, so no call can be skipped or
// hoisted.
template <typename Fn>
double CrcNsPerKib(Fn crc, Bytes& data) {
  const size_t calls = std::max<size_t>(1, (size_t{16} << 20) / data.size());
  uint32_t acc = 0;
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < calls; ++i) {
    data[0] = static_cast<uint8_t>(acc);
    acc = crc(std::span<const uint8_t>(data.data(), data.size()));
  }
  const double elapsed = SecondsSince(start);
  benchmark::DoNotOptimize(acc);
  return elapsed * 1e9 / (static_cast<double>(calls * data.size()) / 1024.0);
}

void RunCrcBench(BenchJson& json) {
  PrintHeader("CRC-32: slicing-by-8 vs bytewise table (ns per KiB)");
  constexpr double kMinSpeedup = 2.0;
  Rng rng(0xC4C32);
  double ns_per_kib = 0;
  double bytewise_ns_per_kib = 0;
  for (size_t size : {size_t{64}, size_t{1536}, size_t{4096}}) {
    Bytes data(size);
    for (uint8_t& b : data) {
      b = static_cast<uint8_t>(rng.NextU64());
    }
    const std::span<const uint8_t> span(data.data(), data.size());
    if (Crc32(span) != BytewiseCrc32(span)) {
      std::fprintf(stderr, "hot_path: FAIL — Crc32 differs from the bytewise CRC at %zu B\n",
                   size);
      std::exit(1);
    }
    // Interleaved, best of 3 each, so host drift hits both alike.
    double best = std::numeric_limits<double>::infinity();
    double best_bytewise = std::numeric_limits<double>::infinity();
    for (int round = 0; round < 3; ++round) {
      best_bytewise = std::min(best_bytewise, CrcNsPerKib(BytewiseCrc32, data));
      best = std::min(best, CrcNsPerKib(Crc32, data));
    }
    std::printf("  %5zu B : bytewise %7.0f ns/KiB, slicing-by-8 %7.0f ns/KiB, %5.2fx\n", size,
                best_bytewise, best, best_bytewise / best);
    ns_per_kib = best;
    bytewise_ns_per_kib = best_bytewise;
  }
  // The headline keys are the 4 KiB point, the last of the sweep.
  const double speedup = bytewise_ns_per_kib / ns_per_kib;
  std::printf("  speedup at 4096 B : %.2fx (gate >= %.2f)\n", speedup, kMinSpeedup);
  json.Set("crc32_ns_per_kib", ns_per_kib);
  json.Set("crc32_bytewise_ns_per_kib", bytewise_ns_per_kib);
  json.Set("crc32_speedup", speedup);
  if (speedup < kMinSpeedup) {
    std::fprintf(stderr,
                 "hot_path: FAIL — Crc32 at 4096 B is %.2fx the bytewise CRC "
                 "(expected >= %.2f)\n",
                 speedup, kMinSpeedup);
    std::exit(1);
  }
}

// ---------------------------------------------------------------------------
// Determinism self-check: two identical instrumented runs (including a crash
// and recovery) must serialize byte-identical metrics.
// ---------------------------------------------------------------------------

std::string InstrumentedMetricsSnapshot() {
  MetricsRegistry registry;
  PublishingSystemConfig config;
  config.cluster.node_count = 2;
  config.cluster.start_system_processes = false;
  PublishingSystem system(config);
  Observability obs;
  obs.metrics = &registry;
  system.EnableObservability(obs);
  system.cluster().registry().Register("echo", [] { return std::make_unique<EchoProgram>(); });
  system.cluster().registry().Register("pinger",
                                       [] { return std::make_unique<PingerProgram>(50); });
  auto echo = system.cluster().Spawn(NodeId{2}, "echo");
  system.cluster().Spawn(NodeId{1}, "pinger", {Link{*echo, 1, 0, 0}});
  system.RunFor(Seconds(2));
  if (!system.CrashProcess(*echo).ok() || !system.RunUntilRecovered(*echo, Seconds(30))) {
    std::fprintf(stderr, "hot_path: determinism run failed to recover\n");
    std::exit(1);
  }
  system.RunFor(Seconds(1));
  return registry.ToJson();
}

void RunDeterminismCheck(BenchJson& json) {
  PrintHeader("Determinism self-check");
  const std::string a = InstrumentedMetricsSnapshot();
  const std::string b = InstrumentedMetricsSnapshot();
  if (a != b) {
    std::fprintf(stderr,
                 "hot_path: FAIL — identical seeds produced different metrics "
                 "snapshots (%zu vs %zu bytes)\n",
                 a.size(), b.size());
    std::exit(1);
  }
  std::printf("  two instrumented crash/recovery runs: metrics byte-identical  PASS\n");
  json.Set("determinism_ok", 1.0);
}

// ---------------------------------------------------------------------------
// google-benchmark timing sections for iterating on the hot path.
// ---------------------------------------------------------------------------

void BM_EventChurnSlabHeap(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    ChurnDriver<Simulator> driver{&sim, 100'000};
    sim.ScheduleAfter(0, [&driver] { driver.Fire(HandlerContext{}); });
    sim.Run();
    benchmark::DoNotOptimize(driver.fired);
  }
}
BENCHMARK(BM_EventChurnSlabHeap)->Unit(benchmark::kMillisecond);

void BM_EventChurnLegacyQueue(benchmark::State& state) {
  for (auto _ : state) {
    LegacySimulator sim;
    ChurnDriver<LegacySimulator> driver{&sim, 100'000};
    sim.ScheduleAfter(0, [&driver] { driver.Fire(HandlerContext{}); });
    sim.Run();
    benchmark::DoNotOptimize(driver.fired);
  }
}
BENCHMARK(BM_EventChurnLegacyQueue)->Unit(benchmark::kMillisecond);

void BM_PingPongThousand(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunFramePath(1000));
  }
}
BENCHMARK(BM_PingPongThousand)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace publishing

int main(int argc, char** argv) {
  publishing::BenchJson json("hot_path");
  publishing::RunEventThroughput(json);
  publishing::RunFramePathBench(json);
  publishing::RunRecorderSaturation(json);
  publishing::RunCrcBench(json);
  publishing::RunDeterminismCheck(json);
  json.Write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
