// The benchmark's three workloads, each run as a fixed-size round whose
// virtual-time results depend only on the seed.
//
//   pingpong  one echo server and one closed-loop pinger on 2 nodes, 8-byte
//             bodies, acknowledging Ethernet, in-memory recorder storage,
//             observability off, no faults.
//   internet  a 4-segment ring of 8 nodes per segment, 2,340 users per
//             segment sending 2 pings each (every fourth user across a
//             gateway), LifecycleTracker + InvariantOracle attached, no
//             metrics registry, sequential engine.
//   recovery  64 echo servers on one node, each fed by its own pinger, bodies
//             of 256 B to 4 KiB, recorder journaling through a default Wal;
//             a load phase, a RecoverStableStorage rebuild of the flushed WAL
//             directory, then CrashNode and pipelined replay, repeated.
//
// A round is run untraced or traced.  The traced round installs the timing
// decorators of wrappers.h and opens spans around Simulator::Step; its
// virtual-time Signature must equal the untraced round's (the parity check).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/programs.h"
#include "perfbench/trace.h"

namespace perfbench {

// fsync calls made by the program (fsync_override.cc).
extern std::atomic<uint64_t> g_fsync_calls;

enum class Workload { kPingpong, kInternet, kRecovery };

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload workload);

// Sabotage switches for the self-test: each makes a round produce a wrong
// output that the round's own checks must report.
struct Sabotage {
  ProgramFaults programs;
  bool inject_broadcast = false;     // Sends one broadcast frame mid-run.
  bool tiny_gateway_queues = false;  // internet: forces gateway drops.
  bool duplicate_read = false;       // internet: reports one message read twice.
  bool no_recovery_manager = false;  // recovery: crashed processes stay down.
  bool wipe_wal_before_rebuild = false;  // recovery: rebuild sees no records.
};

struct RoundOptions {
  Workload workload = Workload::kPingpong;
  uint64_t seed = 1;
  bool traced = false;
  bool lifecycle = true;  // internet only: attach LifecycleTracker + oracle.
  bool setup_only = false;  // Return right after measuring setup_s.
  std::string wal_root;   // recovery only: parent of the per-round WAL dir.
  // Size overrides (0 = the workload's default); the self-test shrinks runs.
  uint64_t pings = 0;              // pingpong pings; recovery pings per pinger.
  size_t users_per_segment = 0;    // internet.
  size_t crash_rounds = 0;         // recovery.
  Sabotage sabotage;
};

// Everything the parity check compares: virtual-time results and the
// medium, transport and recorder counters.  Equal for an untraced and a
// traced round of the same seed, and for any two rounds of one seed.
struct Signature {
  uint64_t rtt_count = 0;
  uint64_t rtt_hash = 0;             // FNV-1a over every RTT sample, in order.
  int64_t recovery_vns = 0;          // Sum over crash rounds.
  uint64_t frames_sent = 0;
  uint64_t frames_delivered = 0;
  uint64_t bytes_sent = 0;
  uint64_t collisions = 0;
  uint64_t data_sent = 0;
  uint64_t data_delivered = 0;
  uint64_t acks_sent = 0;
  uint64_t retransmits = 0;
  uint64_t duplicates_suppressed = 0;
  uint64_t frames_seen = 0;
  uint64_t messages_published = 0;
  uint64_t bytes_published = 0;
  uint64_t replay_bursts = 0;
  uint64_t replay_segments = 0;
  int64_t end_vns = 0;               // Virtual clock at the end of the round.

  bool operator==(const Signature&) const = default;
  // Names the first differing field, or returns "" when equal.
  std::string FirstDifference(const Signature& other) const;
};

// Per-layer counts taken from the program's own *Stats structs.
struct LayerCounts {
  uint64_t sim_events = 0;        // Steps the benchmark drove.
  uint64_t sim_pending_peak = 0;  // Traced rounds only (sampled per step).
  uint64_t net_frames = 0;
  uint64_t net_wire_bytes = 0;
  uint64_t net_collisions = 0;
  uint64_t buffer_bytes_copied = 0;
  uint64_t buffer_bytes_shared = 0;
  uint64_t transport_retransmits = 0;
  uint64_t transport_duplicates = 0;
  uint64_t demos_replay_accepted = 0;
  uint64_t core_messages_published = 0;
  uint64_t core_replay_bursts = 0;
  uint64_t core_replay_segments = 0;
  uint64_t core_recoveries_deferred = 0;
  uint64_t storage_appends = 0;
  uint64_t storage_syncs = 0;
  uint64_t storage_bytes = 0;
  uint64_t storage_records_rebuilt = 0;
  uint64_t obs_lifecycle_records = 0;
  uint64_t internet_forwarded = 0;
  uint64_t internet_gateway_drops = 0;
  uint64_t oracle_violations = 0;
  uint64_t station_broadcasts = 0;  // Traced rounds: broadcasts wrappers saw.
};

// Wall-clock results of the traced round.
struct TraceResult {
  Attribution attribution;
  std::array<LayerTally, kLayerCount> tallies{};
  uint64_t station_frames = 0;   // Frames through TimedStation wrappers.
  uint64_t listener_frames = 0;  // Frames through the TimedListener.
  uint64_t station_payload_bytes = 0;   // Link-layer payload bytes (CRC'd).
  uint64_t listener_payload_bytes = 0;
  int64_t storage_append_ns = 0;
  int64_t storage_sync_ns = 0;
  uint64_t storage_appends = 0;
  uint64_t storage_explicit_syncs = 0;
  // Costs timed alone over frames captured during the round.
  double crc_ns_per_kib = 0;
  double parse_ns = 0;
  double encode_ns = 0;
  bool codec_roundtrip_ok = true;  // SerializePacket(ParsePacket(x)) == x.
};

struct RoundResult {
  std::vector<std::string> errors;  // Wrong outputs; empty when correct.
  uint64_t attempted = 0;
  uint64_t failed = 0;

  double setup_s = 0;       // Construct + spawn servers (median of repeats).
  double run_s = 0;         // Run phase (the load phase in recovery).
  int64_t measured_ns = 0;  // Every timed phase after setup (traced wall).
  uint64_t messages = 0;    // Messages delivered to user programs in run_s.
  std::vector<SimTime> rtts;

  double rebuild_s = 0;
  std::vector<double> recovery_s;   // One per crash round.
  std::vector<double> recovery_vms;
  std::vector<double> recovery_wall_ms;  // Crash -> each process recovered.

  Signature signature;
  LayerCounts counts;
  TraceResult trace;
};

RoundResult RunRound(const RoundOptions& options);

// Wall seconds of a fixed reference job that runs none of the project's
// code: a dependent walk through a random cycle over kCalibrationBytes,
// mixed with integer hashing.  On a shared host its time follows the host's
// current speed for memory- and compute-bound code, so the end-to-end wall
// figures are scaled by it (main.cc).  The cycle stays resident after the
// first call.
inline constexpr size_t kCalibrationBytes = size_t{32} << 20;
double CalibrationSeconds();

// Name of the filesystem type holding `path` ("ext4", "tmpfs", ...).
std::string FilesystemType(const std::string& path);

// Nearest-rank percentile of `values` (copied and sorted); 0 when empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
