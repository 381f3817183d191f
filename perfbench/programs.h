// The benchmark's user programs: a closed-loop pinger and an echo server.
//
// Each pinger sends its next ping only after the pong for the previous one
// arrives.  Ping bodies are a pure function of (seed, user, ping index), so
// the same seed gives the same inputs.  Round-trip times, delivery counts
// and body mismatches go to a PingSink the benchmark owns: that side table
// is kept outside the programs' saved state, so it never changes what the
// recorder logs or what recovery replays.

#ifndef PERFBENCH_PROGRAMS_H_
#define PERFBENCH_PROGRAMS_H_

#include <cstdint>
#include <vector>

#include "perfbench/trace.h"
#include "src/demos/program.h"
#include "src/sim/simulator.h"

namespace perfbench {

using publishing::Bytes;
using publishing::SimTime;

// Deliberate faults the self-test injects to prove the checks catch them.
struct ProgramFaults {
  uint64_t drop_pong_at = 0;      // Pinger ignores its Nth pong (1-based; 0 = never).
  bool corrupt_echo = false;      // Echo damages every 1000th reply.
};

struct BodySpec {
  uint64_t seed = 0;
  uint32_t min_bytes = 8;
  uint32_t max_bytes = 8;
};

Bytes PingBody(const BodySpec& spec, uint64_t user, uint64_t index);

struct PingSink {
  const publishing::Simulator* sim = nullptr;
  std::vector<SimTime> rtts;      // Virtual ns, in arrival order.
  uint64_t delivered = 0;         // Messages handed to benchmark programs.
  uint64_t replies = 0;           // Echo replies sent.
  uint64_t pongs = 0;
  uint64_t mismatches = 0;        // Pongs whose body differs from the ping.
  uint64_t users_done = 0;
  SimTime last_progress = 0;      // Virtual time of the latest pong.
  ProgramFaults faults;
};

class BenchEcho : public publishing::UserProgram {
 public:
  explicit BenchEcho(PingSink* sink) : sink_(sink) {}

  void OnStart(publishing::KernelApi& api) override { (void)api; }
  void OnMessage(publishing::KernelApi& api, const publishing::DeliveredMessage& msg) override;
  void SaveState(publishing::Writer& w) const override { w.WriteU64(echoed_); }
  publishing::Status LoadState(publishing::Reader& r) override;

  uint64_t echoed() const { return echoed_; }

 private:
  PingSink* sink_;
  uint64_t echoed_ = 0;
};

class BenchPinger : public publishing::UserProgram {
 public:
  static constexpr uint16_t kPongChannel = 2;
  static constexpr uint32_t kServerLink = 1;

  BenchPinger(PingSink* sink, BodySpec spec, uint64_t user, uint64_t target)
      : sink_(sink), spec_(spec), user_(user), target_(target) {}

  void OnStart(publishing::KernelApi& api) override { SendNext(api); }
  void OnMessage(publishing::KernelApi& api, const publishing::DeliveredMessage& msg) override;
  void SaveState(publishing::Writer& w) const override;
  publishing::Status LoadState(publishing::Reader& r) override;

  uint64_t received() const { return received_; }
  bool done() const { return received_ >= target_; }

 private:
  void SendNext(publishing::KernelApi& api);

  PingSink* sink_;
  BodySpec spec_;
  uint64_t user_;
  uint64_t target_;
  uint64_t sent_ = 0;
  uint64_t received_ = 0;
  SimTime sent_at_ = 0;  // Side table: not saved, never logged.
};

}  // namespace perfbench

#endif  // PERFBENCH_PROGRAMS_H_
