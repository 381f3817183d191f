// Self-test of the benchmark's checks: deliberately broken runs must be
// reported as wrong, and small clean runs must pass, parity included.
//
//   perfbench_selftest --wal-root DIR
//
// Exits 0 when every case behaves as expected.

#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>

#include "perfbench/workloads.h"
#include "src/common/logging.h"

namespace perfbench {
namespace {

std::string g_wal_root;
int g_failures = 0;

void Expect(const char* name, bool ok, const std::string& detail = "") {
  std::printf("  %-58s %s%s%s\n", name, ok ? "PASS" : "FAIL", detail.empty() ? "" : "  ",
              detail.c_str());
  if (!ok) {
    ++g_failures;
  }
}

std::string FirstError(const RoundResult& r) { return r.errors.empty() ? "" : r.errors.front(); }

RoundOptions Small(Workload w) {
  RoundOptions o;
  o.workload = w;
  o.seed = 42;
  o.wal_root = g_wal_root;
  o.pings = w == Workload::kRecovery ? 5 : 2000;
  o.users_per_segment = 40;
  o.crash_rounds = 1;
  return o;
}

// A clean round passes its own checks, and its traced twin reproduces it.
void CleanRound(Workload w) {
  RoundOptions o = Small(w);
  const RoundResult plain = RunRound(o);
  o.traced = true;
  const RoundResult traced = RunRound(o);
  const std::string name = std::string(WorkloadName(w)) + ": clean round passes, traced = untraced";
  const std::string diff = plain.signature.FirstDifference(traced.signature);
  Expect(name.c_str(),
         plain.errors.empty() && traced.errors.empty() && plain.failed == 0 && diff.empty() &&
             traced.trace.attribution.ok && plain.attempted > 0,
         FirstError(plain) + FirstError(traced) + diff);
}

// A sabotaged round must report a wrong output and count a failure.
void BrokenRound(const char* name, Workload w, const std::function<void(RoundOptions&)>& sabotage) {
  RoundOptions o = Small(w);
  sabotage(o);
  const RoundResult r = RunRound(o);
  Expect(name, !r.errors.empty() && r.failed > 0, FirstError(r));
}

void ParityCatchesDoubleBroadcast() {
  // Re-attaching a station under a timing wrapper appends it to the medium's
  // broadcast order a second time; a broadcast then reaches it twice.
  RoundOptions o = Small(Workload::kPingpong);
  o.sabotage.inject_broadcast = true;
  const RoundResult plain = RunRound(o);
  o.traced = true;
  const RoundResult traced = RunRound(o);
  const std::string diff = plain.signature.FirstDifference(traced.signature);
  Expect("parity check catches a broadcast delivered twice after re-attach",
         !diff.empty() && traced.counts.station_broadcasts > 0, diff);
}

void AttributionCatchesBrokenSpans() {
  {
    SpanTracer tracer;
    tracer.Begin(Layer::kSim);
    tracer.Begin(Layer::kNet);
    tracer.End();
    tracer.End();
    const Attribution a = Attribute(tracer, tracer.covered_ns() + 1000);
    Expect("attribution: nested spans add up to the covered time",
           a.ok && a.unattributed_ns == 1000 &&
               a.self_ns[0] + a.self_ns[1] == tracer.covered_ns(),
           a.error);
  }
  {
    SpanTracer tracer;
    tracer.Begin(Layer::kSim);
    tracer.Begin(Layer::kNet);
    tracer.End();
    const Attribution a = Attribute(tracer, 1'000'000'000);
    Expect("attribution: a span left open is reported", !a.ok, a.error);
  }
  {
    SpanTracer tracer;
    tracer.Begin(Layer::kCore);
    tracer.End();
    tracer.End();
    const Attribution a = Attribute(tracer, 1'000'000'000);
    Expect("attribution: a span closed twice is reported", !a.ok, a.error);
  }
  {
    SpanTracer tracer;
    tracer.Begin(Layer::kCore);
    tracer.End();
    const Attribution a = Attribute(tracer, 0);
    Expect("attribution: spans longer than the wall time are reported", !a.ok, a.error);
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  publishing::SetLogLevel(publishing::LogLevel::kError);
  if (argc != 3 || std::string(argv[1]) != "--wal-root") {
    std::fprintf(stderr, "usage: perfbench_selftest --wal-root DIR\n");
    return 2;
  }
  g_wal_root = argv[2];
  std::filesystem::create_directories(g_wal_root);
  std::printf("perfbench self-test\n");

  AttributionCatchesBrokenSpans();
  for (Workload w : {Workload::kPingpong, Workload::kInternet, Workload::kRecovery}) {
    CleanRound(w);
  }
  BrokenRound("pingpong: a pinger that drops a pong is caught", Workload::kPingpong,
              [](RoundOptions& o) { o.sabotage.programs.drop_pong_at = 100; });
  BrokenRound("pingpong: an echo that corrupts a reply is caught", Workload::kPingpong,
              [](RoundOptions& o) { o.sabotage.programs.corrupt_echo = true; });
  BrokenRound("internet: a user that drops a pong is caught", Workload::kInternet,
              [](RoundOptions& o) { o.sabotage.programs.drop_pong_at = 7; });
  BrokenRound("internet: gateway drops are caught", Workload::kInternet,
              [](RoundOptions& o) { o.sabotage.tiny_gateway_queues = true; });
  BrokenRound("internet: an oracle violation is caught", Workload::kInternet,
              [](RoundOptions& o) { o.sabotage.duplicate_read = true; });
  BrokenRound("recovery: a corrupted reply is caught", Workload::kRecovery,
              [](RoundOptions& o) {
                o.pings = 20;
                o.sabotage.programs.corrupt_echo = true;
              });
  BrokenRound("recovery: processes that are never recovered are caught", Workload::kRecovery,
              [](RoundOptions& o) { o.sabotage.no_recovery_manager = true; });
  BrokenRound("recovery: a rebuild that misses live processes is caught", Workload::kRecovery,
              [](RoundOptions& o) { o.sabotage.wipe_wal_before_rebuild = true; });
  ParityCatchesDoubleBroadcast();

  std::printf("%s: %d failing case(s)\n", g_failures == 0 ? "OK" : "FAILED", g_failures);
  return g_failures == 0 ? 0 : 1;
}
