// Wall-clock benchmark: the run loop, metrics and report.
//
//   perfbench --workload pingpong|internet|recovery --seed N --seconds S
//             --trace 0|1 --wal-root DIR
//
// --trace 0 repeats untraced rounds of the workload for S seconds and reports
// the end-to-end metrics.  --trace 1 repeats sets of one untraced and one
// traced round (plus, on internet, a traced round with the lifecycle tracker
// and oracle detached) and reports the per-layer metrics; the traced round
// must reproduce the untraced round's virtual-time results exactly.  Every
// metric is printed with its unit; the last line of standard output is one
// JSON object.  The exit code is 1 when any output is wrong, 2 on bad usage
// or a refused build.

#include <sys/resource.h>
#include <unistd.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/common/logging.h"

namespace perfbench {
namespace {

struct Args {
  Workload workload = Workload::kPingpong;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string wal_root;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload pingpong|internet|recovery "
               "--seed N --seconds S --trace 0|1 --wal-root DIR\n",
               why);
  return 2;
}

// Numbers from a sanitizer or unoptimised build are not comparable with
// anything; refuse to produce them.
const char* RefusedBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
  return "sanitizer build";
#endif
#endif
#if !defined(__OPTIMIZE__)
  return "unoptimised build";
#else
  return nullptr;
#endif
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<double> Millis(const std::vector<SimTime>& rtts) {
  std::vector<double> ms;
  ms.reserve(rtts.size());
  for (SimTime t : rtts) {
    ms.push_back(static_cast<double>(t) / 1e6);
  }
  return ms;
}

double MeanMs(const std::vector<SimTime>& rtts) {
  double sum = 0;
  for (SimTime t : rtts) {
    sum += static_cast<double>(t);
  }
  return rtts.empty() ? 0.0 : sum / static_cast<double>(rtts.size()) / 1e6;
}

// Calibration time on the reference host (a 4-vCPU Xeon VM at 2.1 GHz, where
// it measured 35-46 ms); scales the wall figures of RunEndToEnd.
constexpr double kReferenceCalibrationS = 0.040;

// How many setups to time per round, so a run's setup_s is a median of many.
size_t SetupRepeats(Workload w) {
  switch (w) {
    case Workload::kPingpong: return 200;
    case Workload::kInternet: return 20;
    case Workload::kRecovery: return 40;
  }
  return 1;
}

class Report {
 public:
  void Error(const std::string& what) {
    if (errors_.size() < 20) {
      errors_.push_back(what);
    }
    ++error_count_;
  }
  void Tally(const RoundResult& r) {
    attempted_ += r.attempted;
    failed_ += r.failed;
    for (const std::string& e : r.errors) {
      Error(e);
    }
  }
  void Add(const std::string& name, double value, const std::string& unit, bool in_json = true) {
    if (!std::isfinite(value)) {
      Error(name + " is not a finite number");
      value = 0;
    }
    (in_json ? json_ : extra_).push_back(Metric{name, value, unit});
  }
  bool correct() const { return error_count_ == 0; }

  int Print() const {
    std::printf("  wal fsync calls: %" PRIu64 " (counted, not forced to the device)\n",
                g_fsync_calls.load());
    for (const auto* list : {&json_, &extra_}) {
      for (const Metric& m : *list) {
        std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
      }
    }
    std::printf("  %-34s %16.6f ratio  (%" PRIu64 " failed / %" PRIu64 " attempted)\n",
                "fail_ratio", Ratio(static_cast<double>(failed_), static_cast<double>(attempted_)),
                failed_, attempted_);
    for (const std::string& e : errors_) {
      std::printf("  WRONG OUTPUT: %s\n", e.c_str());
    }
    if (error_count_ > errors_.size()) {
      std::printf("  ... %zu more\n", error_count_ - errors_.size());
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": {",
                correct() ? "true" : "false", attempted_ == 0 ? 1 : attempted_,
                correct() ? failed_ : std::max<uint64_t>(failed_, 1));
    for (size_t i = 0; i < json_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  json_[i].name.c_str(), json_[i].value, json_[i].unit.c_str());
    }
    std::printf("}}\n");
    return correct() ? 0 : 1;
  }

 private:
  std::vector<Metric> json_;
  std::vector<Metric> extra_;
  std::vector<std::string> errors_;
  size_t error_count_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

RoundOptions BaseOptions(const Args& args) {
  RoundOptions o;
  o.workload = args.workload;
  o.seed = args.seed;
  o.wal_root = args.wal_root;
  return o;
}

// Keeps starting rounds while the next one is expected to end inside the
// budget, with at least `min_rounds`.
class Budget {
 public:
  Budget(double seconds, size_t min_rounds)
      : seconds_(seconds), min_rounds_(min_rounds), start_(NowNs()) {}
  bool Another(size_t done, double longest_s) const {
    if (done < min_rounds_) {
      return true;
    }
    const double elapsed = static_cast<double>(NowNs() - start_) / 1e9;
    return elapsed + longest_s <= seconds_;
  }

 private:
  double seconds_;
  size_t min_rounds_;
  int64_t start_;
};

void CompareSignatures(Report& report, const char* what, const Signature& a, const Signature& b) {
  const std::string diff = a.FirstDifference(b);
  if (!diff.empty()) {
    report.Error(std::string(what) + ": " + diff);
  }
}

int RunEndToEnd(const Args& args) {
  Report report;
  std::vector<RoundResult> rounds;
  std::vector<double> setups;
  std::vector<double> rates;
  std::vector<double> calibrations;
  double longest = 0;
  const Budget budget(args.seconds, /*min_rounds=*/3);
  while (budget.Another(rounds.size(), longest)) {
    const int64_t start = NowNs();
    RoundOptions setup = BaseOptions(args);
    setup.setup_only = true;
    for (size_t i = 0; i < SetupRepeats(args.workload); ++i) {
      setups.push_back(RunRound(setup).setup_s);
    }
    calibrations.push_back(CalibrationSeconds());
    RoundResult r = RunRound(BaseOptions(args));
    setups.push_back(r.setup_s);
    rates.push_back(Ratio(static_cast<double>(r.messages), r.run_s));
    report.Tally(r);
    if (!rounds.empty()) {
      CompareSignatures(report, "round results differ for one seed", rounds.front().signature,
                        r.signature);
    }
    rounds.push_back(std::move(r));
    longest = std::max(longest, static_cast<double>(NowNs() - start) / 1e9);
  }
  // Wall figures are scaled to a host on which the calibration job takes
  // kReferenceCalibrationS: `slowdown` > 1 when this host currently runs
  // slower, which stretches setup and shrinks throughput alike.  A shared
  // host drifts by tens of percent over minutes; the calibration follows it.
  const double slowdown = Median(calibrations) / kReferenceCalibrationS;
  const RoundResult& first = rounds.front();
  report.Add("setup_s", Median(setups) / slowdown, "s");
  report.Add("msgs_per_s", Median(rates) * slowdown, "msg/s");
  report.Add("rtt_mean_vms", MeanMs(first.rtts), "vms");
  report.Add("rtt_p999_vms", Percentile(Millis(first.rtts), 0.999), "vms");
  // The calibration cycle is resident for the whole run; it is not the
  // workload's memory.
  report.Add("peak_rss_mb", PeakRssMiB() - static_cast<double>(kCalibrationBytes) / (1 << 20),
             "MiB");
  report.Add("setup_s_raw", Median(setups), "s", false);
  report.Add("msgs_per_s_raw", Median(rates), "msg/s", false);
  report.Add("calibration_s", Median(calibrations), "s", false);
  report.Add("rtt_p50_vms", Percentile(Millis(first.rtts), 0.5), "vms", false);
  report.Add("rounds", static_cast<double>(rounds.size()), "count", false);
  std::printf("  msgs_per_s_raw by round:");
  for (double rate : rates) {
    std::printf(" %.0f", rate);
  }
  std::printf("\n");
  report.Add("rtt_samples", static_cast<double>(first.rtts.size()), "count", false);
  report.Add("messages_per_round", static_cast<double>(first.messages), "msg", false);
  if (args.workload == Workload::kRecovery) {
    std::vector<double> rebuild, recovery, recovery_vms;
    for (const RoundResult& r : rounds) {
      rebuild.push_back(r.rebuild_s);
      recovery.insert(recovery.end(), r.recovery_s.begin(), r.recovery_s.end());
      recovery_vms.insert(recovery_vms.end(), r.recovery_vms.begin(), r.recovery_vms.end());
    }
    report.Add("rebuild_s", Median(rebuild), "s", false);
    report.Add("recovery_s", Median(recovery), "s", false);
    report.Add("recovery_vms", Median(recovery_vms), "vms", false);
  }
  return report.Print();
}

// Per-layer values of one traced set; the run reports each one's median.
using LayerValues = std::map<std::string, std::pair<double, std::string>>;

LayerValues LayerMetrics(const RoundResult& plain, const RoundResult& traced,
                         double detached_wall_s) {
  const TraceResult& t = traced.trace;
  const LayerCounts& c = traced.counts;
  const Attribution& a = t.attribution;
  const double wall = static_cast<double>(a.wall_ns);
  auto self = [&t](Layer l) { return static_cast<double>(t.tallies[static_cast<size_t>(l)].self_ns); };
  auto total = [&t](Layer l) { return static_cast<double>(t.tallies[static_cast<size_t>(l)].total_ns); };
  auto calls = [&t](Layer l) { return static_cast<double>(t.tallies[static_cast<size_t>(l)].calls); };
  const double published = static_cast<double>(c.core_messages_published);
  const double demos_self = self(Layer::kDemosSend) + self(Layer::kDemosHandler);
  const double plain_wall = static_cast<double>(plain.measured_ns);

  LayerValues v;
  auto put = [&v](const char* name, double value, const char* unit) { v[name] = {value, unit}; };
  put("rtt_p50_vms", Percentile(Millis(plain.rtts), 0.5), "vms");
  put("rtt_samples", static_cast<double>(plain.rtts.size()), "count");
  put("sim.events", calls(Layer::kSim), "count");
  put("sim.pending_peak", static_cast<double>(c.sim_pending_peak), "count");
  put("sim.self_ns_per_event", Ratio(self(Layer::kSim), calls(Layer::kSim)), "ns");
  put("sim.share", Ratio(self(Layer::kSim), wall), "ratio");
  put("net.frames", static_cast<double>(c.net_frames), "count");
  put("net.wire_bytes", static_cast<double>(c.net_wire_bytes), "B");
  put("net.collisions", static_cast<double>(c.net_collisions), "count");
  put("net.rx_ns_per_frame", Ratio(self(Layer::kNet), static_cast<double>(t.station_frames)), "ns");
  put("net.share", Ratio(self(Layer::kNet), wall), "ratio");
  put("common.crc_ns_per_kib", t.crc_ns_per_kib, "ns/KiB");
  put("common.bytes_copied_per_msg", Ratio(static_cast<double>(c.buffer_bytes_copied), published), "B/msg");
  put("common.bytes_shared_per_msg", Ratio(static_cast<double>(c.buffer_bytes_shared), published), "B/msg");
  // Modelled shares: each codec's cost timed alone times the number of times
  // the run performed it.  That work runs inside the net, core and demos
  // spans, so these shares are contained in theirs and not added to the sum.
  // CRC runs once at the sender (every sent frame reaches the recorder's tap
  // once), again at the recorder and at each receiving station.
  const Signature& sig = traced.signature;
  const double crc_bytes =
      static_cast<double>(2 * t.listener_payload_bytes + t.station_payload_bytes);
  put("common.share_est", Ratio(t.crc_ns_per_kib / 1024.0 * crc_bytes, wall), "ratio");
  put("transport.share_est",
      Ratio(t.parse_ns * static_cast<double>(t.station_frames + t.listener_frames) +
                t.encode_ns * static_cast<double>(sig.data_sent + sig.acks_sent),
            wall),
      "ratio");
  put("transport.parse_ns", t.parse_ns, "ns");
  put("transport.encode_ns", t.encode_ns, "ns");
  put("transport.retransmits", static_cast<double>(c.transport_retransmits), "count");
  put("transport.duplicates_suppressed", static_cast<double>(c.transport_duplicates), "count");
  put("demos.send_ns", Ratio(self(Layer::kDemosSend), calls(Layer::kDemosSend)), "ns");
  put("demos.handler_ns", Ratio(self(Layer::kDemosHandler), calls(Layer::kDemosHandler)), "ns");
  put("demos.replay_accepted", static_cast<double>(c.demos_replay_accepted), "count");
  put("demos.share", Ratio(demos_self, wall), "ratio");
  put("core.publish_ns_per_frame", Ratio(self(Layer::kCore), static_cast<double>(t.listener_frames)), "ns");
  put("core.publish_total_ns_per_frame", Ratio(total(Layer::kCore), static_cast<double>(t.listener_frames)), "ns");
  put("core.messages_published", published, "count");
  put("core.replay_bursts", static_cast<double>(c.core_replay_bursts), "count");
  put("core.replay_segments", static_cast<double>(c.core_replay_segments), "count");
  put("core.recovery_wall_ms_p50", Median(plain.recovery_wall_ms), "ms");
  put("core.recovery_wall_ms_max", Percentile(plain.recovery_wall_ms, 1.0), "ms");
  put("core.recoveries_deferred", static_cast<double>(c.core_recoveries_deferred), "count");
  put("core.share", Ratio(self(Layer::kCore), wall), "ratio");
  put("storage.append_ns", Ratio(static_cast<double>(t.storage_append_ns), static_cast<double>(t.storage_appends)), "ns");
  put("storage.sync_ns", Ratio(static_cast<double>(t.storage_sync_ns), static_cast<double>(t.storage_explicit_syncs)), "ns");
  put("storage.appends", static_cast<double>(c.storage_appends), "count");
  put("storage.syncs", static_cast<double>(c.storage_syncs), "count");
  put("storage.bytes", static_cast<double>(c.storage_bytes), "B");
  put("storage.rebuild_ns_per_record", Ratio(plain.rebuild_s * 1e9, static_cast<double>(plain.counts.storage_records_rebuilt)), "ns");
  put("storage.share", Ratio(self(Layer::kStorage), wall), "ratio");
  put("obs.lifecycle_records", static_cast<double>(c.obs_lifecycle_records), "count");
  put("obs.share", detached_wall_s > 0 ? 1.0 - detached_wall_s * 1e9 / wall : 0.0, "ratio");
  put("internet.forwarded", static_cast<double>(c.internet_forwarded), "count");
  put("internet.gateway_drops", static_cast<double>(c.internet_gateway_drops), "count");
  put("rebuild_s", plain.rebuild_s, "s");
  put("recovery_s", Median(plain.recovery_s), "s");
  put("recovery_vms", Median(plain.recovery_vms), "vms");
  put("trace.overhead_share", Ratio(wall - plain_wall, wall), "ratio");
  put("unattributed_share", Ratio(static_cast<double>(a.unattributed_ns), wall), "ratio");
  return v;
}

void PrintAttribution(const RoundResult& traced) {
  const Attribution& a = traced.trace.attribution;
  const double wall = static_cast<double>(a.wall_ns);
  std::printf("  attribution of the traced wall time (%.3f s):\n", wall / 1e9);
  for (size_t i = 0; i < kLayerCount; ++i) {
    const LayerTally& tally = traced.trace.tallies[i];
    std::printf("    %-14s self %10.3f ms  %6.2f%%  calls %" PRIu64 "\n",
                LayerName(static_cast<Layer>(i)), static_cast<double>(a.self_ns[i]) / 1e6,
                100.0 * Ratio(static_cast<double>(a.self_ns[i]), wall), tally.calls);
  }
  std::printf("    %-14s      %10.3f ms  %6.2f%%\n", "unattributed",
              static_cast<double>(a.unattributed_ns) / 1e6,
              100.0 * Ratio(static_cast<double>(a.unattributed_ns), wall));
  std::printf("    sum check: %s\n", a.ok ? "layer self times + unattributed = traced wall"
                                         : a.error);
}

int RunTraced(const Args& args) {
  Report report;
  std::vector<RoundResult> plains;
  std::vector<LayerValues> sets;
  RoundResult last_traced;
  double longest = 0;
  const Budget budget(args.seconds, /*min_rounds=*/1);
  while (budget.Another(sets.size(), longest)) {
    const int64_t start = NowNs();
    RoundResult plain = RunRound(BaseOptions(args));
    RoundOptions traced_options = BaseOptions(args);
    traced_options.traced = true;
    RoundResult traced = RunRound(traced_options);
    double detached_wall_s = 0;
    if (args.workload == Workload::kInternet) {
      RoundOptions detached = traced_options;
      detached.lifecycle = false;
      RoundResult d = RunRound(detached);
      report.Tally(d);
      CompareSignatures(report, "lifecycle-detached pass differs from the attached pass",
                        traced.signature, d.signature);
      detached_wall_s = static_cast<double>(d.measured_ns) / 1e9;
    }
    report.Tally(plain);
    report.Tally(traced);
    CompareSignatures(report, "parity: traced pass differs from the untraced pass",
                      plain.signature, traced.signature);
    if (!plains.empty()) {
      CompareSignatures(report, "round results differ for one seed", plains.front().signature,
                        plain.signature);
    }
    if (!traced.trace.attribution.ok) {
      report.Error(std::string("attribution sum check: ") + traced.trace.attribution.error);
    }
    if (traced.counts.station_broadcasts != 0) {
      std::printf("  note: %" PRIu64 " broadcast frames reached re-attached stations\n",
                  traced.counts.station_broadcasts);
    }
    sets.push_back(LayerMetrics(plain, traced, detached_wall_s));
    plains.push_back(std::move(plain));
    last_traced = std::move(traced);
    longest = std::max(longest, static_cast<double>(NowNs() - start) / 1e9);
  }
  PrintAttribution(last_traced);
  std::printf("  parity check: %s\n", report.correct() ? "traced = untraced virtual-time results"
                                                       : "see WRONG OUTPUT lines");
  for (const auto& [name, value_unit] : sets.front()) {
    std::vector<double> values;
    for (const LayerValues& set : sets) {
      values.push_back(set.at(name).first);
    }
    report.Add(name, Median(values), value_unit.second);
  }
  report.Add("sets", static_cast<double>(sets.size()), "count", false);
  return report.Print();
}

bool ParseArgs(int argc, char** argv, Args* args, const char** error) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value";
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      if (!ParseWorkload(value, &args->workload)) {
        *error = "unknown workload";
        return false;
      }
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--wal-root") {
      args->wal_root = value;
    } else {
      *error = "unknown flag";
      return false;
    }
    if (end != nullptr && *end != '\0') {
      *error = "bad number";
      return false;
    }
  }
  if (!have_workload) {
    *error = "--workload is required";
    return false;
  }
  if (args->wal_root.empty()) {
    *error = "--wal-root is required";
    return false;
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (const char* refused = RefusedBuild()) {
    return Usage((std::string("refusing to measure: ") + refused).c_str());
  }
  publishing::SetLogLevel(publishing::LogLevel::kWarning);
  Args args;
  const char* error = nullptr;
  if (!ParseArgs(argc, argv, &args, &error)) {
    return Usage(error);
  }
  std::error_code ec;
  std::filesystem::create_directories(args.wal_root, ec);
  if (ec) {
    return Usage("cannot create the WAL root directory");
  }
  std::printf("perfbench %s  trace=%d\n", WorkloadName(args.workload), args.trace ? 1 : 0);
  std::printf("  environment: nproc=%ld compiler=\"%s\" build=%s seed=%" PRIu64
              " wal_fs=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, args.seed,
              FilesystemType(args.wal_root).c_str());
  return args.trace ? RunTraced(args) : RunEndToEnd(args);
}
