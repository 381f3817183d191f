#include "src/migrate/elastic_balancer.h"

#include <algorithm>
#include <string>

namespace publishing {

ElasticBalancer::ElasticBalancer(Internet* net, MigrationManager* manager,
                                 ElasticBalancerOptions options)
    : net_(net), manager_(manager), options_(options), sim_(&net->sim()) {}

ElasticBalancer::~ElasticBalancer() = default;

void ElasticBalancer::Start() {
  if (task_ == nullptr) {
    task_ = std::make_unique<PeriodicTask>(sim_, options_.period, [this] { Tick(); });
  }
  task_->Start();
}

void ElasticBalancer::Stop() {
  if (task_ != nullptr) {
    task_->Stop();
  }
}

double ElasticBalancer::NodeDepth(NodeId node) const {
  // The saturation signal is the per-node kernel.queue_depth gauge the
  // kernels maintain (queued + pending-live + in-service messages across
  // their processes).  GetGauge resolves the same instrument the kernel
  // writes.  Without a registry, the kernel scan below is a different
  // number: the gauge also counts crashed processes and is refreshed only
  // at enqueue and dispatch, while QueueDepths() skips crashed processes and
  // reads in-service state now.  The two branches balance differently
  // (ROADMAP open items).
  MetricsRegistry* metrics = net_->observability().metrics;
  if (metrics != nullptr) {
    return metrics
        ->GetGauge("kernel.queue_depth", {{"node", std::to_string(node.value)}})
        ->value();
  }
  NodeKernel* kernel = net_->kernel(node);
  if (kernel == nullptr) {
    return 0.0;
  }
  double depth = 0.0;
  for (const auto& [pid, queued] : kernel->QueueDepths()) {
    depth += static_cast<double>(queued);
  }
  return depth;
}

void ElasticBalancer::Tick() {
  ++stats_.rounds;
  struct Load {
    NodeId node;
    double depth = 0.0;
  };
  std::vector<Load> loads;
  for (NodeId node : net_->ProcessingNodes()) {
    loads.push_back({node, NodeDepth(node)});
  }
  if (loads.size() < 2) {
    return;
  }
  // Hottest first; node id breaks ties so the scan order is deterministic.
  std::sort(loads.begin(), loads.end(), [](const Load& a, const Load& b) {
    if (a.depth != b.depth) {
      return a.depth > b.depth;
    }
    return a.node.value < b.node.value;
  });

  size_t budget = options_.max_moves_per_round;
  for (size_t hot = 0; hot < loads.size() && budget > 0; ++hot) {
    if (loads[hot].depth < options_.high_watermark) {
      break;  // Sorted: nothing further is saturated either.
    }
    // Coldest remaining node inside the hysteresis band (the depth
    // accounting below keeps a target from absorbing every move at once).
    size_t target = loads.size();
    for (size_t i = loads.size(); i-- > hot + 1;) {
      if (loads[i].depth <= options_.low_watermark) {
        target = i;
        break;
      }
    }
    if (target == loads.size()) {
      ++stats_.skipped_no_target;
      break;  // No idle node anywhere; pushing load around would not help.
    }
    NodeKernel* kernel = net_->kernel(loads[hot].node);
    if (kernel == nullptr) {
      continue;
    }
    // Victim: the process carrying the deepest queue (QueueDepths sorts by
    // pid, so the scan tie-breaks deterministically), skipping processes
    // mid-move and those inside their cooldown.
    ProcessId victim;
    uint64_t victim_depth = 0;
    for (const auto& [pid, queued] : kernel->QueueDepths()) {
      if (queued <= victim_depth || manager_->IsMigrating(pid)) {
        continue;
      }
      auto it = last_move_.find(pid);
      if (it != last_move_.end() && sim_->Now() - it->second < options_.cooldown) {
        ++stats_.skipped_cooldown;
        continue;
      }
      victim = pid;
      victim_depth = queued;
    }
    if (!victim.IsValid()) {
      continue;
    }
    Status status = manager_->Migrate(victim, loads[target].node);
    if (!status.ok()) {
      ++stats_.moves_rejected;
      continue;
    }
    ++stats_.moves_requested;
    last_move_[victim] = sim_->Now();
    // Account the transferred queue on the target so one round does not
    // dogpile everything onto the same idle node.
    loads[target].depth += static_cast<double>(victim_depth);
    loads[hot].depth -= static_cast<double>(victim_depth);
    --budget;
  }

  // Publish the round's load picture for the telemetry timeline.  Like
  // NodeDepth, this resolves through the registry per tick — the balancer
  // runs a handful of times per simulated second, not on the hot path.
  MetricsRegistry* metrics = net_->observability().metrics;
  if (metrics != nullptr) {
    metrics->GetGauge("balancer.rounds")->Set(static_cast<double>(stats_.rounds));
    metrics->GetGauge("balancer.moves_requested")
        ->Set(static_cast<double>(stats_.moves_requested));
    metrics->GetGauge("balancer.moves_rejected")
        ->Set(static_cast<double>(stats_.moves_rejected));
    metrics->GetGauge("balancer.skipped_no_target")
        ->Set(static_cast<double>(stats_.skipped_no_target));
    metrics->GetGauge("balancer.skipped_cooldown")
        ->Set(static_cast<double>(stats_.skipped_cooldown));
    // Post-accounting depths: what the fleet looks like after this round's
    // moves land.  loads is sorted hottest-first.
    metrics->GetGauge("balancer.hottest_depth")->Set(loads.front().depth);
    metrics->GetGauge("balancer.coldest_depth")->Set(loads.back().depth);
    metrics->GetGauge("balancer.depth_spread")
        ->Set(loads.front().depth - loads.back().depth);
  }
}

}  // namespace publishing
