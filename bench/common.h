// Shared experiment harness for the figure-reproduction benchmarks.
//
// Scale-down notes (see EXPERIMENTS.md): link rates and flow sizes are
// scaled so each figure regenerates in seconds of wall time; offered load
// fractions, topology shapes, and protocol timing ratios (probe period vs
// RTT vs flowlet gap) match the paper, so relative results are preserved.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "compiler/compiler.h"
#include "dataplane/contra_switch.h"
#include "dataplane/ecmp_switch.h"
#include "dataplane/hula_switch.h"
#include "dataplane/spain_switch.h"
#include "dataplane/static_switch.h"
#include "lang/parser.h"
#include "lang/policies.h"
#include "metrics/counters.h"
#include "metrics/fct.h"
#include "metrics/timeline.h"
#include "sim/host.h"
#include "sim/parallel_simulator.h"
#include "sim/transport.h"
#include "topology/abilene.h"
#include "topology/generators.h"
#include "workload/generator.h"

namespace contra::bench {

enum class Plane { kEcmp, kHula, kContra, kShortestPath, kSpain };

inline const char* plane_name(Plane plane) {
  switch (plane) {
    case Plane::kEcmp: return "ECMP";
    case Plane::kHula: return "Hula";
    case Plane::kContra: return "Contra";
    case Plane::kShortestPath: return "SP";
    case Plane::kSpain: return "SPAIN";
  }
  return "?";
}

struct FatTreeExperiment {
  Plane plane = Plane::kContra;
  /// Workload.
  const workload::EmpiricalCdf* sizes = &workload::web_search_flow_sizes();
  double load = 0.5;           ///< fraction of per-sender fair share
  double duration_s = 30e-3;
  uint64_t seed = 1;
  double size_scale = 0.1;
  /// Fabric: paper setup scaled — 32 hosts (4 per edge switch of a k=4
  /// fat-tree), 4:1-ish oversubscription via sender fair share.
  double link_rate_bps = 10e9;
  uint32_t hosts_per_edge = 4;
  /// Failure injection (Fig. 12/13): one agg-core link.
  bool fail_agg_core = false;
  /// Protocol parameters (paper §6.3): probe period 256us, flowlet 200us.
  double probe_period_s = 256e-6;
  double flowlet_timeout_s = 200e-6;
  /// Post-workload drain time (FCT stragglers). Loop-heavy ablations shrink
  /// it — looping retransmission storms make long drains expensive.
  double drain_s = 0.25;
  /// Contra policy for the fat-tree: least-utilized shortest path, i.e.
  /// (path.len, path.util) — Contra discovers shortest paths dynamically
  /// (§6.3). Overridable for ablations.
  std::string contra_policy = "minimize((path.len, path.util))";
  dataplane::ContraSwitchOptions contra_options;  ///< probe/flowlet set below
  /// Optional queue tracing (Fig. 13). Serial engine only.
  bool trace_queues = false;
  /// workers > 0 runs on the sharded parallel engine (DESIGN.md §8) with
  /// that many threads; shards = 0 picks the topology default. Results are
  /// deterministic for any worker count at a fixed shard count.
  uint32_t workers = 0;
  uint32_t shards = 0;
};

struct ExperimentResult {
  metrics::FctSummary fct;
  metrics::OverheadReport overhead;  ///< workload window only
  uint64_t fabric_drops = 0;
  uint64_t looped_packets = 0;
  uint64_t loops_broken = 0;
  uint64_t policy_drops = 0;
  uint64_t data_packets_forwarded = 0;
  uint64_t events_processed = 0;  ///< simulator events for the whole run
  std::vector<double> queue_samples_mss;
};

inline ExperimentResult run_fat_tree_experiment_parallel(const FatTreeExperiment& exp);

inline ExperimentResult run_fat_tree_experiment(const FatTreeExperiment& exp) {
  if (exp.workers > 0) return run_fat_tree_experiment_parallel(exp);
  const topology::Topology topo =
      topology::fat_tree(4, topology::LinkParams{exp.link_rate_bps, 1e-6});

  sim::SimConfig config;
  config.host_link_bps = exp.link_rate_bps;
  config.queue_capacity_bytes = 1000ull * 1500;  // 1000 MSS (paper)
  config.util_tau_s = 2 * exp.probe_period_s;
  sim::Simulator sim(topo, config);

  const auto hosts = sim::attach_hosts_to_fat_tree_edges(sim, exp.hosts_per_edge);
  std::vector<sim::HostId> senders, receivers;
  for (sim::HostId h : hosts) (h % 2 ? receivers : senders).push_back(h);

  // Fail before installing: static planes (ECMP) route on the converged
  // asymmetric topology; adaptive planes discover it via probes anyway.
  if (exp.fail_agg_core) {
    sim.fail_cable(topo.link_between(topo.find("a0_0"), topo.find("c0")));
  }

  compiler::CompileResult compiled;
  std::unique_ptr<pg::PolicyEvaluator> evaluator;
  std::vector<dataplane::ContraSwitch*> contra_switches;
  switch (exp.plane) {
    case Plane::kEcmp:
      dataplane::install_ecmp_network(sim);
      break;
    case Plane::kShortestPath:
      dataplane::install_shortest_path_network(sim);
      break;
    case Plane::kSpain:
      dataplane::install_spain_network(sim);
      break;
    case Plane::kHula: {
      dataplane::HulaOptions options;
      options.probe_period_s = exp.probe_period_s;
      options.flowlet_timeout_s = exp.flowlet_timeout_s;
      dataplane::install_hula_network(sim, options);
      break;
    }
    case Plane::kContra: {
      compiled = compiler::compile(exp.contra_policy, topo);
      evaluator =
          std::make_unique<pg::PolicyEvaluator>(compiled.graph, compiled.decomposition);
      dataplane::ContraSwitchOptions options = exp.contra_options;
      options.probe_period_s = exp.probe_period_s;
      options.flowlet_timeout_s = exp.flowlet_timeout_s;
      contra_switches = dataplane::install_contra_network(sim, compiled, *evaluator, options);
      break;
    }
  }

  sim::TransportManager transport(sim);

  // Offered load: fraction of each sender's fair share of the bisection
  // (40 Gbps bisection / 16 senders at defaults).
  const double bisection = 4.0 * exp.link_rate_bps;  // k^3/4 x rate for k=4
  workload::WorkloadConfig wl;
  wl.load = exp.load;
  wl.sender_capacity_bps = bisection / senders.size();
  wl.start = 3e-3;
  wl.duration = exp.duration_s;
  wl.seed = exp.seed;
  wl.size_scale = exp.size_scale;
  const auto flows = workload::generate_poisson(*exp.sizes, senders, receivers, wl);
  workload::submit(transport, flows);

  ExperimentResult result;
  sim.start();
  sim.run_until(wl.start);
  if (exp.trace_queues) {
    // After convergence: every enqueue on a fabric link records the queue
    // length it found, in MSS units.
    for (topology::LinkId id = 0; id < topo.num_links(); ++id) {
      sim.link(id).set_queue_sampler([&result](sim::Time, uint64_t queue_bytes) {
        result.queue_samples_mss.push_back(static_cast<double>(queue_bytes) / 1500);
      });
    }
  }
  const sim::LinkStats window_start = sim.aggregate_fabric_stats();
  sim.run_until(wl.start + wl.duration);
  const sim::LinkStats window_end = sim.aggregate_fabric_stats();
  sim.run_until(wl.start + wl.duration + exp.drain_s);

  result.fct = metrics::summarize_fct(transport.completed_flows(), flows.size());
  result.overhead = metrics::make_overhead_report(window_end, window_start);
  result.fabric_drops = sim.aggregate_fabric_stats().data_drops;
  for (const auto* sw : contra_switches) {
    result.looped_packets += sw->stats().looped_packets_seen;
    result.loops_broken += sw->stats().loops_broken;
    result.policy_drops += sw->stats().data_dropped_no_route;
    result.data_packets_forwarded += sw->stats().data_forwarded;
  }
  result.events_processed = sim.events().events_processed();
  return result;
}

/// The same fat-tree experiment on the sharded parallel engine. Queue
/// tracing is not supported here (the samplers hook one simulator's links);
/// everything else matches the serial harness parameter for parameter.
inline ExperimentResult run_fat_tree_experiment_parallel(const FatTreeExperiment& exp) {
  const topology::Topology topo =
      topology::fat_tree(4, topology::LinkParams{exp.link_rate_bps, 1e-6});

  sim::SimConfig config;
  config.host_link_bps = exp.link_rate_bps;
  config.queue_capacity_bytes = 1000ull * 1500;
  config.util_tau_s = 2 * exp.probe_period_s;
  config.workers = exp.workers;
  config.shards = exp.shards;
  sim::ParallelSimulator psim(topo, config);

  const auto hosts = sim::attach_hosts_to_fat_tree_edges(psim, exp.hosts_per_edge);
  std::vector<sim::HostId> senders, receivers;
  for (sim::HostId h : hosts) (h % 2 ? receivers : senders).push_back(h);

  if (exp.fail_agg_core) {
    psim.fail_cable(topo.link_between(topo.find("a0_0"), topo.find("c0")));
  }

  compiler::CompileResult compiled;
  std::unique_ptr<pg::PolicyEvaluator> evaluator;
  std::vector<dataplane::ContraSwitch*> contra_switches;
  if (exp.plane == Plane::kContra) {
    compiled = compiler::compile(exp.contra_policy, topo);
    evaluator = std::make_unique<pg::PolicyEvaluator>(compiled.graph, compiled.decomposition);
  }
  psim.for_each_shard([&](sim::Simulator& shard_sim) {
    switch (exp.plane) {
      case Plane::kEcmp:
        dataplane::install_ecmp_network(shard_sim);
        break;
      case Plane::kShortestPath:
        dataplane::install_shortest_path_network(shard_sim);
        break;
      case Plane::kSpain:
        dataplane::install_spain_network(shard_sim);
        break;
      case Plane::kHula: {
        dataplane::HulaOptions options;
        options.probe_period_s = exp.probe_period_s;
        options.flowlet_timeout_s = exp.flowlet_timeout_s;
        dataplane::install_hula_network(shard_sim, options);
        break;
      }
      case Plane::kContra: {
        dataplane::ContraSwitchOptions options = exp.contra_options;
        options.probe_period_s = exp.probe_period_s;
        options.flowlet_timeout_s = exp.flowlet_timeout_s;
        const auto installed =
            dataplane::install_contra_network(shard_sim, compiled, *evaluator, options);
        contra_switches.insert(contra_switches.end(), installed.begin(), installed.end());
        break;
      }
    }
  });

  sim::ParallelTransport transport(psim);
  const double bisection = 4.0 * exp.link_rate_bps;
  workload::WorkloadConfig wl;
  wl.load = exp.load;
  wl.sender_capacity_bps = bisection / senders.size();
  wl.start = 3e-3;
  wl.duration = exp.duration_s;
  wl.seed = exp.seed;
  wl.size_scale = exp.size_scale;
  const auto flows = workload::generate_poisson(*exp.sizes, senders, receivers, wl);
  workload::submit(transport, flows);

  psim.start();
  psim.run_until(wl.start);
  const sim::LinkStats window_start = psim.aggregate_fabric_stats();
  psim.run_until(wl.start + wl.duration);
  const sim::LinkStats window_end = psim.aggregate_fabric_stats();
  psim.run_until(wl.start + wl.duration + exp.drain_s);

  ExperimentResult result;
  result.fct = metrics::summarize_fct(transport.completed_flows(), flows.size());
  result.overhead = metrics::make_overhead_report(window_end, window_start);
  result.fabric_drops = psim.aggregate_fabric_stats().data_drops;
  for (const auto* sw : contra_switches) {
    result.looped_packets += sw->stats().looped_packets_seen;
    result.loops_broken += sw->stats().loops_broken;
    result.policy_drops += sw->stats().data_dropped_no_route;
    result.data_packets_forwarded += sw->stats().data_forwarded;
  }
  result.events_processed = psim.events_processed();
  return result;
}

// ---- Abilene experiment (Fig. 15) -----------------------------------------

struct AbileneExperiment {
  Plane plane = Plane::kContra;
  const workload::EmpiricalCdf* sizes = &workload::web_search_flow_sizes();
  double load = 0.5;
  double duration_s = 40e-3;
  uint64_t seed = 1;
  double size_scale = 0.1;
  double link_rate_bps = 2e9;  ///< scaled from the paper's 40 Gbps
  double probe_period_s = 256e-6;
  /// workers > 0 runs on the sharded parallel engine (see FatTreeExperiment).
  uint32_t workers = 0;
  uint32_t shards = 0;
};

inline ExperimentResult run_abilene_experiment_parallel(const AbileneExperiment& exp);

inline ExperimentResult run_abilene_experiment(const AbileneExperiment& exp) {
  if (exp.workers > 0) return run_abilene_experiment_parallel(exp);
  // Delay scale 0.02 keeps max RTT under the probe period rule (§5.2) at
  // simulation-friendly durations while preserving relative link delays.
  const topology::Topology topo = topology::abilene(exp.link_rate_bps, 0.02);

  sim::SimConfig config;
  config.host_link_bps = exp.link_rate_bps;
  config.util_tau_s = 2 * exp.probe_period_s;
  sim::Simulator sim(topo, config);

  // Four sender/receiver pairs (paper §6.4), chosen across the continent.
  const std::vector<sim::HostId> senders = sim::attach_hosts(
      sim, {topo.find("Seattle"), topo.find("Sunnyvale"), topo.find("LosAngeles"),
            topo.find("Denver")});
  const std::vector<sim::HostId> receivers = sim::attach_hosts(
      sim, {topo.find("NewYork"), topo.find("WashingtonDC"), topo.find("Atlanta"),
            topo.find("Chicago")});

  compiler::CompileResult compiled;
  std::unique_ptr<pg::PolicyEvaluator> evaluator;
  switch (exp.plane) {
    case Plane::kShortestPath:
      dataplane::install_shortest_path_network(sim);
      break;
    case Plane::kSpain:
      dataplane::install_spain_network(sim, 4);
      break;
    case Plane::kContra: {
      // "Contra (MU)" — pure minimum utilization; on a WAN the longer,
      // less-utilized paths are exactly the point.
      compiled = compiler::compile(lang::policies::min_util(), topo);
      evaluator =
          std::make_unique<pg::PolicyEvaluator>(compiled.graph, compiled.decomposition);
      dataplane::ContraSwitchOptions options;
      options.probe_period_s = exp.probe_period_s;
      dataplane::install_contra_network(sim, compiled, *evaluator, options);
      break;
    }
    default:
      std::fprintf(stderr, "unsupported plane on Abilene\n");
      std::abort();
  }

  sim::TransportManager transport(sim);
  workload::WorkloadConfig wl;
  wl.load = exp.load;
  wl.sender_capacity_bps = exp.link_rate_bps;
  wl.start = 5e-3;
  wl.duration = exp.duration_s;
  wl.seed = exp.seed;
  wl.size_scale = exp.size_scale;
  const auto flows = workload::generate_poisson(*exp.sizes, senders, receivers, wl);
  workload::submit(transport, flows);

  sim.start();
  sim.run_until(wl.start);
  const sim::LinkStats window_start = sim.aggregate_fabric_stats();
  sim.run_until(wl.start + wl.duration);
  const sim::LinkStats window_end = sim.aggregate_fabric_stats();
  sim.run_until(wl.start + wl.duration + 0.4);

  ExperimentResult result;
  result.fct = metrics::summarize_fct(transport.completed_flows(), flows.size());
  result.overhead = metrics::make_overhead_report(window_end, window_start);
  result.fabric_drops = sim.aggregate_fabric_stats().drops;
  result.events_processed = sim.events().events_processed();
  return result;
}

inline ExperimentResult run_abilene_experiment_parallel(const AbileneExperiment& exp) {
  const topology::Topology topo = topology::abilene(exp.link_rate_bps, 0.02);

  sim::SimConfig config;
  config.host_link_bps = exp.link_rate_bps;
  config.util_tau_s = 2 * exp.probe_period_s;
  config.workers = exp.workers;
  config.shards = exp.shards;
  sim::ParallelSimulator psim(topo, config);

  const std::vector<sim::HostId> senders = sim::attach_hosts(
      psim, {topo.find("Seattle"), topo.find("Sunnyvale"), topo.find("LosAngeles"),
             topo.find("Denver")});
  const std::vector<sim::HostId> receivers = sim::attach_hosts(
      psim, {topo.find("NewYork"), topo.find("WashingtonDC"), topo.find("Atlanta"),
             topo.find("Chicago")});

  compiler::CompileResult compiled;
  std::unique_ptr<pg::PolicyEvaluator> evaluator;
  if (exp.plane == Plane::kContra) {
    compiled = compiler::compile(lang::policies::min_util(), topo);
    evaluator = std::make_unique<pg::PolicyEvaluator>(compiled.graph, compiled.decomposition);
  }
  psim.for_each_shard([&](sim::Simulator& shard_sim) {
    switch (exp.plane) {
      case Plane::kShortestPath:
        dataplane::install_shortest_path_network(shard_sim);
        break;
      case Plane::kSpain:
        dataplane::install_spain_network(shard_sim, 4);
        break;
      case Plane::kContra: {
        dataplane::ContraSwitchOptions options;
        options.probe_period_s = exp.probe_period_s;
        dataplane::install_contra_network(shard_sim, compiled, *evaluator, options);
        break;
      }
      default:
        std::fprintf(stderr, "unsupported plane on Abilene\n");
        std::abort();
    }
  });

  sim::ParallelTransport transport(psim);
  workload::WorkloadConfig wl;
  wl.load = exp.load;
  wl.sender_capacity_bps = exp.link_rate_bps;
  wl.start = 5e-3;
  wl.duration = exp.duration_s;
  wl.seed = exp.seed;
  wl.size_scale = exp.size_scale;
  const auto flows = workload::generate_poisson(*exp.sizes, senders, receivers, wl);
  workload::submit(transport, flows);

  psim.start();
  psim.run_until(wl.start);
  const sim::LinkStats window_start = psim.aggregate_fabric_stats();
  psim.run_until(wl.start + wl.duration);
  const sim::LinkStats window_end = psim.aggregate_fabric_stats();
  psim.run_until(wl.start + wl.duration + 0.4);

  ExperimentResult result;
  result.fct = metrics::summarize_fct(transport.completed_flows(), flows.size());
  result.overhead = metrics::make_overhead_report(window_end, window_start);
  result.fabric_drops = psim.aggregate_fabric_stats().drops;
  result.events_processed = psim.events_processed();
  return result;
}

}  // namespace contra::bench
