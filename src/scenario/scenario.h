// One experiment runner for every tool: a Scenario names a topology and its
// hosts, a dataplane, a workload, faults, an engine shape and opt-in
// outputs, and run() builds it on a sim::ParallelSimulator, runs it and
// reports. contrasim is a flag parser on top of it; the figure benches and
// the integration tests are lists of scenarios.
#pragma once

#include <cstdio>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "dataplane/contra_switch.h"
#include "dataplane/hula_switch.h"
#include "metrics/counters.h"
#include "metrics/fct.h"
#include "obs/manifest.h"
#include "sim/simulator.h"
#include "sim/transport.h"
#include "topology/topology.h"
#include "workload/generator.h"

namespace contra::sim {
class ChurnEngine;
}  // namespace contra::sim

namespace contra::scenario {

enum class Plane { kEcmp, kHula, kContra, kShortestPath, kSpain };

/// The --plane spelling ("contra", "ecmp", "hula", "spain", "sp").
const char* plane_flag(Plane plane);
std::optional<Plane> parse_plane(const std::string& flag);

/// Files and streams a run writes besides its Result; all off by default.
struct Outputs {
  /// Human-readable report: set-up lines (`compiled:`, `telemetry:`), the
  /// engine banner (more than one shard only), FCT/traffic/drops, and one
  /// line per output written.
  std::FILE* log = nullptr;
  /// Metrics snapshots: the final one, plus one per interval when > 0
  /// (with more than one shard, emitted at phase boundaries).
  std::ostream* metrics = nullptr;
  double metrics_interval_s = 0.0;
  /// Control-plane trace (JSONL) with `manifest` written beside it and the
  /// convergence table printed to `log`.
  std::string trace_path;
  obs::RunManifest manifest;
  std::string flows_path;  ///< per-flow records + <path>.summary.json
  std::string paths_path;  ///< sampled per-hop path records
  std::string links_path;  ///< per-link util/queue timelines
  std::string profile_path;  ///< Chrome trace-event spans of the engine
  /// Scores the sampled paths against the routing oracle; turns on flow
  /// tracking and link sampling.
  bool audit = false;
  uint32_t path_sample_every = 0;  ///< 1-in-n data packets carry INT hops
  double link_sample_s = 256e-6;
  double audit_bucket_s = 5e-3;
};

struct Scenario {
  topology::Topology topo;
  /// With no explicit sender/receiver switches, `hosts_per_edge` hosts
  /// attach to each fat-tree edge switch (else each leaf-spine leaf, else
  /// one to every switch); even host ids send and odd ones receive.
  uint32_t hosts_per_edge = 2;
  std::vector<topology::NodeId> sender_switches;
  std::vector<topology::NodeId> receiver_switches;

  Plane plane = Plane::kContra;
  /// Compiled for the contra plane and for the optimality audit.
  std::string policy = "minimize(path.util)";
  /// Contra's probe period is raised to the compiled §5.2 floor (half the
  /// topology's max RTT) when set below it.
  dataplane::ContraSwitchOptions contra;
  dataplane::HulaOptions hula;
  sim::TransportConfig transport;

  const workload::EmpiricalCdf* sizes = &workload::web_search_flow_sizes();
  workload::WorkloadConfig workload;
  /// Generate flows lazily during the run instead of up front.
  bool stream = false;

  /// A cable cut at `fail_at_s`, or before the plane installs when 0.
  topology::LinkId fail_link = topology::kInvalidLink;
  double fail_at_s = 0.0;
  const sim::ChurnEngine* churn = nullptr;  ///< armed on the engine when set

  /// Simulated time after the traffic window ends.
  double drain_s = 0.25;
  /// Engine shape: workers and shards both 0, the default, runs one shard —
  /// the serial engine (see sim::SimConfig).
  sim::SimConfig sim;
  /// Record every fabric enqueue's queue length after warm-up (one shard
  /// only).
  bool sample_queues = false;
  Outputs out;
};

struct Result {
  metrics::FctSummary fct;
  metrics::OverheadReport overhead;  ///< traffic window only
  uint64_t fabric_drops = 0;         ///< data packets, whole run
  uint64_t reordered_packets = 0;
  dataplane::ContraSwitchStats contra;  ///< summed over the Contra switches
  std::vector<double> queue_samples_mss;
};

/// Builds and runs `scenario`. Throws std::runtime_error (with the message
/// to show) on a policy that does not compile, a topology that cannot host
/// traffic, an output that cannot be written, or queue sampling on more
/// than one shard.
Result run(const Scenario& scenario);

}  // namespace contra::scenario
