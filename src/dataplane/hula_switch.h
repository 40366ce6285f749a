// HULA baseline (Katta et al., SOSR'16): utilization-aware load balancing
// specialized to multi-rooted tree (fat-tree) topologies. ToR switches
// originate probes that traverse up-down paths only; every switch keeps one
// best-hop entry per destination ToR; data uses flowlet switching onto the
// current best hop.
//
// The specialization to trees is exactly what the paper contrasts Contra
// against: HULA needs no tags, no product graph, and fewer probes — but it
// cannot run on arbitrary topologies or express other policies.
#pragma once

#include <unordered_map>
#include <vector>

#include "dataplane/ecmp_switch.h"
#include "dataplane/flowlet_table.h"
#include "dataplane/probe_engine.h"
#include "sim/node.h"
#include "sim/simulator.h"
#include "topology/generators.h"

namespace contra::dataplane {

struct HulaOptions {
  double probe_period_s = 256e-6;
  double flowlet_timeout_s = 200e-6;
  double failure_detect_periods = 3.0;
  double metric_expiry_periods = 12.0;
  uint32_t probe_bytes = 64;
};

struct HulaStats : BaselineStats {
  uint64_t probes_originated = 0;
  uint64_t probes_received = 0;
  uint64_t probes_propagated = 0;
};

class HulaSwitch : public sim::Device {
 public:
  HulaSwitch(topology::NodeId self, HulaOptions options);

  void start(sim::Simulator& sim) override;
  void handle_packet(sim::Simulator& sim, sim::Packet&& packet,
                     topology::LinkId in_link) override;
  /// Hybrid engine route query: forward_data's flowlet/best-hop selection
  /// without pinning, touching, or counting.
  topology::LinkId fluid_next_hop(sim::Simulator& sim, topology::NodeId dst_switch,
                                  const util::FiveTuple& tuple,
                                  sim::RoutingState& routing) override;
  const char* kind_name() const override { return "hula"; }

  const HulaStats& stats() const { return stats_; }

  struct BestHop {
    topology::LinkId nhop = topology::kInvalidLink;
    double util = 0.0;
    uint64_t version = 0;
    sim::Time updated_at = 0.0;
  };
  /// Best-hop entry toward a destination ToR, or nullptr.
  const BestHop* best_hop(topology::NodeId dst_tor) const;

 private:
  void originate_probes(sim::Simulator& sim);
  void process_probe(sim::Simulator& sim, sim::Packet&& packet, topology::LinkId in_link);
  void forward_data(sim::Simulator& sim, sim::Packet&& packet, topology::LinkId in_link);
  bool entry_usable(const BestHop& entry, sim::Time now) const;
  void bind_telemetry(sim::Simulator& sim);

  topology::NodeId self_;
  HulaOptions options_;
  topology::FatTreeLayer layer_ = topology::FatTreeLayer::kUnknown;

  std::unordered_map<topology::NodeId, BestHop> best_;
  FlowletTable flowlets_;
  ProbeClock probe_clock_;
  FailureDetector failure_detector_;
  HulaStats stats_;
  obs::Telemetry* telemetry_ = nullptr;
};

/// Installs HULA on a fat-tree (throws std::invalid_argument elsewhere).
std::vector<HulaSwitch*> install_hula_network(sim::Simulator& sim, HulaOptions options = {});

}  // namespace contra::dataplane
