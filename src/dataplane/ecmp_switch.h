// ECMP baseline: hash each flow onto one of the equal-cost shortest-path
// next hops, oblivious to load (the paper's weakest baseline).
#pragma once

#include <memory>

#include "dataplane/routing_tables.h"
#include "sim/node.h"
#include "sim/simulator.h"

namespace contra::dataplane {

struct BaselineStats {
  uint64_t data_forwarded = 0;
  uint64_t data_to_host = 0;
  uint64_t data_dropped_no_route = 0;
  uint64_t data_dropped_ttl = 0;
};

class EcmpSwitch : public sim::Device {
 public:
  using EcmpTable = std::vector<std::vector<std::vector<topology::LinkId>>>;

  EcmpSwitch(std::shared_ptr<const EcmpTable> table, topology::NodeId self)
      : table_(std::move(table)), self_(self) {}

  void handle_packet(sim::Simulator& sim, sim::Packet&& packet,
                     topology::LinkId in_link) override;
  /// Hybrid engine route query: the same hash pick over live group members
  /// as handle_packet.
  topology::LinkId fluid_next_hop(sim::Simulator& sim, topology::NodeId dst_switch,
                                  const util::FiveTuple& tuple,
                                  sim::RoutingState& routing) override;
  const char* kind_name() const override { return "ecmp"; }

  const BaselineStats& stats() const { return stats_; }

 private:
  std::shared_ptr<const EcmpTable> table_;
  topology::NodeId self_;
  BaselineStats stats_;
};

/// Installs ECMP switches everywhere (table computed once, shared).
std::vector<EcmpSwitch*> install_ecmp_network(sim::Simulator& sim);

}  // namespace contra::dataplane
