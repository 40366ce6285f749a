// Host-side helpers. Hosts are thin in this simulator: endpoints with a NIC
// link pair managed by Simulator and a transport managed by
// TransportManager. This header provides the placement helpers experiments
// use to attach hosts to edge switches, on a Simulator or a
// ParallelSimulator (anything with topo() and add_host()).
#pragma once

#include <vector>

#include "sim/simulator.h"
#include "topology/generators.h"
#include "util/strings.h"

namespace contra::sim {

/// Attaches `per_switch` hosts to every edge switch of a fat-tree (names
/// starting with "e"); returns the host ids in attachment order.
template <typename Engine>
std::vector<HostId> attach_hosts_to_fat_tree_edges(Engine& sim, uint32_t per_switch) {
  std::vector<HostId> hosts;
  const topology::Topology& topo = sim.topo();
  for (topology::NodeId n = 0; n < topo.num_nodes(); ++n) {
    if (topology::fat_tree_layer(topo, n) != topology::FatTreeLayer::kEdge) continue;
    for (uint32_t i = 0; i < per_switch; ++i) hosts.push_back(sim.add_host(n));
  }
  return hosts;
}

/// Attaches `per_switch` hosts to every leaf of a leaf-spine topology.
template <typename Engine>
std::vector<HostId> attach_hosts_to_leaves(Engine& sim, uint32_t per_switch) {
  std::vector<HostId> hosts;
  const topology::Topology& topo = sim.topo();
  for (topology::NodeId n = 0; n < topo.num_nodes(); ++n) {
    if (!util::starts_with(topo.name(n), "leaf")) continue;
    for (uint32_t i = 0; i < per_switch; ++i) hosts.push_back(sim.add_host(n));
  }
  return hosts;
}

/// Attaches one host to each of the given switches.
template <typename Engine>
std::vector<HostId> attach_hosts(Engine& sim, const std::vector<topology::NodeId>& switches) {
  std::vector<HostId> hosts;
  hosts.reserve(switches.size());
  for (topology::NodeId n : switches) hosts.push_back(sim.add_host(n));
  return hosts;
}

}  // namespace contra::sim
