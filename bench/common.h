// Shared scenario defaults for the figure-reproduction benchmarks.
//
// Scale-down notes (see EXPERIMENTS.md): link rates and flow sizes are
// scaled so each figure regenerates in seconds of wall time; offered load
// fractions, topology shapes, and protocol timing ratios (probe period vs
// RTT vs flowlet gap) match the paper, so relative results are preserved.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "metrics/timeline.h"
#include "scenario/scenario.h"
#include "topology/abilene.h"
#include "topology/generators.h"

namespace contra::bench {

using scenario::Plane;

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

/// The paper's datacenter setup, scaled: a k=4 fat-tree of 10G links with 4
/// hosts per edge switch (16 senders), 1000-MSS queues, probe period 256us
/// and flowlet gap 200us (§6.3). Each sender offers `load` of its share of
/// the 40G bisection for 30 ms from t = 3 ms, then 0.25 s drains the FCT
/// stragglers. Contra runs the least-utilized shortest path,
/// (path.len, path.util): it discovers shortest paths dynamically (§6.3).
inline scenario::Scenario fat_tree_scenario(Plane plane, const workload::EmpiricalCdf& sizes,
                                            double load, uint64_t seed) {
  const double rate = 10e9;
  scenario::Scenario sc;
  sc.topo = topology::fat_tree(4, topology::LinkParams{rate, 1e-6});
  sc.hosts_per_edge = 4;
  sc.plane = plane;
  sc.policy = "minimize((path.len, path.util))";
  sc.sizes = &sizes;
  sc.workload.load = load;
  sc.workload.sender_capacity_bps = 4.0 * rate / 16;  // k^3/4 x rate bisection
  sc.workload.start = 3e-3;
  sc.workload.duration = 30e-3;
  sc.workload.seed = seed;
  sc.workload.size_scale = 0.1;
  sc.sim.host_link_bps = rate;
  sc.sim.util_tau_s = 2 * sc.contra.probe_period_s;
  return sc;
}

/// Fig. 12/13's asymmetry: the a0_0-c0 cable, failed before traffic.
inline topology::LinkId agg_core_link(const topology::Topology& topo) {
  return topo.link_between(topo.find("a0_0"), topo.find("c0"));
}

/// The paper's WAN setup (§6.4): Abilene with links scaled 40G -> 2G and
/// delays by 0.02 (max RTT stays under the §5.2 probe-period rule at
/// simulation-friendly durations), four sender/receiver pairs across the
/// continent, 40 ms of traffic from t = 5 ms and a 0.4 s drain. Contra runs
/// pure minimum utilization ("Contra (MU)"): on a WAN the longer,
/// less-utilized paths are exactly the point.
inline scenario::Scenario abilene_scenario(Plane plane, const workload::EmpiricalCdf& sizes,
                                           double load, uint64_t seed) {
  const double rate = 2e9;
  scenario::Scenario sc;
  sc.topo = topology::abilene(rate, 0.02);
  for (const char* name : {"Seattle", "Sunnyvale", "LosAngeles", "Denver"}) {
    sc.sender_switches.push_back(sc.topo.find(name));
  }
  for (const char* name : {"NewYork", "WashingtonDC", "Atlanta", "Chicago"}) {
    sc.receiver_switches.push_back(sc.topo.find(name));
  }
  sc.plane = plane;
  sc.policy = "minimize(path.util)";
  sc.sizes = &sizes;
  sc.workload.load = load;
  sc.workload.sender_capacity_bps = rate;
  sc.workload.start = 5e-3;
  sc.workload.duration = 40e-3;
  sc.workload.seed = seed;
  sc.workload.size_scale = 0.1;
  sc.drain_s = 0.4;
  sc.sim.host_link_bps = rate;
  sc.sim.util_tau_s = 2 * sc.contra.probe_period_s;
  return sc;
}

}  // namespace contra::bench
