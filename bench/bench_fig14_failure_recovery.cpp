// Fig. 14 — aggregate UDP throughput across a link failure: steady streams,
// an aggregation-core link goes down at t = 50 ms, and the dataplane must
// detect (probe silence, 3 probe periods) and route around it.
//
// Expected shape (paper): throughput dips at the failure and recovers within
// ~1 ms for both Contra and Hula (detection ~0.8 ms at a 256us probe period).
#include <memory>

#include "common.h"
#include "compiler/compiler.h"
#include "sim/host.h"

namespace {

using namespace contra;
using namespace contra::bench;

struct Timeline {
  std::vector<double> t_ms;
  std::vector<double> gbps;
  double recovery_ms = -1.0;
};

Timeline run(Plane plane) {
  const double rate = 10e9;
  const topology::Topology topo = topology::fat_tree(4, topology::LinkParams{rate, 1e-6});
  sim::SimConfig config;
  config.host_link_bps = rate;
  config.util_tau_s = 512e-6;
  sim::Simulator sim(topo, config);

  compiler::CompileResult compiled;
  std::unique_ptr<pg::PolicyEvaluator> evaluator;
  if (plane == Plane::kContra) {
    compiled = compiler::compile("minimize((path.len, path.util))", topo);
    evaluator = std::make_unique<pg::PolicyEvaluator>(compiled.graph, compiled.decomposition);
    dataplane::install_contra_network(sim, compiled, *evaluator);
  } else {
    dataplane::install_hula_network(sim);
  }

  sim::TransportManager transport(sim);
  // ~4.25 Gbps aggregate across pods (paper's rate), as 4 UDP streams.
  const std::vector<sim::HostId> sources = sim::attach_hosts(
      sim, {topo.find("e0_0"), topo.find("e0_1"), topo.find("e1_0"), topo.find("e1_1")});
  const std::vector<sim::HostId> sinks = sim::attach_hosts(
      sim, {topo.find("e2_0"), topo.find("e2_1"), topo.find("e3_0"), topo.find("e3_1")});

  // Received UDP bytes per half-open [i*bin, (i+1)*bin) interval.
  const double bin_s = 0.5e-3;
  std::vector<uint64_t> bin_bytes;
  transport.set_udp_receive_hook([&](sim::Time t, uint32_t bytes) {
    const size_t bin = static_cast<size_t>(t / bin_s);
    if (bin_bytes.size() <= bin) bin_bytes.resize(bin + 1, 0);
    bin_bytes[bin] += bytes;
  });

  sim.start();
  for (size_t i = 0; i < sources.size(); ++i) {
    transport.start_udp_flow(sources[i], sinks[i], 4.25e9 / 4, 5e-3, 80e-3);
  }

  const double fail_at = 50e-3;
  sim.events().schedule_at(fail_at, [&] {
    // Fail the busiest aggregation-core cable — the one the pinned flowlets
    // actually traverse — so the dip is visible for any plane's path choice.
    topology::LinkId busiest = topology::kInvalidLink;
    double best_util = -1.0;
    for (topology::LinkId l = 0; l < sim.topo().num_links(); ++l) {
      const auto& link = sim.topo().link(l);
      if (topology::fat_tree_layer(sim.topo(), link.from) != topology::FatTreeLayer::kAgg ||
          topology::fat_tree_layer(sim.topo(), link.to) != topology::FatTreeLayer::kCore) {
        continue;
      }
      const double util = sim.link(l).utilization();
      if (util > best_util) {
        best_util = util;
        busiest = l;
      }
    }
    sim.fail_cable(busiest);
  });
  sim.run_until(80e-3);

  Timeline out;
  const double steady = 4.25;  // Gbps
  bool dipped = false;
  for (size_t bin = static_cast<size_t>(46e-3 / bin_s);
       bin < static_cast<size_t>(60e-3 / bin_s); ++bin) {
    const double t_ms = bin * bin_s * 1e3;
    const double bps = bin < bin_bytes.size() ? bin_bytes[bin] * 8.0 / bin_s : 0.0;
    const double gbps = bps / 1e9;
    out.t_ms.push_back(t_ms);
    out.gbps.push_back(gbps);
    if (t_ms >= fail_at * 1e3 && gbps < steady * 0.9) dipped = true;
    if (dipped && out.recovery_ms < 0 && gbps >= steady * 0.95) {
      out.recovery_ms = t_ms - fail_at * 1e3;
    }
  }
  return out;
}

}  // namespace

int main() {
  std::printf(
      "Fig. 14 — aggregate UDP throughput around an agg-core link failure at\n"
      "t=50ms (4.25 Gbps offered; probe period 256us; detection 3 periods)\n\n");
  for (Plane plane : {Plane::kContra, Plane::kHula}) {
    const Timeline timeline = run(plane);
    std::printf("%s (Gbps per 0.5ms bin):\n  ", plane_name(plane));
    for (size_t i = 0; i < timeline.t_ms.size(); ++i) {
      std::printf("%.1f=%.2f ", timeline.t_ms[i], timeline.gbps[i]);
    }
    if (timeline.recovery_ms >= 0) {
      std::printf("\n  recovered to >=95%% of steady rate %.1f ms after the failure\n\n",
                  timeline.recovery_ms);
    } else {
      std::printf("\n  no dip below 90%% observed (failure off the data paths)\n\n");
    }
  }
  std::printf(
      "Expected shape: a dip right after t=50ms, recovery within ~1ms for both\n"
      "systems (paper: Contra detects at ~800us and restores throughput <1ms).\n");
  return 0;
}
