// Topology-zoo catalog tests and churn properties: the protocol must survive
// scripted link flapping and reconverge to full reachability afterwards, on
// real WAN shapes.
#include <gtest/gtest.h>

#include "compiler/compiler.h"
#include "dataplane/contra_switch.h"
#include "lang/policies.h"
#include "sim/churn_engine.h"
#include "sim/parallel_simulator.h"
#include "topology/zoo.h"
#include "util/rng.h"

namespace contra {
namespace {

using topology::NodeId;
using topology::Topology;

TEST(Zoo, GeantShape) {
  const Topology t = topology::geant();
  EXPECT_EQ(t.num_nodes(), 22u);
  EXPECT_EQ(t.num_links() / 2, 36u);
  EXPECT_TRUE(t.connected());
  EXPECT_GE(t.diameter(), 3u);
}

TEST(Zoo, B4Shape) {
  const Topology t = topology::b4();
  EXPECT_EQ(t.num_nodes(), 12u);
  EXPECT_TRUE(t.connected());
  // Intercontinental links dominate the RTT bound.
  EXPECT_GT(t.max_rtt_s(), 50e-3 * 2 * 0.5);
}

TEST(Zoo, CesnetShape) {
  const Topology t = topology::cesnet();
  EXPECT_EQ(t.num_nodes(), 10u);
  EXPECT_TRUE(t.connected());
}

TEST(Zoo, AllCompileUnderCatalogPolicies) {
  for (const Topology& t : {topology::geant(40e9, 0.001), topology::b4(40e9, 0.001),
                            topology::cesnet(10e9, 0.001)}) {
    for (const lang::Policy& p :
         {lang::policies::min_util(), lang::policies::shortest_path(),
          lang::policies::congestion_aware()}) {
      const compiler::CompileResult result = compiler::compile(p, t);
      EXPECT_GT(result.graph.num_nodes(), 0u);
    }
  }
}

TEST(Churn, ReconvergesAfterRandomFlapping) {
  // Flap three random cables on GEANT while probes run; after the churn
  // stops, every pair must be routable again and ranks finite.
  const Topology topo = topology::geant(10e9, 0.001);
  const compiler::CompileResult compiled =
      compiler::compile(lang::policies::min_util(), topo);
  const pg::PolicyEvaluator evaluator(compiled.graph, compiled.decomposition);

  sim::ParallelSimulator sim(topo, sim::SimConfig{});
  dataplane::ContraSwitchOptions options;
  options.probe_period_s = 200e-6;
  auto switches =
      dataplane::install_contra_network(sim.shard_sim(0), compiled, evaluator, options);

  util::Rng rng(99);
  sim::ChurnEngine churn(topo);
  for (int i = 0; i < 3; ++i) {
    const topology::LinkId cable = static_cast<topology::LinkId>(
        rng.uniform_int(0, topo.num_links() - 1));
    churn.flap(cable, 2e-3 + i * 1e-3, 0.8e-3, 2);
  }
  churn.arm(sim);

  sim.start();
  sim.run_until(30e-3);  // churn long over; many probe rounds since

  for (NodeId src = 0; src < topo.num_nodes(); ++src) {
    for (NodeId dst = 0; dst < topo.num_nodes(); ++dst) {
      if (src == dst) continue;
      const auto best = switches[src]->best_choice(dst, sim.now());
      ASSERT_TRUE(best.has_value()) << topo.name(src) << "->" << topo.name(dst);
      EXPECT_FALSE(best->rank.is_infinite());
    }
  }
}

TEST(Churn, FlowsSurviveFlappingPath) {
  // A long flow keeps making progress across repeated failures of one of
  // the cables on its path (rerouting + TCP retransmission).
  const Topology topo = topology::cesnet(1e9, 0.001);
  const compiler::CompileResult compiled =
      compiler::compile(lang::policies::min_util(), topo);
  const pg::PolicyEvaluator evaluator(compiled.graph, compiled.decomposition);

  sim::SimConfig config;
  config.host_link_bps = 1e9;
  sim::ParallelSimulator sim(topo, config);
  dataplane::ContraSwitchOptions options;
  options.probe_period_s = 100e-6;
  dataplane::install_contra_network(sim.shard_sim(0), compiled, evaluator, options);
  sim::ParallelTransport transport(sim);

  const sim::HostId a = sim.add_host(topo.find("Plzen"));
  const sim::HostId b = sim.add_host(topo.find("Ostrava"));

  // Flap Praha-Brno (on the likely shortest path Plzen-Praha-Brno-Ostrava);
  // the Praha-HradecKralove-Olomouc-Ostrava detour stays alive.
  sim::ChurnEngine churn(topo);
  churn.flap(topo.link_between(topo.find("Praha"), topo.find("Brno")), 5e-3, 3e-3, 4);
  churn.arm(sim);

  sim.start();
  sim.run_until(2e-3);
  transport.start_flow(a, b, 2'000'000, sim.now());
  sim.run_until(sim.now() + 0.5);
  ASSERT_EQ(transport.completed_flows().size(), 1u);
  EXPECT_TRUE(transport.completed_flows()[0].completed);
}

}  // namespace
}  // namespace contra
