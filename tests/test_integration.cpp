// Integration tests: miniature versions of the paper's experiments, with
// loose qualitative assertions (who wins, invariants hold). The full-size
// reproductions live in bench/.
#include <gtest/gtest.h>

#include <vector>

#include "compiler/compiler.h"
#include "dataplane/contra_switch.h"
#include "lang/policies.h"
#include "scenario/scenario.h"
#include "sim/transport.h"
#include "topology/generators.h"

namespace contra {
namespace {

using scenario::Plane;
using sim::HostId;

/// k=4 fat-tree, 2 hosts per edge, web-search flows from t = 3 ms for 30 ms
/// at `load` of each sender's link rate, then 0.15 s to drain.
scenario::Scenario fat_tree(Plane plane, double load, uint64_t seed,
                            bool fail_agg_core_link = false, double rate = 1e9) {
  scenario::Scenario sc;
  sc.topo = topology::fat_tree(4, topology::LinkParams{rate, 1e-6});
  sc.plane = plane;
  // The paper's datacenter configuration: Contra discovers shortest paths
  // dynamically and balances on utilization among them (§6.3 — probes
  // carry "the path length as well as the utilization").
  sc.policy = "minimize((path.len, path.util))";
  sc.workload.load = load;
  sc.workload.sender_capacity_bps = rate;
  sc.workload.start = 3e-3;
  sc.workload.duration = 30e-3;
  sc.workload.seed = seed;
  sc.workload.size_scale = 0.05;  // many small-ish flows for statistics
  sc.drain_s = 0.15;
  sc.sim.host_link_bps = rate;
  // Failed before installing so static planes route on the converged
  // asymmetric topology (adaptive planes discover it via probes).
  if (fail_agg_core_link) {
    sc.fail_link = sc.topo.link_between(sc.topo.find("a0_0"), sc.topo.find("c0"));
  }
  return sc;
}

scenario::Result run_fat_tree(Plane plane, double load, uint64_t seed,
                              bool fail_agg_core_link = false, double rate = 1e9) {
  return scenario::run(fat_tree(plane, load, seed, fail_agg_core_link, rate));
}

TEST(Integration, SymmetricFatTreeAllPlanesComplete) {
  for (Plane plane : {Plane::kEcmp, Plane::kHula, Plane::kContra}) {
    const scenario::Result r = run_fat_tree(plane, 0.4, 1);
    EXPECT_GT(r.fct.completed, 50u) << static_cast<int>(plane);
    EXPECT_EQ(r.fct.incomplete, 0u) << static_cast<int>(plane);
  }
}

TEST(Integration, ContraCompetitiveWithHulaOnFatTree) {
  // Fig. 11's takeaway: Contra ~= Hula (within a small factor), both load
  // aware. We assert a loose 1.5x band to keep the test robust.
  const scenario::Result hula = run_fat_tree(Plane::kHula, 0.6, 2);
  const scenario::Result contra = run_fat_tree(Plane::kContra, 0.6, 2);
  ASSERT_GT(hula.fct.completed, 0u);
  ASSERT_GT(contra.fct.completed, 0u);
  EXPECT_LT(contra.fct.mean_s, hula.fct.mean_s * 1.5);
}

TEST(Integration, AsymmetryHurtsEcmpMoreThanContra) {
  // Fig. 12's takeaway: with a failed agg-core link, load-aware planes beat
  // load-oblivious ECMP clearly at high load.
  const double load = 0.7;
  const scenario::Result ecmp = run_fat_tree(Plane::kEcmp, load, 3, /*fail=*/true);
  const scenario::Result contra = run_fat_tree(Plane::kContra, load, 3, /*fail=*/true);
  ASSERT_GT(contra.fct.completed, 0u);
  // Contra completes at least as reliably and with better tail behaviour.
  EXPECT_LE(contra.fct.incomplete, ecmp.fct.incomplete + 2);
  EXPECT_LT(contra.fct.mean_s, ecmp.fct.mean_s * 1.05);
}

TEST(Integration, ContraOverheadIsSmall) {
  // Fig. 16: Contra's probe + tag overhead is a few percent of ECMP's bytes
  // at paper-like link speeds (10 Gbps).
  const scenario::Result ecmp = run_fat_tree(Plane::kEcmp, 0.3, 4, false, 10e9);
  const scenario::Result contra = run_fat_tree(Plane::kContra, 0.3, 4, false, 10e9);
  const double normalized = contra.overhead.normalized_to(ecmp.overhead);
  EXPECT_GT(normalized, 0.9);
  EXPECT_LT(normalized, 1.25);
  EXPECT_GT(contra.overhead.probe_bytes, 0u);
}

TEST(Integration, TransientLoopTrafficIsNegligible) {
  // §6.5: a vanishing fraction of traffic ever loops.
  const scenario::Result contra = run_fat_tree(Plane::kContra, 0.6, 5);
  const double total_packets =
      static_cast<double>(contra.overhead.data_bytes) / 1500.0 + 1.0;
  EXPECT_LT(static_cast<double>(contra.contra.looped_packets_seen) / total_packets, 0.01);
}

TEST(Integration, FailureRecoveryWithinDetectionWindow) {
  // Fig. 14 in miniature: UDP stream, fail a link on its path, throughput
  // returns after ~3 probe periods.
  const double rate = 1e9;
  const topology::Topology topo = topology::fat_tree(4, topology::LinkParams{rate, 1e-6});
  sim::SimConfig config;
  config.host_link_bps = rate;
  sim::Simulator sim(topo, config);

  const compiler::CompileResult compiled =
      compiler::compile(lang::policies::min_util(), topo);
  const pg::PolicyEvaluator evaluator(compiled.graph, compiled.decomposition);
  dataplane::ContraSwitchOptions options;
  options.probe_period_s = 128e-6;
  dataplane::install_contra_network(sim, compiled, evaluator, options);

  sim::TransportManager transport(sim);
  const HostId src = sim.add_host(topo.find("e0_0"));
  const HostId dst = sim.add_host(topo.find("e1_0"));
  sim.start();
  sim.run_until(3e-3);
  transport.start_udp_flow(src, dst, 400e6, sim.now(), sim.now() + 60e-3);
  sim.run_until(sim.now() + 20e-3);
  const uint64_t before_fail = transport.udp_bytes_received();
  ASSERT_GT(before_fail, 0u);

  // Fail one aggregation uplink pair used by pod 0.
  sim.fail_cable(topo.link_between(topo.find("a0_0"), topo.find("c0")));
  sim.fail_cable(topo.link_between(topo.find("a0_0"), topo.find("c1")));
  const sim::Time fail_time = sim.now();
  sim.run_until(fail_time + 20e-3);

  // Traffic in the last 10ms (well past the ~0.4ms detection window) must
  // flow at roughly the original rate.
  const uint64_t mid = transport.udp_bytes_received();
  sim.run_until(sim.now() + 10e-3);
  const uint64_t late = transport.udp_bytes_received() - mid;
  const double expected_10ms = 400e6 * 10e-3 / 8.0;
  EXPECT_GT(static_cast<double>(late), expected_10ms * 0.7);
}

TEST(Scenario, ShardedRunIsWorkersInvariant) {
  // No figure golden or perfbench workload runs the sharded branch: at a
  // fixed shard count its answer must not depend on the worker count.
  std::vector<scenario::Result> results;
  for (uint32_t workers : {1u, 2u}) {
    scenario::Scenario sc = fat_tree(Plane::kContra, 0.6, 6);
    sc.sim.shards = 2;
    sc.sim.workers = workers;
    results.push_back(scenario::run(sc));
  }
  const scenario::Result& one = results[0];
  const scenario::Result& two = results[1];
  ASSERT_GT(one.fct.completed, 50u);
  EXPECT_GT(one.contra.data_forwarded, 0u);
  EXPECT_EQ(one.fct, two.fct);
  EXPECT_EQ(one.overhead, two.overhead);
  EXPECT_EQ(one.fabric_drops, two.fabric_drops);
  EXPECT_EQ(one.contra, two.contra);
}

}  // namespace
}  // namespace contra
