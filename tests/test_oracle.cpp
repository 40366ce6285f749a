// Differential tests for the routing oracle (src/oracle/): the converged
// distributed protocol must agree with the centralized generalized
// Bellman–Ford fixed point on every policy of the paper's Fig. 2 catalog,
// on both engines, plus the corner cases the fuzzer's grammar can reach
// (unreachable destinations, infinite-rank policies, non-isotonic
// decompositions, degenerate topologies).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "compiler/compiler.h"
#include "dataplane/contra_switch.h"
#include "lang/parser.h"
#include "lang/policies.h"
#include "oracle/checker.h"
#include "oracle/oracle.h"
#include "oracle/quiesce.h"
#include "sim/parallel_simulator.h"
#include "sim/simulator.h"
#include "topology/abilene.h"
#include "topology/generators.h"

namespace contra::oracle {
namespace {

using topology::NodeId;
using topology::Topology;

dataplane::ContraSwitchOptions idle_exact_options(const compiler::CompileResult& compiled) {
  dataplane::ContraSwitchOptions options;
  options.probe_period_s = std::max(256e-6, compiled.min_probe_period_s);
  // Idle-exact mode: probe-only utilization quantizes to exactly 0, matching
  // the oracle's idle LinkState (see the checker's tolerance model).
  options.util_quantum = 1.0;
  return options;
}

QuiesceOptions quiesce_options(const dataplane::ContraSwitchOptions& options) {
  QuiesceOptions q;
  q.probe_period_s = options.probe_period_s;
  q.max_time_s = 400.0 * options.probe_period_s;
  return q;
}

/// Runs `policy` over `topo` to quiescence (one shard when workers == 0,
/// the sharded engine otherwise) and checks every oracle invariant.
CheckReport run_and_check(Topology topo, const lang::Policy& policy, int workers = 0) {
  const compiler::CompileResult compiled = compiler::compile(policy, topo);
  const pg::PolicyEvaluator evaluator(compiled.graph, compiled.decomposition);
  const dataplane::ContraSwitchOptions options = idle_exact_options(compiled);
  const QuiesceOptions qopts = quiesce_options(options);

  sim::SimConfig cfg;
  cfg.workers = workers;
  sim::ParallelSimulator psim(topo, cfg);
  std::vector<dataplane::ContraSwitch*> switches;
  psim.for_each_shard([&](sim::Simulator& shard_sim) {
    auto owned = dataplane::install_contra_network(shard_sim, compiled, evaluator, options);
    switches.insert(switches.end(), owned.begin(), owned.end());
  });
  psim.start();
  const QuiesceResult q = run_to_quiescence(psim, switches, qopts);
  const std::vector<const dataplane::ContraSwitch*> view(switches.begin(), switches.end());
  EXPECT_TRUE(q.quiesced);
  RouteOracle oracle(compiled.graph, evaluator);
  EXPECT_TRUE(oracle.converged());
  return check_invariants(oracle, view, q.at, options_for(compiled.isotonicity));
}

#define EXPECT_AGREES(topo, policy, workers)                                   \
  do {                                                                         \
    const CheckReport report_ = run_and_check((topo), (policy), (workers));    \
    EXPECT_TRUE(report_.ok()) << report_.to_string(topo);                      \
    EXPECT_GT(report_.entries_checked, 0u);                                    \
  } while (0)

// ---- Fig. 2 policy catalog, one shard ---------------------------------------

TEST(OracleCatalog, TopologyAgnosticPoliciesOnFatTree) {
  const Topology topo = topology::fat_tree(4);
  for (const lang::Policy& p :
       {lang::policies::shortest_path(), lang::policies::min_util(),
        lang::policies::widest_shortest(), lang::policies::shortest_widest(),
        lang::policies::congestion_aware()}) {
    EXPECT_AGREES(topo, p, 0);
  }
}

TEST(OracleCatalog, TopologyAgnosticPoliciesOnAbilene) {
  const Topology topo = topology::abilene();
  for (const lang::Policy& p :
       {lang::policies::shortest_path(), lang::policies::min_util(),
        lang::policies::widest_shortest(), lang::policies::shortest_widest(),
        lang::policies::congestion_aware()}) {
    EXPECT_AGREES(topo, p, 0);
  }
}

TEST(OracleCatalog, NamedPoliciesOnAbilene) {
  const Topology topo = topology::abilene();
  for (const lang::Policy& p :
       {lang::policies::waypoint_single("Denver"),
        lang::policies::waypoint("Denver", "KansasCity"),
        lang::policies::link_preference("Denver", "KansasCity"),
        lang::policies::weighted_link("Denver", "KansasCity", 3),
        lang::policies::source_local("Seattle"),
        lang::policies::failover("Seattle Denver KansasCity",
                                 "Seattle Sunnyvale Denver KansasCity")}) {
    const CheckReport report = run_and_check(topo, p, 0);
    EXPECT_TRUE(report.ok()) << report.to_string(topo);
  }
}

// ---- parallel engine agrees too ---------------------------------------------

TEST(OracleParallel, FatTreeMinUtilWorkers2And4) {
  for (int workers : {2, 4}) {
    EXPECT_AGREES(topology::fat_tree(4), lang::policies::min_util(), workers);
    EXPECT_AGREES(topology::fat_tree(4), lang::policies::shortest_path(), workers);
  }
}

TEST(OracleParallel, AbileneWidestShortestWorkers2And4) {
  for (int workers : {2, 4}) {
    EXPECT_AGREES(topology::abilene(), lang::policies::widest_shortest(), workers);
  }
}

// ---- corner cases -----------------------------------------------------------

TEST(OracleCorners, SingleNodeTopologyHasNoRoutes) {
  Topology topo;
  topo.add_node("solo");
  const compiler::CompileResult compiled =
      compiler::compile(lang::policies::shortest_path(), topo);
  const pg::PolicyEvaluator evaluator(compiled.graph, compiled.decomposition);
  const RouteOracle oracle(compiled.graph, evaluator);
  EXPECT_TRUE(oracle.converged());
  EXPECT_FALSE(oracle.best(0, 0).has_value());
  // And the checker agrees with an equally empty simulation.
  const CheckReport report = run_and_check(std::move(topo), lang::policies::shortest_path());
  EXPECT_TRUE(report.ok()) << report.violations.size();
}

TEST(OracleCorners, ZeroEdgeIslandsAreMutuallyUnreachable) {
  Topology topo;
  topo.add_node("iso0");
  topo.add_node("iso1");
  const compiler::CompileResult compiled =
      compiler::compile(lang::policies::min_util(), topo);
  const pg::PolicyEvaluator evaluator(compiled.graph, compiled.decomposition);
  const RouteOracle oracle(compiled.graph, evaluator);
  EXPECT_FALSE(oracle.best(0, 1).has_value());
  EXPECT_FALSE(oracle.best(1, 0).has_value());
  const CheckReport report = run_and_check(std::move(topo), lang::policies::min_util());
  EXPECT_TRUE(report.ok());
}

TEST(OracleCorners, FailedOnlyLinkMakesDestinationUnreachable) {
  const Topology topo = topology::line(2);
  const compiler::CompileResult compiled =
      compiler::compile(lang::policies::shortest_path(), topo);
  const pg::PolicyEvaluator evaluator(compiled.graph, compiled.decomposition);

  LinkState links = LinkState::all_up(topo);
  links.fail_cable(topo, topo.link_between(0, 1));
  const RouteOracle oracle(compiled.graph, evaluator, links);
  EXPECT_TRUE(oracle.converged());
  EXPECT_FALSE(oracle.best(0, 1).has_value());
  EXPECT_FALSE(oracle.best(1, 0).has_value());

  // All-up control: both directions route.
  const RouteOracle up(compiled.graph, evaluator);
  EXPECT_TRUE(up.best(0, 1).has_value());
  EXPECT_TRUE(up.best(1, 0).has_value());
}

TEST(OracleCorners, InfiniteFallbackPolicyAdmitsOnlyCompliantSources) {
  // Only the exact path A-B-D is admitted; C (and D itself toward others)
  // has no policy-compliant route — oracle and converged sim must agree.
  const Topology topo = topology::running_example();
  const lang::Policy policy =
      lang::parse_policy("minimize(if A B D then path.len else inf)");
  const compiler::CompileResult compiled = compiler::compile(policy, topo);
  const pg::PolicyEvaluator evaluator(compiled.graph, compiled.decomposition);
  const RouteOracle oracle(compiled.graph, evaluator);

  const NodeId a = topo.find("A");
  const NodeId c = topo.find("C");
  const NodeId d = topo.find("D");
  EXPECT_TRUE(oracle.best(a, d).has_value());
  EXPECT_FALSE(oracle.best(c, d).has_value());

  const CheckReport report = run_and_check(topo, policy);
  EXPECT_TRUE(report.ok()) << report.to_string(topo);
}

TEST(OracleCorners, NonIsotonicDynamicTestCheckedPerPid) {
  // congestion_aware embeds a dynamic metric test: kDecomposed isotonicity,
  // so options_for disables the BestT s-comparison but per-pid entry
  // optimality must still hold on the converged sim.
  const Topology topo = topology::running_example();
  const compiler::CompileResult compiled =
      compiler::compile(lang::policies::congestion_aware(), topo);
  const CheckerOptions opts = options_for(compiled.isotonicity);
  EXPECT_TRUE(opts.check_optimality);
  const CheckReport report = run_and_check(topo, lang::policies::congestion_aware());
  EXPECT_TRUE(report.ok()) << report.to_string(topo);
}

// ---- tag-minimization soundness (invariant c) -------------------------------

TEST(OracleTagMerge, WaypointOnAbileneIsSound) {
  const Topology topo = topology::abilene();
  const compiler::CompileResult compiled =
      compiler::compile(lang::policies::waypoint_single("Denver"), topo);
  const CheckReport report = check_tag_minimization(compiled, LinkState::all_up(topo));
  EXPECT_TRUE(report.ok()) << report.to_string(topo);
  EXPECT_GT(report.entries_checked, 0u);
}

TEST(OracleTagMerge, RunningExamplePaperPolicyIsSound) {
  const Topology topo = topology::running_example();
  const compiler::CompileResult compiled = compiler::compile(
      lang::parse_policy(
          "minimize(if A B D then 0 else if B .* D then path.util else inf)"),
      topo);
  const CheckReport report = check_tag_minimization(compiled, LinkState::all_up(topo));
  EXPECT_TRUE(report.ok()) << report.to_string(topo);
}

TEST(OracleTagMerge, SoundUnderFailureToo) {
  const Topology topo = topology::abilene();
  const compiler::CompileResult compiled =
      compiler::compile(lang::policies::widest_shortest(), topo);
  LinkState links = LinkState::all_up(topo);
  links.fail_cable(topo, topo.link_between(topo.find("Denver"), topo.find("KansasCity")));
  const CheckReport report = check_tag_minimization(compiled, links);
  EXPECT_TRUE(report.ok()) << report.to_string(topo);
}

// ---- rank comparison helper -------------------------------------------------

TEST(OracleRanks, RanksCloseRespectsToleranceAndInfinity) {
  const lang::Rank a = lang::Rank::scalar(1.0);
  const lang::Rank b = lang::Rank::scalar(1.0005);
  EXPECT_TRUE(ranks_close(a, b, 1e-3));
  EXPECT_FALSE(ranks_close(a, b, 1e-5));
  EXPECT_TRUE(ranks_close(lang::Rank::infinity(), lang::Rank::infinity(), 1e-3));
  EXPECT_FALSE(ranks_close(a, lang::Rank::infinity(), 1e9));
}

TEST(OracleQuiesce, DigestIsStableAtFixedPoint) {
  const Topology topo = topology::running_example();
  const compiler::CompileResult compiled =
      compiler::compile(lang::policies::min_util(), topo);
  const pg::PolicyEvaluator evaluator(compiled.graph, compiled.decomposition);
  const dataplane::ContraSwitchOptions options = idle_exact_options(compiled);
  sim::Simulator sim(topo, sim::SimConfig{});
  auto switches = dataplane::install_contra_network(sim, compiled, evaluator, options);
  sim.start();
  const QuiesceResult q = run_to_quiescence(sim, switches, quiesce_options(options));
  ASSERT_TRUE(q.quiesced);
  // Another probe period later the digest is unchanged.
  sim.run_until(sim.now() + options.probe_period_s);
  EXPECT_EQ(fwdt_digest(switches, sim.now()), q.digest);
}

}  // namespace
}  // namespace contra::oracle
