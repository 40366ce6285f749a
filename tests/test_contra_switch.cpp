// Contra switch protocol tests: probe processing semantics (§4.3 + §5.1
// versioning), convergence to policy-optimal paths, congestion adaptation,
// policy compliance, failure detection and rerouting, metric expiry.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <tuple>

#include "compiler/compiler.h"
#include "dataplane/contra_switch.h"
#include "lang/policies.h"
#include "sim/host.h"
#include "sim/transport.h"
#include "topology/abilene.h"
#include "topology/generators.h"

namespace contra::dataplane {
namespace {

using sim::HostId;
using sim::Packet;
using sim::PacketKind;
using topology::NodeId;
using topology::Topology;

struct ContraWorld {
  ContraWorld(Topology topology, const lang::Policy& policy,
              ContraSwitchOptions options = {})
      : topo(std::move(topology)),
        compiled(compiler::compile(policy, topo)),
        evaluator(compiled.graph, compiled.decomposition),
        sim(topo, make_config()),
        switches(install_contra_network(sim, compiled, evaluator, options)) {}

  static sim::SimConfig make_config() {
    sim::SimConfig c;
    c.host_link_bps = 1e9;
    return c;
  }

  void converge(double seconds = 5e-3) {
    sim.start();
    sim.run_until(sim.now() + seconds);
  }

  Topology topo;
  compiler::CompileResult compiled;
  pg::PolicyEvaluator evaluator;
  sim::Simulator sim;
  std::vector<ContraSwitch*> switches;
};

Packet make_probe(NodeId origin, uint32_t pid, uint32_t tag, uint64_t version, double util,
                  double len) {
  Packet p;
  p.kind = PacketKind::kProbe;
  p.id = 1000 + version;
  p.size_bytes = 72;
  pg::MetricsVector mv;
  mv.util = util;
  mv.len = len;
  p.probe = sim::ProbeFields{origin, pid, tag, /*traffic_class=*/0, version, mv};
  return p;
}

// ---- probe semantics, driven by hand-crafted probes ------------------------

class ProbeSemantics : public ::testing::Test {
 protected:
  ProbeSemantics()
      : topo(topology::line(3, topology::LinkParams{1e9, 1e-6})),
        compiled(compiler::compile(lang::policies::min_util(), topo)),
        evaluator(compiled.graph, compiled.decomposition),
        sim(topo, sim::SimConfig{}) {}

  ContraSwitch make_switch(NodeId self, ContraSwitchOptions options = {}) {
    return ContraSwitch(compiled, evaluator, self, options);
  }

  topology::Topology topo;
  compiler::CompileResult compiled;
  pg::PolicyEvaluator evaluator;
  sim::Simulator sim;
};

TEST_F(ProbeSemantics, AdoptsFirstProbe) {
  ContraSwitch sw = make_switch(1);
  const topology::LinkId in = topo.link_between(0, 1);
  sw.handle_packet(sim, make_probe(0, 0, 0, 1, 0.4, 1), in);
  const auto* entry = sw.fwd_entry(0, 0, 0);
  ASSERT_NE(entry, nullptr);
  EXPECT_NEAR(entry->mv.util, 0.4, 1e-9);
  EXPECT_EQ(entry->version, 1u);
  EXPECT_EQ(entry->nhop, topo.link(in).reverse);
}

TEST_F(ProbeSemantics, OlderVersionIsDiscarded) {
  // §5.1: the Fig. 4 fix — a delayed probe carrying stale good news must not
  // override fresher state.
  ContraSwitch sw = make_switch(1);
  const topology::LinkId in = topo.link_between(0, 1);
  sw.handle_packet(sim, make_probe(0, 0, 0, 2, 0.5, 1), in);
  sw.handle_packet(sim, make_probe(0, 0, 0, 1, 0.1, 1), in);  // stale, better
  EXPECT_NEAR(sw.fwd_entry(0, 0, 0)->mv.util, 0.5, 1e-9);
  EXPECT_EQ(sw.stats().probes_dropped_version, 1u);
}

TEST_F(ProbeSemantics, WithoutVersioningStaleGoodNewsWins) {
  // The ablation: classic distance-vector adopts the better metric no matter
  // how old — exactly the §3 loop-forming behaviour.
  ContraSwitchOptions options;
  options.versioned_probes = false;
  ContraSwitch sw = make_switch(1, options);
  const topology::LinkId in = topo.link_between(0, 1);
  sw.handle_packet(sim, make_probe(0, 0, 0, 2, 0.5, 1), in);
  sw.handle_packet(sim, make_probe(0, 0, 0, 1, 0.1, 1), in);
  EXPECT_NEAR(sw.fwd_entry(0, 0, 0)->mv.util, 0.1, 1e-9);
}

TEST_F(ProbeSemantics, SameVersionRequiresImprovement) {
  ContraSwitch sw = make_switch(1);
  const topology::LinkId in = topo.link_between(0, 1);
  sw.handle_packet(sim, make_probe(0, 0, 0, 1, 0.3, 1), in);
  sw.handle_packet(sim, make_probe(0, 0, 0, 1, 0.6, 1), in);  // worse, same v
  EXPECT_NEAR(sw.fwd_entry(0, 0, 0)->mv.util, 0.3, 1e-9);
  EXPECT_GE(sw.stats().probes_dropped_worse, 1u);
  sw.handle_packet(sim, make_probe(0, 0, 0, 1, 0.2, 1), in);  // better, same v
  EXPECT_NEAR(sw.fwd_entry(0, 0, 0)->mv.util, 0.2, 1e-9);
}

TEST_F(ProbeSemantics, NewerVersionWithWorseMetricIsAdopted) {
  // Bad news must spread: utilization increases are adopted on fresher
  // rounds even though the rank got worse.
  ContraSwitch sw = make_switch(1);
  const topology::LinkId in = topo.link_between(0, 1);
  sw.handle_packet(sim, make_probe(0, 0, 0, 1, 0.2, 1), in);
  sw.handle_packet(sim, make_probe(0, 0, 0, 2, 0.8, 1), in);
  EXPECT_NEAR(sw.fwd_entry(0, 0, 0)->mv.util, 0.8, 1e-9);
  EXPECT_EQ(sw.fwd_entry(0, 0, 0)->version, 2u);
}

TEST_F(ProbeSemantics, MetricsVectorExtendsWithIngressLink) {
  ContraSwitch sw = make_switch(1);
  const topology::LinkId in = topo.link_between(0, 1);
  // Probe arrives with len=1 (one hop so far); the switch extends by the
  // traffic-direction link: len becomes 2.
  sw.handle_packet(sim, make_probe(0, 0, 0, 1, 0.0, 1), in);
  EXPECT_NEAR(sw.fwd_entry(0, 0, 0)->mv.len, 2.0, 1e-9);
}

TEST_F(ProbeSemantics, RegressedVersionAcceptedAfterStalenessWindow) {
  // DSDV-style version reset: a probe whose version went backwards means the
  // origin restarted its control plane. Inside the staleness window it is
  // dropped (could be a delayed duplicate); after version_reset_periods of
  // silence it must be accepted or routes to the restarted origin die.
  ContraSwitch sw = make_switch(1);  // defaults: 256us period, 3-period window
  const topology::LinkId in = topo.link_between(0, 1);
  sw.handle_packet(sim, make_probe(0, 0, 0, /*version=*/40, 0.5, 1), in);

  sim.run_until(2 * 256e-6);  // inside the 3-period window
  sw.handle_packet(sim, make_probe(0, 0, 0, 1, 0.1, 1), in);
  EXPECT_EQ(sw.fwd_entry(0, 0, 0)->version, 40u);
  EXPECT_EQ(sw.stats().probes_dropped_version, 1u);

  sim.run_until(4 * 256e-6);  // no accepted refresh for > 3 periods
  sw.handle_packet(sim, make_probe(0, 0, 0, 2, 0.7, 1), in);
  ASSERT_NE(sw.fwd_entry(0, 0, 0), nullptr);
  EXPECT_EQ(sw.fwd_entry(0, 0, 0)->version, 2u);
  EXPECT_NEAR(sw.fwd_entry(0, 0, 0)->mv.util, 0.7, 1e-9);
}

TEST_F(ProbeSemantics, VersionResetDisabledKeepsDropping) {
  ContraSwitchOptions options;
  options.version_reset_periods = 0.0;
  ContraSwitch sw = make_switch(1, options);
  const topology::LinkId in = topo.link_between(0, 1);
  sw.handle_packet(sim, make_probe(0, 0, 0, 40, 0.5, 1), in);
  sim.run_until(10 * 256e-6);  // far past any window
  sw.handle_packet(sim, make_probe(0, 0, 0, 2, 0.7, 1), in);
  EXPECT_EQ(sw.fwd_entry(0, 0, 0)->version, 40u);
  EXPECT_EQ(sw.stats().probes_dropped_version, 1u);
}

TEST_F(ProbeSemantics, OutOfUniverseKeyCountsFallback) {
  // The compiler proved the (dst, tag, pid) universe; a probe outside it must
  // be counted and dropped, never silently hashed into existence. The assert
  // option is lowered to exercise the release-mode counting path.
  ContraSwitchOptions options;
  options.assert_on_dense_fallback = false;
  ContraSwitch sw = make_switch(1, options);
  const topology::LinkId in = topo.link_between(0, 1);
  // pid 7 was never compiled (min_util has a single subpolicy): the key
  // passes the PG tag step but addresses no dense row.
  sw.handle_packet(sim, make_probe(0, /*pid=*/7, 0, 1, 0.4, 1), in);
  EXPECT_EQ(sw.stats().dense_fallback_hits, 1u);
  EXPECT_EQ(sw.stats().fwdt_updates, 0u);
  EXPECT_EQ(sw.stats().probes_propagated, 0u);
  // In-universe probes on the same switch still work afterwards.
  sw.handle_packet(sim, make_probe(0, 0, 0, 1, 0.4, 1), in);
  EXPECT_NE(sw.fwd_entry(0, 0, 0), nullptr);
  EXPECT_EQ(sw.stats().dense_fallback_hits, 1u);
}

TEST_F(ProbeSemantics, RenderTablesGoldenFormat) {
  // Pins the exact rendered table (format AND row order) against hand-fed
  // probes. The dense layout guarantees (dst, tag, pid)-major order without
  // sorting; a diff here means either the introspection format or the slice
  // ordering changed — both load-bearing for tooling that parses the dump.
  ContraSwitch sw = make_switch(1);
  sw.handle_packet(sim, make_probe(0, 0, 0, 1, 0.4, 1), topo.link_between(0, 1));
  sw.handle_packet(sim, make_probe(2, 0, 0, 1, 0.1, 1), topo.link_between(2, 1));
  const std::string tables = sw.render_tables(sim.now());
  EXPECT_EQ(tables,
            "FwdT @ n1 (* = BestT choice)\n"
            "  [dst, tag, pid] -> (util, lat_us, len), ntag, nhop, version\n"
            "  [n0, t0, p0] -> (0.400, 1.00, 2), t0, n0, v1 *\n"
            "  [n2, t0, p0] -> (0.100, 1.00, 2), t0, n2, v1 *\n");
}

// ---- convergence -----------------------------------------------------------

TEST(ContraConvergence, ShortestPathPolicyMatchesBfs) {
  ContraWorld world(topology::abilene(1e9, 0.001), lang::policies::shortest_path());
  world.converge(10e-3);
  // s() for path.len is the hop count: must equal BFS distance for every
  // (src, dst) pair — the protocol converged to optimal paths (§ "Optimal").
  for (NodeId src = 0; src < world.topo.num_nodes(); ++src) {
    const auto hops = world.topo.bfs_hops(src);
    for (NodeId dst = 0; dst < world.topo.num_nodes(); ++dst) {
      if (src == dst) continue;
      const auto best = world.switches[src]->best_choice(dst, world.sim.now());
      ASSERT_TRUE(best.has_value()) << src << "->" << dst;
      EXPECT_EQ(best->rank, lang::Rank::scalar(static_cast<double>(hops[dst])))
          << world.topo.name(src) << "->" << world.topo.name(dst);
    }
  }
}

TEST(ContraConvergence, RunningExampleMatchesPaper) {
  // Fig. 6: A pins A-B-D (rank 0); B load-balances toward D.
  ContraWorld world(
      topology::running_example(),
      lang::parse_policy("minimize(if A B D then 0 else if B .* D then path.util else inf)"));
  world.converge();
  const NodeId a = world.topo.find("A");
  const NodeId b = world.topo.find("B");
  const NodeId d = world.topo.find("D");

  const auto best_a = world.switches[a]->best_choice(d, world.sim.now());
  ASSERT_TRUE(best_a.has_value());
  EXPECT_EQ(best_a->rank, lang::Rank::scalar(0.0));
  EXPECT_EQ(world.topo.link(best_a->nhop).to, b);  // first hop of A-B-D

  const auto best_b = world.switches[b]->best_choice(d, world.sim.now());
  ASSERT_TRUE(best_b.has_value());
  EXPECT_FALSE(best_b->rank.is_infinite());

  // C can only reach D via the B.*D class if its paths start with B — they
  // don't (C is the first node), so C has no policy-compliant route.
  const auto best_c = world.switches[world.topo.find("C")]->best_choice(d, world.sim.now());
  EXPECT_FALSE(best_c.has_value());
}

TEST(ContraConvergence, AdaptsAwayFromCongestedPath) {
  // Diamond: S-A-D and S-B-D. Flood A-D with UDP; the MU policy must steer
  // S's choice to B within a few probe periods.
  Topology topo;
  const NodeId s = topo.add_node("S");
  const NodeId a = topo.add_node("A");
  const NodeId b = topo.add_node("B");
  const NodeId d = topo.add_node("D");
  topo.add_link(s, a, 1e9, 1e-6);
  topo.add_link(s, b, 1e9, 1e-6);
  topo.add_link(a, d, 1e9, 1e-6);
  topo.add_link(b, d, 1e9, 1e-6);

  ContraWorld world(std::move(topo), lang::policies::min_util());
  sim::TransportManager transport(world.sim);
  const HostId host_a = world.sim.add_host(a);
  const HostId host_d = world.sim.add_host(d);
  world.sim.start();
  world.sim.run_until(3e-3);

  // Converged and idle: both paths rank equally (util ~0).
  const auto before = world.switches[s]->best_choice(d, world.sim.now());
  ASSERT_TRUE(before.has_value());

  // 800 Mbps of UDP across A-D.
  transport.start_udp_flow(host_a, host_d, 800e6, world.sim.now(), world.sim.now() + 50e-3);
  world.sim.run_until(world.sim.now() + 20e-3);

  const auto after = world.switches[s]->best_choice(d, world.sim.now());
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(world.topo.link(after->nhop).to, b) << "should avoid the congested A-D path";
}

TEST(ContraConvergence, EveryPairRoutableUnderMinUtil) {
  ContraWorld world(topology::fat_tree(4), lang::policies::min_util());
  world.converge(5e-3);
  for (NodeId src = 0; src < world.topo.num_nodes(); ++src) {
    for (NodeId dst = 0; dst < world.topo.num_nodes(); ++dst) {
      if (src == dst) continue;
      EXPECT_TRUE(world.switches[src]->best_choice(dst, world.sim.now()).has_value())
          << world.topo.name(src) << "->" << world.topo.name(dst);
    }
  }
}

// ---- failures ---------------------------------------------------------------

TEST(ContraFailure, ReroutesAroundFailedLink) {
  ContraSwitchOptions options;
  options.probe_period_s = 100e-6;
  ContraWorld world(topology::running_example(), lang::policies::min_util(), options);
  world.converge(3e-3);

  const NodeId a = world.topo.find("A");
  const NodeId b = world.topo.find("B");
  const NodeId d = world.topo.find("D");

  // Force A's current choice through B by checking, then fail B-D AND B-C so
  // B is a dead end toward D... simpler: fail whichever first hop A uses.
  const auto before = world.switches[a]->best_choice(d, world.sim.now());
  ASSERT_TRUE(before.has_value());
  const NodeId via = world.topo.link(before->nhop).to;
  const NodeId other = via == b ? world.topo.find("C") : b;

  world.sim.fail_cable(world.topo.link_between(via, d));
  world.sim.run_until(world.sim.now() + 5e-3);

  const auto after = world.switches[a]->best_choice(d, world.sim.now());
  ASSERT_TRUE(after.has_value());
  // A may route via the other branch directly, or still via `via` which now
  // relays through the other side; either way rank is finite and the next
  // hop's path avoids the dead link. Check A's packets can actually arrive:
  EXPECT_TRUE(world.topo.link(after->nhop).to == other ||
              world.topo.link(after->nhop).to == via);
  EXPECT_FALSE(after->rank.is_infinite());
}

TEST(ContraFailure, MetricExpiryRemovesDeadRoutes) {
  ContraSwitchOptions options;
  options.probe_period_s = 100e-6;
  options.metric_expiry_periods = 5;
  ContraWorld world(topology::line(2), lang::policies::min_util(), options);
  world.converge(2e-3);

  const auto before = world.switches[0]->best_choice(1, world.sim.now());
  ASSERT_TRUE(before.has_value());

  // Cut the only link: after expiry there must be no usable route.
  world.sim.fail_cable(world.topo.link_between(0, 1));
  world.sim.run_until(world.sim.now() + 2e-3);
  EXPECT_FALSE(world.switches[0]->best_choice(1, world.sim.now()).has_value());
}

TEST(ContraFailure, FailoverPolicyPrefersPrimaryThenBackup) {
  Topology topo;
  const NodeId a = topo.add_node("A");
  const NodeId b = topo.add_node("B");
  const NodeId c = topo.add_node("C");
  const NodeId d = topo.add_node("D");
  topo.add_link(a, b, 1e9, 1e-6);
  topo.add_link(b, d, 1e9, 1e-6);
  topo.add_link(a, c, 1e9, 1e-6);
  topo.add_link(c, d, 1e9, 1e-6);

  ContraSwitchOptions options;
  options.probe_period_s = 100e-6;
  ContraWorld world(std::move(topo), lang::policies::failover("A B D", "A C D"), options);
  world.converge(3e-3);

  auto best = world.switches[a]->best_choice(d, world.sim.now());
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(world.topo.link(best->nhop).to, b);
  EXPECT_EQ(best->rank, lang::Rank::scalar(0.0));

  world.sim.fail_cable(world.topo.link_between(b, d));
  world.sim.run_until(world.sim.now() + 5e-3);
  best = world.switches[a]->best_choice(d, world.sim.now());
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(world.topo.link(best->nhop).to, c);
  EXPECT_EQ(best->rank, lang::Rank::scalar(1.0));

  world.sim.restore_cable(world.topo.link_between(b, d));
  world.sim.run_until(world.sim.now() + 5e-3);
  best = world.switches[a]->best_choice(d, world.sim.now());
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(world.topo.link(best->nhop).to, b);
}

TEST(ContraFailure, RestartedDestinationRecoversRoutes) {
  // Kill/revive: the destination's control plane restarts (probe versions go
  // back to zero). The rest of the fabric holds entries with much larger
  // versions; without the staleness-window reset the restarted origin could
  // never re-announce itself and its routes would expire.
  ContraSwitchOptions options;
  options.probe_period_s = 100e-6;
  ContraWorld world(topology::line(3), lang::policies::min_util(), options);
  world.converge(3e-3);

  const auto before = world.switches[0]->best_choice(2, world.sim.now());
  ASSERT_TRUE(before.has_value());
  const uint64_t v_before = world.switches[0]->fwd_entry(2, before->tag, before->pid)->version;
  ASSERT_GT(v_before, 3u);

  world.switches[2]->restart_control_plane();
  world.sim.run_until(world.sim.now() + 3e-3);

  const auto after = world.switches[0]->best_choice(2, world.sim.now());
  ASSERT_TRUE(after.has_value());
  const auto* entry = world.switches[0]->fwd_entry(2, after->tag, after->pid);
  ASSERT_NE(entry, nullptr);
  // The adopted version comes from the restarted clock, which lags the old
  // one by the whole pre-restart run.
  EXPECT_LT(entry->version, v_before);
}

TEST(ContraFailure, RestartedDestinationStaysDarkWithoutReset) {
  // Ablation for the test above: with the reset window disabled, regressed
  // versions are dropped forever and metric expiry removes the routes.
  ContraSwitchOptions options;
  options.probe_period_s = 100e-6;
  options.version_reset_periods = 0.0;
  options.metric_expiry_periods = 8.0;
  ContraWorld world(topology::line(3), lang::policies::min_util(), options);
  world.converge(3e-3);
  ASSERT_TRUE(world.switches[0]->best_choice(2, world.sim.now()).has_value());

  world.switches[2]->restart_control_plane();
  world.sim.run_until(world.sim.now() + 3e-3);
  EXPECT_FALSE(world.switches[0]->best_choice(2, world.sim.now()).has_value());
}

// ---- end-to-end forwarding --------------------------------------------------

TEST(ContraForwarding, DeliversFlowsAndCountsStats) {
  ContraWorld world(topology::fat_tree(4), lang::policies::min_util());
  sim::TransportManager transport(world.sim);
  const std::vector<HostId> hosts = sim::attach_hosts_to_fat_tree_edges(world.sim, 1);
  world.sim.start();
  world.sim.run_until(3e-3);

  transport.start_flow(hosts[0], hosts[5], 100'000, world.sim.now());
  transport.start_flow(hosts[3], hosts[7], 100'000, world.sim.now());
  world.sim.run_until(world.sim.now() + 100e-3);
  EXPECT_EQ(transport.completed_flows().size(), 2u);

  uint64_t forwarded = 0;
  uint64_t no_route = 0;
  for (const ContraSwitch* sw : world.switches) {
    forwarded += sw->stats().data_forwarded;
    no_route += sw->stats().data_dropped_no_route;
  }
  EXPECT_GT(forwarded, 0u);
  EXPECT_EQ(no_route, 0u);
}

TEST(ContraForwarding, WaypointTrafficAlwaysCrossesWaypoint) {
  Topology topo;
  const NodeId s = topo.add_node("S");
  const NodeId w = topo.add_node("W");
  const NodeId x = topo.add_node("X");
  const NodeId d = topo.add_node("D");
  topo.add_link(s, w, 1e9, 1e-6);
  topo.add_link(w, d, 1e9, 1e-6);
  topo.add_link(s, x, 1e9, 1e-6);
  topo.add_link(x, d, 1e9, 1e-6);

  ContraWorld world(std::move(topo), lang::policies::waypoint_single("W"));
  sim::TransportManager transport(world.sim);
  const HostId hs = world.sim.add_host(s);
  const HostId hd = world.sim.add_host(d);
  world.sim.start();
  world.sim.run_until(3e-3);

  transport.start_flow(hs, hd, 200'000, world.sim.now());
  world.sim.run_until(world.sim.now() + 100e-3);
  ASSERT_EQ(transport.completed_flows().size(), 1u);

  // The bypass switch X must have forwarded nothing.
  EXPECT_EQ(world.switches[x]->stats().data_forwarded, 0u);
  EXPECT_GT(world.switches[w]->stats().data_forwarded, 0u);
}

TEST(ContraIntrospection, RenderTablesShowsEntriesAndBestChoice) {
  ContraWorld world(topology::running_example(), lang::policies::min_util());
  world.converge(5e-3);
  const topology::NodeId a = world.topo.find("A");
  const std::string tables = world.switches[a]->render_tables(world.sim.now());
  EXPECT_NE(tables.find("FwdT @ A"), std::string::npos);
  // Entries exist for every other switch as destination, and exactly one
  // starred (BestT) row per destination.
  for (const char* dst : {"B", "C", "D"}) {
    EXPECT_NE(tables.find(std::string("[") + dst + ","), std::string::npos) << dst;
  }
  const size_t stars = std::count(tables.begin(), tables.end(), '*');
  EXPECT_EQ(stars, 3u + 1u);  // 3 destinations + the header legend's '*'
}

// ---- dense/reference parity and suppression fixed points -------------------

TEST(ContraParity, ReferenceHashTablesMatchDenseTables) {
  // The PR 4 hash-map tables ride along as a shadow (reference_tables) and
  // must agree with the dense rows entry-for-entry after real convergence,
  // including the BestT winner rank per destination.
  ContraSwitchOptions options;
  options.reference_tables = true;
  ContraWorld world(topology::abilene(1e9, 0.001), lang::policies::min_util(), options);
  world.converge(10e-3);
  for (ContraSwitch* sw : world.switches) {
    EXPECT_EQ(sw->check_reference_parity(world.sim.now()), "")
        << "switch " << sw->node_id();
  }
}

/// Present FwdT rows keyed by (dst, tag, pid) with version/updated_at
/// excluded: the fixed-point content suppression must not disturb.
using FwdContent = std::map<std::tuple<NodeId, uint32_t, uint32_t>,
                            std::tuple<double, double, double, uint32_t, topology::LinkId>>;

FwdContent fwdt_content(const ContraSwitch& sw, bool include_util) {
  FwdContent content;
  sw.for_each_fwd_entry(
      [&](NodeId dst, uint32_t tag, uint32_t pid, const ContraSwitch::FwdEntry& entry) {
        content[{dst, tag, pid}] = {include_util ? entry.mv.util : 0.0, entry.mv.lat,
                                    entry.mv.len, entry.ntag, entry.nhop};
      });
  return content;
}

void expect_suppression_preserves_fixed_point(const Topology& topo,
                                              const lang::Policy& policy,
                                              bool include_util) {
  ContraSwitchOptions on;  // defaults: suppression enabled
  ContraSwitchOptions off;
  off.suppress_refresh_rounds = 1;
  ContraWorld world_on(topo, policy, on);
  ContraWorld world_off(topo, policy, off);
  world_on.converge(10e-3);
  world_off.converge(10e-3);
  ASSERT_EQ(world_on.switches.size(), world_off.switches.size());
  for (size_t i = 0; i < world_on.switches.size(); ++i) {
    EXPECT_EQ(fwdt_content(*world_on.switches[i], include_util),
              fwdt_content(*world_off.switches[i], include_util))
        << "switch " << world_on.switches[i]->node_id();
  }
}

TEST(ContraSuppression, FixedPointMatchesUnsuppressedOnFatTree) {
  expect_suppression_preserves_fixed_point(topology::fat_tree(4),
                                           lang::policies::min_util(),
                                           /*include_util=*/true);
}

TEST(ContraSuppression, FixedPointMatchesUnsuppressedOnAbilene) {
  expect_suppression_preserves_fixed_point(topology::abilene(10e9, 0.001),
                                           lang::policies::shortest_path(),
                                           /*include_util=*/true);
}

TEST(ContraSuppression, PathFixedPointMatchesOnSlowAbilene) {
  // At 1 Gbps the probe stream itself registers about one util quantum, and
  // the two worlds genuinely measure different offered loads — suppression
  // removes control traffic from the wire; that is part of its point. The
  // routing fixed point (next hop, next tag, propagated lat/len) must still
  // be bit-identical; only the measured util may differ.
  expect_suppression_preserves_fixed_point(topology::abilene(1e9, 0.001),
                                           lang::policies::shortest_path(),
                                           /*include_util=*/false);
}

TEST(ContraForwarding, SameSwitchHostsShortCircuit) {
  ContraWorld world(topology::line(2), lang::policies::min_util());
  sim::TransportManager transport(world.sim);
  const HostId h1 = world.sim.add_host(0);
  const HostId h2 = world.sim.add_host(0);  // same switch
  world.sim.start();
  world.sim.run_until(1e-3);
  transport.start_flow(h1, h2, 50'000, world.sim.now());
  world.sim.run_until(world.sim.now() + 20e-3);
  EXPECT_EQ(transport.completed_flows().size(), 1u);
  // Nothing crossed the fabric.
  EXPECT_EQ(world.sim.aggregate_fabric_stats().tx_data_bytes, 0u);
}

}  // namespace
}  // namespace contra::dataplane
