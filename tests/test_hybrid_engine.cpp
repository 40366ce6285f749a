// Hybrid flow-level/packet-level engine tests (DESIGN.md §14).
//
// The contract under test:
//   * fluid flows progress at max-min fair-share goodput — single-flow FCT
//     matches the analytic bandwidth-delay value, contending flows split the
//     bottleneck;
//   * hybrid runs agree qualitatively with pure packet-level runs (everything
//     completes; FCTs land in the same regime; the converged control plane
//     ranks destinations identically under a util-blind policy);
//   * hybrid runs are deterministic, and on the sharded engine the fluid
//     completion digest is invariant to the worker count;
//   * a streamed hybrid run through scenario::run keeps its pinned answer;
//   * util-blind policies carry util = 0 in probes, so fluid/packet load can
//     never excite triggered-update storms (the k=16 bench regression);
//   * FlowStream is a deterministic lazy generator;
//   * the GraphML importer derives names, capacities and geo-delays.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "compiler/compiler.h"
#include "dataplane/contra_switch.h"
#include "obs/convergence.h"
#include "scenario/scenario.h"
#include "sim/fluid.h"
#include "sim/host.h"
#include "sim/parallel_simulator.h"
#include "sim/transport.h"
#include "topology/generators.h"
#include "topology/parser.h"
#include "workload/generator.h"

namespace contra {
namespace {

using dataplane::ContraSwitch;
using sim::HostId;
using sim::SimConfig;
using sim::Simulator;
using sim::TransportConfig;
using topology::NodeId;
using topology::Topology;

constexpr double kRate = 1e9;

struct Fixture {
  Topology topo;
  compiler::CompileResult compiled;
  std::unique_ptr<pg::PolicyEvaluator> evaluator;

  explicit Fixture(const char* policy = "minimize(path.len)")
      : topo(topology::fat_tree(4, topology::LinkParams{kRate, 1e-6})),
        compiled(compiler::compile(policy, topo)),
        evaluator(std::make_unique<pg::PolicyEvaluator>(compiled.graph, compiled.decomposition)) {}
};

// One shard: the engine every scenario runs on by default.
struct HybridRun {
  sim::ParallelSimulator sim;
  std::vector<ContraSwitch*> switches;
  std::vector<HostId> senders, receivers;
  sim::ParallelTransport transport;  // last: its init runs install() first

  HybridRun(const Fixture& fx, TransportConfig tc)
      : sim(fx.topo,
            [] {
              SimConfig c;
              c.host_link_bps = kRate;
              return c;
            }()),
        switches(),
        transport((install(fx, sim, switches, senders, receivers), sim), tc) {}

  static void install(const Fixture& fx, sim::ParallelSimulator& sim,
                      std::vector<ContraSwitch*>& switches, std::vector<HostId>& senders,
                      std::vector<HostId>& receivers) {
    for (HostId h : sim::attach_hosts_to_fat_tree_edges(sim, 2)) {
      (h % 2 ? receivers : senders).push_back(h);
    }
    dataplane::ContraSwitchOptions options;
    options.probe_period_s = 256e-6;
    switches =
        dataplane::install_contra_network(sim.shard_sim(0), fx.compiled, *fx.evaluator, options);
  }
};

// Goodput share of the wire under the default framing.
double goodput(double link_bps, const TransportConfig& tc = {}) {
  return link_bps * tc.mss_bytes / double(tc.mss_bytes + tc.header_bytes);
}

// ---- fluid rate / FCT units ------------------------------------------------

TEST(Fluid, SingleFlowCompletesAtBottleneckGoodput) {
  Fixture fx;
  TransportConfig tc;
  tc.hybrid = true;
  tc.hybrid_sample_every = 0;  // every flow fluid
  HybridRun run(fx, tc);
  run.sim.start();
  run.sim.run_until(3e-3);  // control plane converges first

  const uint64_t bytes = 10'000'000;
  run.transport.start_flow(run.senders[0], run.receivers[1], bytes, run.sim.now());
  run.sim.run_until(run.sim.now() + 0.2);

  ASSERT_EQ(run.transport.completed_flows().size(), 1u);
  const sim::FlowRecord& rec = run.transport.completed_flows()[0];
  const double ideal = double(bytes) * 8 / goodput(kRate);
  // Analytic FCT = transfer at goodput + propagation floor, quantized to the
  // next fluid tick; everything beyond ~two quanta of slack is an error.
  EXPECT_GE(rec.fct(), ideal);
  EXPECT_LE(rec.fct(), ideal + 4 * tc.fluid_quantum_s + 1e-3);
  const sim::FluidStats& fs = run.transport.fluid_engine()->stats();
  EXPECT_EQ(fs.flows_started, 1u);
  EXPECT_EQ(fs.flows_completed, 1u);
  EXPECT_EQ(fs.stalls, 0u);
}

TEST(Fluid, TwoFlowsSplitTheSenderLink) {
  Fixture fx;
  TransportConfig tc;
  tc.hybrid = true;
  tc.hybrid_sample_every = 0;
  HybridRun run(fx, tc);
  run.sim.start();
  run.sim.run_until(3e-3);

  // Same sender host: both flows share its access link, max-min gives each
  // half the goodput and equal-size flows finish together at ~2x the solo FCT.
  const uint64_t bytes = 5'000'000;
  const sim::Time t0 = run.sim.now();
  run.transport.start_flow(run.senders[0], run.receivers[1], bytes, t0);
  run.transport.start_flow(run.senders[0], run.receivers[3], bytes, t0);
  run.sim.run_until(t0 + 0.3);

  ASSERT_EQ(run.transport.completed_flows().size(), 2u);
  const double solo = double(bytes) * 8 / goodput(kRate);
  for (const sim::FlowRecord& rec : run.transport.completed_flows()) {
    EXPECT_GE(rec.fct(), 2 * solo * 0.98);
    EXPECT_LE(rec.fct(), 2 * solo * 1.05 + 4 * tc.fluid_quantum_s);
  }
}

TEST(Fluid, ReleasedBandwidthSpeedsUpTheSurvivor) {
  Fixture fx;
  TransportConfig tc;
  tc.hybrid = true;
  tc.hybrid_sample_every = 0;
  HybridRun run(fx, tc);
  run.sim.start();
  run.sim.run_until(3e-3);

  // A short flow shares the sender link, completes, and its bandwidth goes
  // back to the long flow: the long flow's FCT must land strictly between
  // the full-rate ideal and the permanently-halved worst case.
  const uint64_t long_bytes = 10'000'000, short_bytes = 1'000'000;
  const sim::Time t0 = run.sim.now();
  run.transport.start_flow(run.senders[0], run.receivers[1], long_bytes, t0);
  run.transport.start_flow(run.senders[0], run.receivers[3], short_bytes, t0);
  run.sim.run_until(t0 + 0.3);

  ASSERT_EQ(run.transport.completed_flows().size(), 2u);
  double long_fct = 0.0;
  for (const sim::FlowRecord& rec : run.transport.completed_flows()) {
    if (rec.bytes == long_bytes) long_fct = rec.fct();
  }
  const double solo = double(long_bytes) * 8 / goodput(kRate);
  const double halved = 2 * solo;
  EXPECT_GT(long_fct, solo * 1.05);    // it did share for a while
  EXPECT_LT(long_fct, halved * 0.95);  // but not for the whole transfer
}

// ---- hybrid vs packet-level parity ----------------------------------------

std::vector<sim::FlowRecord> run_workload(const Fixture& fx, const TransportConfig& tc,
                                          uint64_t seed,
                                          std::vector<lang::Rank>* best_ranks = nullptr) {
  HybridRun run(fx, tc);
  workload::WorkloadConfig wl;
  wl.load = 0.4;
  wl.sender_capacity_bps = kRate;
  wl.start = 3e-3;
  wl.duration = 20e-3;
  wl.seed = seed;
  wl.size_scale = 0.05;
  const auto flows = workload::generate_poisson(workload::web_search_flow_sizes(), run.senders,
                                                run.receivers, wl);
  workload::submit(run.transport, flows);
  run.sim.start();
  run.sim.run_until(wl.start + wl.duration + 0.25);

  EXPECT_EQ(run.transport.completed_flows().size(), flows.size());
  if (best_ranks != nullptr) {
    // The s()-rank of every (switch, destination) BestT pick. Under a
    // util-blind policy this is a pure path-length rank, so hybrid and
    // packet runs must agree exactly once converged, even where equal-length
    // ties were broken differently.
    for (const ContraSwitch* sw : run.switches) {
      for (NodeId dst = 0; dst < fx.topo.num_nodes(); ++dst) {
        const auto choice = sw->best_choice(dst, run.sim.now());
        if (choice) best_ranks->push_back(choice->rank);
      }
    }
  }
  return run.transport.completed_flows();
}

TEST(Hybrid, ParityWithPacketLevelRun) {
  Fixture fx;
  TransportConfig packet_tc;  // hybrid off
  TransportConfig hybrid_tc;
  hybrid_tc.hybrid = true;
  hybrid_tc.hybrid_sample_every = 4;  // mixed fluid + sampled packet flows

  std::vector<lang::Rank> packet_ranks, hybrid_ranks;
  const auto packet = run_workload(fx, packet_tc, 7, &packet_ranks);
  const auto hybrid = run_workload(fx, hybrid_tc, 7, &hybrid_ranks);
  ASSERT_GT(packet.size(), 100u);
  ASSERT_EQ(packet.size(), hybrid.size());

  // Same converged routing view.
  EXPECT_EQ(packet_ranks, hybrid_ranks);

  // Same FCT regime: fluid flows are idealized (no slow start, no loss), so
  // the hybrid mean may be faster but must stay within the same order.
  double packet_mean = 0, hybrid_mean = 0;
  for (const auto& r : packet) packet_mean += r.fct();
  for (const auto& r : hybrid) hybrid_mean += r.fct();
  packet_mean /= double(packet.size());
  hybrid_mean /= double(hybrid.size());
  EXPECT_LT(hybrid_mean, packet_mean * 1.5);
  EXPECT_GT(hybrid_mean, packet_mean / 20.0);
}

TEST(Hybrid, DeterministicAcrossRuns) {
  Fixture fx;
  TransportConfig tc;
  tc.hybrid = true;
  tc.hybrid_sample_every = 8;

  uint64_t digests[2] = {0, 1};
  size_t completed[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    HybridRun run(fx, tc);
    workload::WorkloadConfig wl;
    wl.load = 0.4;
    wl.sender_capacity_bps = kRate;
    wl.start = 3e-3;
    wl.duration = 15e-3;
    wl.seed = 11;
    wl.size_scale = 0.05;
    workload::submit(run.transport,
                     workload::generate_poisson(workload::web_search_flow_sizes(), run.senders,
                                                run.receivers, wl));
    run.sim.start();
    run.sim.run_until(wl.start + wl.duration + 0.2);
    digests[i] = run.transport.fluid_engine()->completion_digest();
    completed[i] = run.transport.completed_flows().size();
  }
  EXPECT_GT(completed[0], 0u);
  EXPECT_EQ(completed[0], completed[1]);
  EXPECT_EQ(digests[0], digests[1]);
}

// ---- triggered engine under hybrid load ------------------------------------

TEST(Hybrid, UtilBlindPolicyStaysTriggerQuiet) {
  // Regression for the k=16 probe storm: traffic moves the util EWMA, but a
  // minimize(path.len) policy never reads it, so probes must carry util = 0
  // and the triggered engine must not re-advertise on utilization drift.
  Fixture fx;
  SimConfig config;
  config.host_link_bps = kRate;
  sim::ParallelSimulator sim(fx.topo, config);
  std::vector<HostId> senders, receivers;
  for (HostId h : sim::attach_hosts_to_fat_tree_edges(sim, 2)) {
    (h % 2 ? receivers : senders).push_back(h);
  }
  dataplane::ContraSwitchOptions options;
  options.probe_period_s = 256e-6;
  options.triggered_updates = true;
  // No keepalive round inside the run: the version-1 flood converges the
  // fabric and any triggered update afterwards can only come from local
  // change detection — which traffic must not excite under this policy.
  options.keepalive_rounds = 4096;
  const auto switches =
      dataplane::install_contra_network(sim.shard_sim(0), fx.compiled, *fx.evaluator, options);

  TransportConfig tc;
  tc.hybrid = true;
  tc.hybrid_sample_every = 4;
  sim::ParallelTransport transport(sim, tc);
  workload::WorkloadConfig wl;
  wl.load = 0.6;
  wl.sender_capacity_bps = kRate;
  wl.start = 8e-3;  // converge (incl. the version-1 keepalive flood) first
  wl.duration = 20e-3;
  wl.seed = 3;
  wl.size_scale = 0.05;
  workload::submit(transport,
                   workload::generate_poisson(workload::web_search_flow_sizes(), senders,
                                              receivers, wl));
  sim.start();
  sim.run_until(wl.start);
  uint64_t triggered_before = 0;
  for (const ContraSwitch* sw : switches) triggered_before += sw->stats().probes_triggered;
  sim.run_until(wl.start + wl.duration);
  uint64_t triggered_during = 0;
  for (const ContraSwitch* sw : switches) triggered_during += sw->stats().probes_triggered;

  EXPECT_GT(transport.completed_flows().size(), 50u);
  EXPECT_EQ(triggered_during - triggered_before, 0u)
      << "traffic-driven util drift excited triggered updates under a util-blind policy";
}

// ---- worker invariance on the sharded engine -------------------------------

TEST(HybridDeterminism, WorkerInvariantCompletionDigest) {
  Fixture fx;
  uint64_t base_digest = 0;
  size_t base_completed = 0;
  for (const uint32_t workers : {1u, 2u, 4u}) {
    SimConfig config;
    config.host_link_bps = kRate;
    config.shards = 4;
    config.workers = workers;
    sim::ParallelSimulator psim(fx.topo, config);
    std::vector<HostId> senders, receivers;
    for (HostId h : sim::attach_hosts_to_fat_tree_edges(psim, 2)) {
      (h % 2 ? receivers : senders).push_back(h);
    }
    dataplane::ContraSwitchOptions options;
    options.probe_period_s = 256e-6;
    psim.for_each_shard([&](Simulator& shard_sim) {
      dataplane::install_contra_network(shard_sim, fx.compiled, *fx.evaluator, options);
    });
    TransportConfig tc;
    tc.hybrid = true;
    tc.hybrid_sample_every = 8;
    sim::ParallelTransport transport(psim, tc);
    workload::WorkloadConfig wl;
    wl.load = 0.4;
    wl.sender_capacity_bps = kRate;
    wl.start = 3e-3;
    wl.duration = 15e-3;
    wl.seed = 5;
    wl.size_scale = 0.05;
    workload::submit(transport,
                     workload::generate_poisson(workload::web_search_flow_sizes(), senders,
                                                receivers, wl));
    psim.start();
    psim.run_until(wl.start + wl.duration + 0.2);

    ASSERT_NE(transport.fluid_engine(), nullptr);
    const uint64_t digest = transport.fluid_engine()->completion_digest();
    const size_t completed = transport.completed_flows().size();
    if (workers == 1) {
      base_digest = digest;
      base_completed = completed;
      EXPECT_GT(completed, 0u);
    } else {
      EXPECT_EQ(digest, base_digest) << "workers " << workers;
      EXPECT_EQ(completed, base_completed) << "workers " << workers;
    }
  }
}

// ---- pinned answer through the scenario runner -----------------------------

// A streamed hybrid run on fat-tree k=8 under minimize(path.len) with
// triggered updates and 1 flow in 8 kept packet-level, on the runner's
// default engine. The literals are the answer the serial engine computed
// when fluid ticks were events in its own queue; one shard runs them
// between run spans instead and must compute the same thing.
TEST(Hybrid, StreamedScenarioAnswerIsPinned) {
  scenario::Scenario sc;
  sc.topo = topology::fat_tree(8, topology::LinkParams{10e9, 1e-6});
  sc.policy = "minimize(path.len)";
  sc.contra.probe_period_s = 256e-6;
  sc.contra.triggered_updates = true;
  sc.transport.hybrid = true;
  sc.transport.hybrid_sample_every = 8;
  sc.stream = true;
  sc.workload.load = 0.5;
  sc.workload.sender_capacity_bps = 2.5e9;
  sc.workload.start = 20 * 256e-6;
  sc.workload.duration = 20e-3;
  sc.workload.seed = 7;
  sc.workload.size_scale = 0.05;
  sc.drain_s = 20e-3;
  sc.sim.util_tau_s = 2 * 256e-6;
  std::FILE* log = std::tmpfile();
  ASSERT_NE(log, nullptr);
  sc.out.log = log;
  const scenario::Result result = scenario::run(sc);
  std::rewind(log);
  std::string report;
  char buf[4096];
  for (size_t n; (n = std::fread(buf, 1, sizeof buf, log)) > 0;) report.append(buf, n);
  std::fclose(log);

  EXPECT_EQ(result.fct.to_string(),
            "n=1722 (+0 incomplete) mean=0.096ms p50=0.021ms p95=0.449ms p99=1.005ms");
  EXPECT_NE(report.find("fluid   : 1506 flows (1506 completed)"), std::string::npos) << report;
  EXPECT_NE(report.find("digest dc73402b4b539f15\n"), std::string::npos) << report;
}

// ---- FlowStream ------------------------------------------------------------

TEST(FlowStream, DeterministicAndOrdered) {
  const std::vector<HostId> senders{0, 2, 4, 6}, receivers{1, 3, 5, 7};
  workload::WorkloadConfig wl;
  wl.load = 0.5;
  wl.sender_capacity_bps = kRate;
  wl.start = 1e-3;
  wl.duration = 50e-3;
  wl.seed = 42;
  wl.size_scale = 0.05;

  const auto drain = [&] {
    workload::FlowStream stream(workload::web_search_flow_sizes(), senders, receivers, wl);
    std::vector<workload::GeneratedFlow> out;
    workload::GeneratedFlow flow;
    while (stream.next(&flow)) out.push_back(flow);
    EXPECT_EQ(stream.emitted(), out.size());
    return out;
  };
  const auto a = drain();
  const auto b = drain();
  ASSERT_GT(a.size(), 20u);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src, b[i].src);
    EXPECT_EQ(a[i].dst, b[i].dst);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
    EXPECT_DOUBLE_EQ(a[i].start, b[i].start);
  }
  // Arrival order, window bounds, and sane addressing.
  for (size_t i = 1; i < a.size(); ++i) EXPECT_LE(a[i - 1].start, a[i].start);
  for (const auto& f : a) {
    EXPECT_GE(f.start, wl.start);
    EXPECT_LT(f.start, wl.start + wl.duration);
    EXPECT_NE(f.src, f.dst);
    EXPECT_GT(f.bytes, 0u);
  }
}

TEST(FlowStream, MatchesEagerGeneratorVolume) {
  // The lazy stream is documented as arrival-sorted but not byte-identical
  // to generate_poisson's order; the volume statistics must still agree.
  const std::vector<HostId> senders{0, 2, 4, 6}, receivers{1, 3, 5, 7};
  workload::WorkloadConfig wl;
  wl.load = 0.5;
  wl.sender_capacity_bps = kRate;
  wl.start = 1e-3;
  wl.duration = 100e-3;
  wl.seed = 9;
  wl.size_scale = 0.05;
  const auto eager = workload::generate_poisson(workload::web_search_flow_sizes(), senders,
                                                receivers, wl);
  workload::FlowStream stream(workload::web_search_flow_sizes(), senders, receivers, wl);
  uint64_t lazy_count = 0;
  double lazy_bytes = 0;
  workload::GeneratedFlow flow;
  while (stream.next(&flow)) {
    ++lazy_count;
    lazy_bytes += double(flow.bytes);
  }
  double eager_bytes = 0;
  for (const auto& f : eager) eager_bytes += double(f.bytes);
  ASSERT_GT(eager.size(), 50u);
  EXPECT_GT(lazy_count, eager.size() / 2);
  EXPECT_LT(lazy_count, eager.size() * 2);
  EXPECT_GT(lazy_bytes, eager_bytes / 3);
  EXPECT_LT(lazy_bytes, eager_bytes * 3);
}

// ---- GraphML importer ------------------------------------------------------

constexpr const char* kTinyGraphml = R"(<?xml version="1.0" encoding="utf-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key attr.name="label" attr.type="string" for="node" id="d0" />
  <key attr.name="Latitude" attr.type="double" for="node" id="d1" />
  <key attr.name="Longitude" attr.type="double" for="node" id="d2" />
  <key attr.name="LinkSpeedRaw" attr.type="double" for="edge" id="d3" />
  <graph edgedefault="undirected">
    <node id="0">
      <data key="d0">Seattle</data>
      <data key="d1">47.6</data>
      <data key="d2">-122.3</data>
    </node>
    <node id="1">
      <data key="d0">NewYork</data>
      <data key="d1">40.7</data>
      <data key="d2">-74.0</data>
    </node>
    <node id="2">
      <data key="d0">Orbit</data>
    </node>
    <edge source="0" target="1">
      <data key="d3">10000000000</data>
    </edge>
    <edge source="1" target="2" />
    <edge source="0" target="1" />
  </graph>
</graphml>
)";

TEST(Graphml, ParsesNamesCapacitiesAndGeoDelays) {
  const Topology t = topology::parse_graphml(kTinyGraphml, 1e9, 1e-6);
  EXPECT_EQ(t.num_nodes(), 3u);
  // Duplicate edge dropped: 2 cables = 4 directed links.
  EXPECT_EQ(t.num_links(), 4u);
  const NodeId sea = t.find("Seattle");
  const NodeId nyc = t.find("NewYork");
  const NodeId orbit = t.find("Orbit");
  const topology::LinkId coast = t.link_between(sea, nyc);
  // Seattle-NewYork is ~3900 km great-circle: at ~2e8 m/s that is ~19 ms,
  // far above the 1us floor; the capacity comes from LinkSpeedRaw.
  EXPECT_GT(t.link(coast).delay_s, 10e-3);
  EXPECT_LT(t.link(coast).delay_s, 40e-3);
  EXPECT_DOUBLE_EQ(t.link(coast).capacity_bps, 10e9);
  // No coordinates on one endpoint: fall back to the default delay/capacity.
  const topology::LinkId up = t.link_between(nyc, orbit);
  EXPECT_DOUBLE_EQ(t.link(up).delay_s, 1e-6);
  EXPECT_DOUBLE_EQ(t.link(up).capacity_bps, 1e9);
}

TEST(Graphml, AutoSniffsFormat) {
  const Topology g = topology::parse_topology_auto(kTinyGraphml);
  EXPECT_EQ(g.num_nodes(), 3u);
  const Topology e = topology::parse_topology_auto("link a b 10 5\nlink b c 10 5\n");
  EXPECT_EQ(e.num_nodes(), 3u);
}

// ---- trigger-wave width accounting (telemetry pipeline) --------------------

TEST(ConvergenceWaves, TriggerWidthCountsDistinctSwitches) {
  obs::ConvergenceTracker tracker;
  obs::TraceRecord wave;
  wave.t = 1.0;
  wave.ev = obs::Ev::kChurnWave;
  wave.aux = 0;
  tracker.observe(wave);
  for (const uint32_t sw : {3u, 5u, 3u, 9u}) {
    obs::TraceRecord r;
    r.t = 1.001;
    r.ev = obs::Ev::kProbeTrigger;
    r.sw = sw;
    r.dst = 1;
    tracker.observe(r);
  }
  const auto report = tracker.report();
  ASSERT_EQ(report.waves.size(), 1u);
  EXPECT_EQ(report.waves[0].trigger_width, 3u);   // distinct switches
  EXPECT_EQ(report.waves[0].trigger_records, 4u); // raw records
  ASSERT_EQ(report.by_class.size(), 1u);
  EXPECT_EQ(report.by_class[0].max_trigger_width, 3u);
}

}  // namespace
}  // namespace contra
