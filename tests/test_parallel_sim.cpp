// Parallel engine tests: partitioner invariants, epoch barrier protocol,
// and the golden-replay determinism gate for the sharded simulator.
//
// The determinism contract under test (DESIGN.md §8):
//   * --workers N is bit-identical for every N (threads pick *who* runs a
//     shard, never *what* runs);
//   * one shard degenerates to exactly the serial Simulator;
//   * replays (including traced replays and split run_until windows) are
//     byte-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "compiler/compiler.h"
#include "dataplane/contra_switch.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "sim/host.h"
#include "sim/parallel_simulator.h"
#include "sim/transport.h"
#include "topology/abilene.h"
#include "topology/generators.h"
#include "topology/partitioner.h"
#include "workload/generator.h"

namespace contra::sim {
namespace {

// ---- partitioner -----------------------------------------------------------

TEST(Partitioner, SingleShardHasNoCut) {
  const topology::Topology topo = topology::fat_tree(4, topology::LinkParams{10e9, 1e-6});
  const topology::Partition p = topology::partition_topology(topo, 1);
  EXPECT_EQ(p.num_shards, 1u);
  EXPECT_EQ(p.num_cut_links, 0u);
  EXPECT_TRUE(std::isinf(p.min_cut_delay_s));
  for (topology::NodeId n = 0; n < topo.num_nodes(); ++n) EXPECT_EQ(p.shard(n), 0u);
}

TEST(Partitioner, FatTreeBalancedAndDeterministic) {
  const topology::Topology topo = topology::fat_tree(4, topology::LinkParams{10e9, 1e-6});
  const topology::Partition p = topology::partition_topology(topo, 4);
  ASSERT_EQ(p.num_shards, 4u);

  std::vector<uint32_t> sizes(4, 0);
  for (topology::NodeId n = 0; n < topo.num_nodes(); ++n) {
    ASSERT_LT(p.shard(n), 4u);
    ++sizes[p.shard(n)];
  }
  // 20 switches over 4 shards: target 5, refinement may drift by one.
  for (uint32_t s : sizes) {
    EXPECT_GE(s, 4u);
    EXPECT_LE(s, 6u);
  }
  // A fat-tree cannot be split without cutting cables, and every link has
  // the same 1us delay, so that is the lookahead.
  EXPECT_GT(p.num_cut_links, 0u);
  EXPECT_DOUBLE_EQ(p.min_cut_delay_s, 1e-6);

  const topology::Partition replay = topology::partition_topology(topo, 4);
  EXPECT_EQ(p.shard_of, replay.shard_of);
  EXPECT_EQ(p.num_cut_links, replay.num_cut_links);
}

TEST(Partitioner, ClampsToNodeCount) {
  const topology::Topology topo = topology::line(3);
  const topology::Partition p = topology::partition_topology(topo, 8);
  EXPECT_LE(p.num_shards, 3u);
  EXPECT_GE(p.num_shards, 1u);
  std::vector<uint32_t> sizes(p.num_shards, 0);
  for (topology::NodeId n = 0; n < topo.num_nodes(); ++n) ++sizes[p.shard(n)];
  for (uint32_t s : sizes) EXPECT_GE(s, 1u);
}

TEST(Partitioner, RecomputeCutCountsDirectedLinks) {
  const topology::Topology topo = topology::line(2);
  topology::Partition p;
  p.num_shards = 2;
  p.shard_of = {0, 1};
  topology::recompute_cut(topo, p);
  // One cable = two directed links, both crossing.
  EXPECT_EQ(p.num_cut_links, 2u);
  EXPECT_DOUBLE_EQ(p.min_cut_delay_s, topo.link(0).delay_s);
}

TEST(Partitioner, DefaultShardCountScalesWithNodes) {
  EXPECT_EQ(topology::default_num_shards(topology::line(2)), 1u);
  const topology::Topology ft4 = topology::fat_tree(4, topology::LinkParams{10e9, 1e-6});
  EXPECT_EQ(topology::default_num_shards(ft4), 4u);  // 20 switches
  const topology::Topology ft8 = topology::fat_tree(8, topology::LinkParams{10e9, 1e-6});
  EXPECT_EQ(topology::default_num_shards(ft8), 8u);  // 80 switches, capped at 8
}

TEST(Partitioner, DefaultShardCountRespectsHardwareBudget) {
  const topology::Topology ft8 = topology::fat_tree(8, topology::LinkParams{10e9, 1e-6});
  // Unknown hardware (0): behave like the reproducible one-argument form.
  EXPECT_EQ(topology::default_num_shards(ft8, 0), topology::default_num_shards(ft8));
  // Fewer cores than the topology-sized count: shards follow the cores.
  EXPECT_EQ(topology::default_num_shards(ft8, 4), 4u);
  EXPECT_EQ(topology::default_num_shards(ft8, 1), 1u);
  // More cores than the topology can use: the topology cap wins (80 switches
  // -> 16 shards of ~5).
  EXPECT_EQ(topology::default_num_shards(ft8, 64), 16u);
  EXPECT_EQ(topology::default_num_shards(topology::line(2), 64), 1u);
}

// ---- per-channel safe-horizon matrix ---------------------------------------

/// Two 2-node clusters joined by one cable with asymmetric per-direction
/// delays: a0-a1, b0-b1 internal, a1->b0 slow one way and slower the other.
topology::Topology asymmetric_dumbbell() {
  topology::Topology topo;
  const auto a0 = topo.add_node("a0"), a1 = topo.add_node("a1");
  const auto b0 = topo.add_node("b0"), b1 = topo.add_node("b1");
  topo.add_link(a0, a1, 10e9, 1e-6);
  topo.add_link(b0, b1, 10e9, 1e-6);
  topo.add_link(a1, b0, 10e9, 5e-6, 9e-6);  // a->b 5us, b->a 9us
  return topo;
}

TEST(Partitioner, HorizonMatrixCapturesAsymmetricCutDelays) {
  const topology::Topology topo = asymmetric_dumbbell();
  const topology::Partition p = topology::partition_topology(topo, 2);
  ASSERT_EQ(p.num_shards, 2u);
  const uint32_t sa = p.shard(topo.find("a1"));
  const uint32_t sb = p.shard(topo.find("b0"));
  ASSERT_NE(sa, sb);
  ASSERT_EQ(p.shard(topo.find("a0")), sa);
  ASSERT_EQ(p.shard(topo.find("b1")), sb);

  // The channel horizons are per-direction; the legacy global width is the
  // min over both — a 1.8x lookahead giveaway on the b->a channel.
  EXPECT_DOUBLE_EQ(p.horizon_of(sa, sb), 5e-6);
  EXPECT_DOUBLE_EQ(p.horizon_of(sb, sa), 9e-6);
  EXPECT_DOUBLE_EQ(p.min_cut_delay_s, 5e-6);
  EXPECT_DOUBLE_EQ(p.min_inbound_delay_s(sb), 5e-6);
  EXPECT_DOUBLE_EQ(p.min_inbound_delay_s(sa), 9e-6);
  // Diagonal entries are +infinity: a shard has no cut channel to itself.
  EXPECT_TRUE(std::isinf(p.horizon_of(sa, sa)));
  EXPECT_TRUE(std::isinf(p.horizon_of(sb, sb)));
}

TEST(Partitioner, HorizonMatrixMatchesBruteForceOnFatTree) {
  // Safety bound: for every channel, the matrix entry must equal the true
  // minimum delay over the cut links of that channel (never wider), and the
  // per-dst inbound minimum must never be below the global min cut delay.
  const topology::Topology topo = topology::fat_tree(4, topology::LinkParams{10e9, 1e-6});
  const topology::Partition p = topology::partition_topology(topo, 4);
  ASSERT_EQ(p.num_shards, 4u);

  std::vector<double> truth(size_t{p.num_shards} * p.num_shards,
                            std::numeric_limits<double>::infinity());
  for (const topology::DirectedLink& l : topo.links()) {
    if (!p.crosses(l)) continue;
    double& h = truth[size_t{p.shard(l.from)} * p.num_shards + p.shard(l.to)];
    h = std::min(h, l.delay_s);
  }
  for (uint32_t src = 0; src < p.num_shards; ++src) {
    for (uint32_t dst = 0; dst < p.num_shards; ++dst) {
      const double expect = src == dst ? std::numeric_limits<double>::infinity()
                                       : truth[size_t{src} * p.num_shards + dst];
      EXPECT_EQ(p.horizon_of(src, dst), expect) << src << "->" << dst;
    }
  }
  for (uint32_t dst = 0; dst < p.num_shards; ++dst) {
    EXPECT_GE(p.min_inbound_delay_s(dst), p.min_cut_delay_s);
  }
}

TEST(Partitioner, ZeroDelayCutLinkForcesFusion) {
  // A zero-delay cable in the cut admits no conservative window at all; the
  // two shards it joins must fuse at partition time.
  topology::Topology topo;
  const auto n0 = topo.add_node("n0"), n1 = topo.add_node("n1");
  const auto n2 = topo.add_node("n2"), n3 = topo.add_node("n3");
  topo.add_link(n0, n1, 10e9, 1e-6);
  topo.add_link(n1, n2, 10e9, 0.0);  // the only balanced 2-way cut
  topo.add_link(n2, n3, 10e9, 1e-6);
  const topology::Partition p = topology::partition_topology(topo, 2);
  EXPECT_EQ(p.num_shards, 1u);
  EXPECT_GE(p.fused_shards, 1u);
  EXPECT_EQ(p.num_cut_links, 0u);
  for (topology::NodeId n = 0; n < topo.num_nodes(); ++n) EXPECT_EQ(p.shard(n), 0u);
}

TEST(Partitioner, UnderloadedShardFusesIntoNeighbor) {
  // A 15-node clique (degree 14, heavy probe fan-out) next to a 15-node
  // path (degree <= 2): the natural 2-way split gives the path shard about
  // a sixth of the estimated event load — below the fusion threshold, so it
  // folds into the clique shard rather than paying a barrier per phase.
  topology::Topology topo;
  std::vector<topology::NodeId> clique, path;
  for (int i = 0; i < 15; ++i) {
    clique.push_back(topo.add_node(std::string("c").append(std::to_string(i))));
  }
  for (int i = 0; i < 15; ++i) {
    path.push_back(topo.add_node(std::string("p").append(std::to_string(i))));
  }
  for (size_t i = 0; i < clique.size(); ++i) {
    for (size_t j = i + 1; j < clique.size(); ++j) topo.add_link(clique[i], clique[j], 10e9, 1e-6);
  }
  for (size_t i = 0; i + 1 < path.size(); ++i) topo.add_link(path[i], path[i + 1], 10e9, 1e-6);
  topo.add_link(clique[14], path[0], 10e9, 10e-6);

  const topology::Partition p = topology::partition_topology(topo, 2);
  EXPECT_EQ(p.num_shards, 1u);
  EXPECT_GE(p.fused_shards, 1u);

  // Balanced loads do not fuse: the estimate itself is exposed for tests.
  const topology::Topology ft = topology::fat_tree(4, topology::LinkParams{10e9, 1e-6});
  const topology::Partition pf = topology::partition_topology(ft, 4);
  ASSERT_EQ(pf.num_shards, 4u);
  EXPECT_EQ(pf.fused_shards, 0u);
  const std::vector<uint64_t> loads = topology::estimate_shard_loads(ft, pf);
  ASSERT_EQ(loads.size(), 4u);
  for (uint64_t l : loads) EXPECT_GT(l, 0u);
}

// ---- epoch primitives ------------------------------------------------------

TEST(EventQueue, RunBeforeStopsStrictlyBeforeBoundary) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.run_before(2.0);
  // Events at exactly the boundary belong to the *next* epoch.
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  q.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ParallelEngine, IdleShardsNeedNoBarriers) {
  // No devices, no hosts, no events: the lookahead scheduler proves the
  // whole window quiescent and completes without a single barrier. (A
  // global grid would tick ~10 empty epochs here.) Local clocks still
  // advance to the end, matching serial run_until semantics.
  const topology::Topology topo = topology::fat_tree(4, topology::LinkParams{10e9, 1e-6});
  SimConfig config;
  config.shards = 4;
  ParallelSimulator psim(topo, config);
  EXPECT_EQ(psim.num_shards(), 4u);
  EXPECT_DOUBLE_EQ(psim.epoch_width_s(), 1e-6);
  psim.run_until(10.5e-6);
  EXPECT_DOUBLE_EQ(psim.now(), 10.5e-6);
  EXPECT_EQ(psim.epochs_completed(), 0u);
  for (uint32_t s = 0; s < psim.num_shards(); ++s) {
    EXPECT_DOUBLE_EQ(psim.shard_sim(s).now(), 10.5e-6) << "shard " << s;
  }
}

// Three clusters chained by cut cables of very different delay (used by the
// epoch-width regression test further down, after the digest helpers): a
// narrow 3.1us channel A-B and a wide 97us channel B-C. A global-min grid
// would barrier *every* shard every 3.1us; the per-channel scheduler lets C
// run in ~97us strides and skips provably idle shards entirely.
topology::Topology heterogeneous_chain() {
  topology::Topology topo;
  std::vector<topology::NodeId> nodes;
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 4; ++i) {
      nodes.push_back(topo.add_node(std::string(1, char('a' + c)) + std::to_string(i)));
    }
  }
  // Irregular intra-cluster delays so cross-shard arrivals never tie with
  // local periodic timers (equal-time ties are the one place two epoch
  // schedules may legitimately diverge).
  const double intra[3] = {1.3e-6, 1.7e-6, 2.3e-6};
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 3; ++i) {
      topo.add_link(nodes[c * 4 + i], nodes[c * 4 + i + 1], 10e9, intra[c]);
    }
    topo.add_link(nodes[c * 4], nodes[c * 4 + 2], 10e9, intra[c] * 1.5);
  }
  topo.add_link(nodes[3], nodes[4], 10e9, 3.1e-6);   // A-B: narrow channel
  topo.add_link(nodes[7], nodes[8], 10e9, 97e-6);    // B-C: wide channel
  return topo;
}


TEST(ParallelEngine, ZeroDelayCutCollapsesToOneShard) {
  // All-zero-delay links make the conservative lookahead zero; the
  // partitioner's fusion pass must hand the engine a single shard instead of
  // letting it spin on zero-width epochs.
  const topology::Topology topo = topology::fat_tree(4, topology::LinkParams{10e9, 0.0});
  SimConfig config;
  config.shards = 4;
  ParallelSimulator psim(topo, config);
  EXPECT_EQ(psim.num_shards(), 1u);
}

TEST(ParallelEngine, FailureAppliesOnEveryShardReplica) {
  const topology::Topology topo = topology::fat_tree(4, topology::LinkParams{10e9, 1e-6});
  SimConfig config;
  config.shards = 4;
  ParallelSimulator psim(topo, config);
  const topology::LinkId l = 0;
  psim.fail_cable(l);
  for (uint32_t s = 0; s < psim.num_shards(); ++s) {
    EXPECT_TRUE(psim.shard_sim(s).link(l).down()) << "shard " << s;
    EXPECT_TRUE(psim.shard_sim(s).link(topo.link(l).reverse).down()) << "shard " << s;
  }
  psim.restore_cable(l);
  for (uint32_t s = 0; s < psim.num_shards(); ++s) {
    EXPECT_FALSE(psim.shard_sim(s).link(l).down()) << "shard " << s;
  }

  psim.schedule_cable_event(5e-6, l, true);
  psim.run_until(10e-6);
  for (uint32_t s = 0; s < psim.num_shards(); ++s) {
    EXPECT_TRUE(psim.shard_sim(s).link(l).down()) << "shard " << s;
  }
}

// ---- golden scenario harness ----------------------------------------------
//
// Mirrors test_sim_core.cpp's run_golden_scenario, with one difference: the
// flow list is canonicalized by (end, flow id) before hashing, so the digest
// is comparable between the serial engine (completion-order records) and the
// parallel engine (shard-merged records).

uint64_t fnv_mix(uint64_t h, uint64_t v) {
  h ^= v;
  return h * 1099511628211ull;
}

uint64_t canonical_digest(uint64_t events, std::vector<FlowRecord> flows,
                          const std::vector<LinkStats>& per_link) {
  std::sort(flows.begin(), flows.end(), [](const FlowRecord& a, const FlowRecord& b) {
    return std::tie(a.end, a.flow_id) < std::tie(b.end, b.flow_id);
  });
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  h = fnv_mix(h, events);
  for (const FlowRecord& f : flows) {
    h = fnv_mix(h, f.flow_id);
    h = fnv_mix(h, std::bit_cast<uint64_t>(f.start));
    h = fnv_mix(h, std::bit_cast<uint64_t>(f.end));
  }
  for (const LinkStats& s : per_link) {
    h = fnv_mix(h, s.tx_packets);
    h = fnv_mix(h, s.tx_bytes);
    h = fnv_mix(h, s.tx_probe_bytes);
    h = fnv_mix(h, s.drops);
    h = fnv_mix(h, s.data_drops);
  }
  return h;
}

struct ScenarioResult {
  uint64_t digest = 0;
  uint64_t events = 0;
  size_t completed_flows = 0;
  uint32_t num_shards = 1;
  uint32_t cut_links = 0;
  uint64_t lane_misses = 0;  ///< typed events that fell back to the heap, all shards
  std::string trace;   ///< merged JSONL, when requested
  std::string tables;  ///< concatenated FwdT/BestT renders, when requested
};

constexpr double kScenarioEnd = 2e-3 + 4e-3 + 0.05;

workload::WorkloadConfig golden_workload(bool abilene, uint64_t seed) {
  workload::WorkloadConfig wl;
  wl.load = 0.4;
  wl.sender_capacity_bps = 2e9;
  wl.start = 2e-3;
  wl.duration = 4e-3;
  wl.seed = seed;
  wl.size_scale = 0.05;
  (void)abilene;
  return wl;
}

SimConfig golden_sim_config(bool abilene) {
  SimConfig config;
  config.host_link_bps = abilene ? 2e9 : 10e9;
  config.util_tau_s = 512e-6;
  return config;
}

std::string render_all_tables(const topology::Topology& topo,
                              const std::function<Simulator&(topology::NodeId)>& sim_of,
                              Time now) {
  std::string out;
  for (topology::NodeId n = 0; n < topo.num_nodes(); ++n) {
    auto& sw = dynamic_cast<dataplane::ContraSwitch&>(sim_of(n).device_at(n));
    out += sw.render_tables(now);
    out += '\n';
  }
  return out;
}

ScenarioResult run_serial_scenario(const topology::Topology& topo,
                                   const compiler::CompileResult& compiled,
                                   const pg::PolicyEvaluator& evaluator, bool abilene,
                                   uint64_t seed, bool want_tables = false) {
  Simulator sim(topo, golden_sim_config(abilene));
  std::vector<HostId> senders, receivers;
  if (abilene) {
    senders = attach_hosts(sim, {topo.find("Seattle"), topo.find("Sunnyvale")});
    receivers = attach_hosts(sim, {topo.find("NewYork"), topo.find("Atlanta")});
  } else {
    for (HostId h : attach_hosts_to_fat_tree_edges(sim, 2)) {
      (h % 2 ? receivers : senders).push_back(h);
    }
  }
  dataplane::ContraSwitchOptions options;
  options.probe_period_s = 256e-6;
  dataplane::install_contra_network(sim, compiled, evaluator, options);
  TransportManager transport(sim);
  const workload::WorkloadConfig wl = golden_workload(abilene, seed);
  workload::submit(transport, workload::generate_poisson(workload::web_search_flow_sizes(),
                                                         senders, receivers, wl));
  sim.start();
  sim.run_until(kScenarioEnd);

  ScenarioResult out;
  out.events = sim.events().events_processed();
  out.completed_flows = transport.completed_flows().size();
  std::vector<LinkStats> per_link;
  for (topology::LinkId id = 0; id < topo.num_links(); ++id) {
    per_link.push_back(sim.link(id).stats());
  }
  out.digest = canonical_digest(out.events, transport.completed_flows(), per_link);
  if (want_tables) {
    out.tables = render_all_tables(
        topo, [&](topology::NodeId) -> Simulator& { return sim; }, kScenarioEnd);
  }
  return out;
}

ScenarioResult run_parallel_scenario(const topology::Topology& topo,
                                     const compiler::CompileResult& compiled,
                                     const pg::PolicyEvaluator& evaluator, bool abilene,
                                     uint64_t seed, uint32_t shards, uint32_t workers,
                                     bool want_trace = false, bool want_tables = false,
                                     bool split_run = false) {
  SimConfig config = golden_sim_config(abilene);
  config.shards = shards;
  config.workers = workers;
  obs::MemoryTraceSink sink;
  ParallelSimulator psim(topo, config);
  if (want_trace) psim.enable_tracing(&sink);

  std::vector<HostId> senders, receivers;
  if (abilene) {
    senders = attach_hosts(psim, {topo.find("Seattle"), topo.find("Sunnyvale")});
    receivers = attach_hosts(psim, {topo.find("NewYork"), topo.find("Atlanta")});
  } else {
    for (HostId h : attach_hosts_to_fat_tree_edges(psim, 2)) {
      (h % 2 ? receivers : senders).push_back(h);
    }
  }
  dataplane::ContraSwitchOptions options;
  options.probe_period_s = 256e-6;
  psim.for_each_shard([&](Simulator& shard_sim) {
    dataplane::install_contra_network(shard_sim, compiled, evaluator, options);
  });
  ParallelTransport transport(psim);
  const workload::WorkloadConfig wl = golden_workload(abilene, seed);
  workload::submit(transport, workload::generate_poisson(workload::web_search_flow_sizes(),
                                                         senders, receivers, wl));
  psim.start();
  if (split_run) {
    // Off-grid intermediate window: cross-shard hops produced in the final
    // partial epoch must survive in mailboxes across run_until calls.
    psim.run_until(3.0005e-3);
    psim.run_until(kScenarioEnd);
  } else {
    psim.run_until(kScenarioEnd);
  }

  ScenarioResult out;
  out.events = psim.events_processed();
  out.completed_flows = transport.completed_flows().size();
  out.num_shards = psim.num_shards();
  out.cut_links = psim.partition().num_cut_links;
  for (uint32_t s = 0; s < psim.num_shards(); ++s) {
    out.lane_misses += psim.shard_sim(s).events().lane_misses();
  }
  std::vector<LinkStats> per_link(topo.num_links());
  for (topology::LinkId id = 0; id < topo.num_links(); ++id) {
    for (uint32_t s = 0; s < psim.num_shards(); ++s) {
      const LinkStats& ls = psim.shard_sim(s).link(id).stats();
      per_link[id].tx_packets += ls.tx_packets;
      per_link[id].tx_bytes += ls.tx_bytes;
      per_link[id].tx_probe_bytes += ls.tx_probe_bytes;
      per_link[id].drops += ls.drops;
      per_link[id].data_drops += ls.data_drops;
    }
  }
  out.digest = canonical_digest(out.events, transport.completed_flows(), per_link);
  if (want_trace) {
    psim.flush_trace();
    char line[obs::kMaxLineBytes];
    for (const obs::TraceRecord& rec : sink.records()) {
      out.trace.append(line, obs::format_jsonl(rec, line));
      out.trace += '\n';
    }
  }
  if (want_tables) {
    out.tables = render_all_tables(
        topo,
        [&](topology::NodeId n) -> Simulator& { return psim.shard_sim(psim.shard_of_node(n)); },
        kScenarioEnd);
  }
  return out;
}

struct GoldenFixtures {
  topology::Topology fat_tree = topology::fat_tree(4, topology::LinkParams{10e9, 1e-6});
  topology::Topology abilene = topology::abilene(2e9, 0.02);
  compiler::CompileResult fat_compiled =
      compiler::compile("minimize((path.len, path.util))", fat_tree);
  compiler::CompileResult abi_compiled = compiler::compile("minimize(path.util)", abilene);
  pg::PolicyEvaluator fat_eval{fat_compiled.graph, fat_compiled.decomposition};
  pg::PolicyEvaluator abi_eval{abi_compiled.graph, abi_compiled.decomposition};
};

// ---- determinism gate ------------------------------------------------------
// Suite name contains "Determinism" so the asan-determinism ctest preset
// picks these up alongside the serial golden-replay tests.

TEST(ParallelDeterminism, SingleShardMatchesSerialEngine) {
  GoldenFixtures fx;
  for (const bool abilene : {false, true}) {
    const topology::Topology& topo = abilene ? fx.abilene : fx.fat_tree;
    const compiler::CompileResult& compiled = abilene ? fx.abi_compiled : fx.fat_compiled;
    const pg::PolicyEvaluator& evaluator = abilene ? fx.abi_eval : fx.fat_eval;
    const ScenarioResult serial =
        run_serial_scenario(topo, compiled, evaluator, abilene, 1, /*want_tables=*/true);
    const ScenarioResult parallel =
        run_parallel_scenario(topo, compiled, evaluator, abilene, 1, /*shards=*/1,
                              /*workers=*/1, false, /*want_tables=*/true);
    EXPECT_EQ(parallel.num_shards, 1u);
    EXPECT_EQ(serial.events, parallel.events) << (abilene ? "abilene" : "fat-tree");
    EXPECT_EQ(serial.digest, parallel.digest) << (abilene ? "abilene" : "fat-tree");
    EXPECT_EQ(serial.tables, parallel.tables) << (abilene ? "abilene" : "fat-tree");
    EXPECT_GT(serial.completed_flows, 0u);
  }
}

TEST(ParallelDeterminism, WorkersInvariantFatTree) {
  GoldenFixtures fx;
  for (const uint64_t seed : {1, 2, 3}) {
    const ScenarioResult base = run_parallel_scenario(fx.fat_tree, fx.fat_compiled, fx.fat_eval,
                                                      false, seed, /*shards=*/4, /*workers=*/1);
    EXPECT_EQ(base.num_shards, 4u);
    EXPECT_GT(base.cut_links, 0u);
    EXPECT_GT(base.completed_flows, 0u);
    // Mailbox deliveries arrive out of their lane's order; they open a
    // second lane of the same delay instead of falling back to the heap.
    EXPECT_EQ(base.lane_misses, 0u) << "seed " << seed;
    for (const uint32_t workers : {2u, 4u, 8u}) {
      const ScenarioResult run = run_parallel_scenario(fx.fat_tree, fx.fat_compiled, fx.fat_eval,
                                                       false, seed, 4, workers);
      EXPECT_EQ(base.digest, run.digest) << "seed " << seed << " workers " << workers;
      EXPECT_EQ(base.events, run.events) << "seed " << seed << " workers " << workers;
    }
  }
  // Shard tables (FwdT/BestT) must also be worker-invariant, not just the
  // traffic digest.
  const ScenarioResult t1 = run_parallel_scenario(fx.fat_tree, fx.fat_compiled, fx.fat_eval,
                                                  false, 1, 4, 1, false, /*want_tables=*/true);
  const ScenarioResult t4 = run_parallel_scenario(fx.fat_tree, fx.fat_compiled, fx.fat_eval,
                                                  false, 1, 4, 4, false, /*want_tables=*/true);
  EXPECT_EQ(t1.tables, t4.tables);
}

TEST(ParallelDeterminism, WorkersInvariantAbilene) {
  GoldenFixtures fx;
  for (const uint64_t seed : {1, 2, 3}) {
    const ScenarioResult base = run_parallel_scenario(fx.abilene, fx.abi_compiled, fx.abi_eval,
                                                      true, seed, /*shards=*/3, /*workers=*/1);
    EXPECT_GT(base.completed_flows, 0u);
    for (const uint32_t workers : {2u, 4u, 8u}) {
      const ScenarioResult run = run_parallel_scenario(fx.abilene, fx.abi_compiled, fx.abi_eval,
                                                       true, seed, 3, workers);
      EXPECT_EQ(base.digest, run.digest) << "seed " << seed << " workers " << workers;
      EXPECT_EQ(base.events, run.events) << "seed " << seed << " workers " << workers;
    }
  }
}

TEST(ParallelDeterminism, TracedReplayIsByteIdentical) {
  GoldenFixtures fx;
  const ScenarioResult first = run_parallel_scenario(fx.fat_tree, fx.fat_compiled, fx.fat_eval,
                                                     false, 2, 4, 4, /*want_trace=*/true);
  const ScenarioResult replay = run_parallel_scenario(fx.fat_tree, fx.fat_compiled, fx.fat_eval,
                                                      false, 2, 4, 4, /*want_trace=*/true);
  EXPECT_EQ(first.digest, replay.digest);
  EXPECT_EQ(first.trace, replay.trace);
  EXPECT_FALSE(first.trace.empty());
  // Cross-shard traffic actually flowed: epochs ticked and barriers drained
  // mailboxes (kBarrier is only emitted for non-empty drains).
  EXPECT_NE(first.trace.find("\"ev\":\"epoch\""), std::string::npos);
  EXPECT_NE(first.trace.find("\"ev\":\"barrier\""), std::string::npos);
}

TEST(ParallelDeterminism, SplitRunWindowsMatchSingleRun) {
  GoldenFixtures fx;
  const ScenarioResult whole = run_parallel_scenario(fx.fat_tree, fx.fat_compiled, fx.fat_eval,
                                                     false, 3, 4, 2);
  const ScenarioResult split =
      run_parallel_scenario(fx.fat_tree, fx.fat_compiled, fx.fat_eval, false, 3, 4, 2, false,
                            false, /*split_run=*/true);
  EXPECT_EQ(whole.digest, split.digest);
  EXPECT_EQ(whole.events, split.events);
}

// ---- epoch-width regression (per-channel lookahead vs a global grid) -------

TEST(ParallelEngine, PerChannelLookaheadBeatsAnalyticGrid) {
  const topology::Topology topo = heterogeneous_chain();
  const compiler::CompileResult compiled = compiler::compile("minimize(path.len)", topo);
  const pg::PolicyEvaluator evaluator(compiled.graph, compiled.decomposition);
  constexpr Time kEnd = 5e-3;

  SimConfig config;
  config.shards = 3;
  config.workers = 2;
  ParallelSimulator psim(topo, config);
  ASSERT_EQ(psim.num_shards(), 3u);
  dataplane::ContraSwitchOptions options;
  options.probe_period_s = 256e-6;
  psim.for_each_shard([&](Simulator& shard_sim) {
    dataplane::install_contra_network(shard_sim, compiled, evaluator, options);
  });
  psim.start();
  psim.run_until(kEnd);

  std::vector<LinkStats> per_link(topo.num_links());
  for (topology::LinkId id = 0; id < topo.num_links(); ++id) {
    for (uint32_t s = 0; s < psim.num_shards(); ++s) {
      const LinkStats& ls = psim.shard_sim(s).link(id).stats();
      per_link[id].tx_packets += ls.tx_packets;
      per_link[id].tx_bytes += ls.tx_bytes;
      per_link[id].tx_probe_bytes += ls.tx_probe_bytes;
      per_link[id].drops += ls.drops;
      per_link[id].data_drops += ls.data_drops;
    }
  }
  uint64_t idle_skips = 0;
  for (uint32_t s = 0; s < psim.num_shards(); ++s) {
    obs::Telemetry& tel = psim.shard_sim(s).telemetry();
    idle_skips += tel.metrics().value(tel.core().par_idle_skips);
  }

  // The digest this scheduler and the global-min grid it replaced both
  // produced: the schedule is a performance knob, not a semantics knob.
  EXPECT_EQ(canonical_digest(psim.events_processed(), {}, per_link), 0x6b73a14b9b73b3d3ull);

  // A global grid barriers at every multiple of epoch_width_s (3.1us): about
  // 1600 boundaries in 5ms. The lookahead scheduler only synchronizes where
  // cross-shard work actually exists, and skips provably idle shards.
  const auto grid_phases = static_cast<uint64_t>(std::floor(kEnd / psim.epoch_width_s())) + 1;
  EXPECT_GE(grid_phases, 5 * psim.epochs_completed())
      << "grid " << grid_phases << " vs channel " << psim.epochs_completed();
  EXPECT_GT(idle_skips, 0u);
}

// ---- one shard is the serial engine ----------------------------------------

TEST(ParallelEngine, OneShardStreamsTraceWithoutSchedulerRecords) {
  const topology::Topology topo = topology::fat_tree(4, topology::LinkParams{10e9, 1e-6});
  const compiler::CompileResult compiled = compiler::compile("minimize(path.len)", topo);
  const pg::PolicyEvaluator evaluator(compiled.graph, compiled.decomposition);
  obs::MemoryTraceSink sink;
  ParallelSimulator psim(topo, SimConfig{});  // no shards, no workers: one shard
  ASSERT_EQ(psim.num_shards(), 1u);
  psim.enable_tracing(&sink);
  dataplane::ContraSwitchOptions options;
  options.probe_period_s = 256e-6;
  dataplane::install_contra_network(psim.shard_sim(0), compiled, evaluator, options);
  psim.start();
  psim.run_until(1e-3);

  // Records reached the sink while run_until ran; nothing was buffered.
  const size_t streamed = sink.records().size();
  EXPECT_GT(streamed, 0u);
  EXPECT_TRUE(psim.shard(0).trace.records().empty());
  psim.run_until(2e-3);
  EXPECT_GT(sink.records().size(), streamed);
  const size_t before_flush = sink.records().size();
  psim.flush_trace();
  EXPECT_EQ(sink.records().size(), before_flush);

  for (const obs::TraceRecord& r : sink.records()) {
    EXPECT_NE(r.ev, obs::Ev::kEpoch);
    EXPECT_NE(r.ev, obs::Ev::kBarrier);
  }
  obs::Telemetry& tel = psim.shard_sim(0).telemetry();
  EXPECT_EQ(tel.metrics().value(tel.core().par_epochs), 0u);
  EXPECT_EQ(psim.epochs_completed(), 0u);
}

// With more than one shard, records stream to the sink as the shards commit
// past them, instead of waiting in the shard buffers for flush_trace().
TEST(ParallelEngine, MultiShardStreamsTraceDuringRun) {
  const topology::Topology topo = topology::fat_tree(4, topology::LinkParams{10e9, 1e-6});
  const compiler::CompileResult compiled = compiler::compile("minimize(path.len)", topo);
  const pg::PolicyEvaluator evaluator(compiled.graph, compiled.decomposition);
  obs::MemoryTraceSink sink;
  SimConfig config;
  config.shards = 2;
  config.workers = 2;
  ParallelSimulator psim(topo, config);
  ASSERT_EQ(psim.num_shards(), 2u);
  psim.enable_tracing(&sink);
  dataplane::ContraSwitchOptions options;
  options.probe_period_s = 256e-6;
  psim.for_each_shard([&](Simulator& shard_sim) {
    dataplane::install_contra_network(shard_sim, compiled, evaluator, options);
  });
  psim.start();
  const auto buffered = [&] {
    size_t n = 0;
    for (uint32_t s = 0; s < psim.num_shards(); ++s) n += psim.shard(s).trace.records().size();
    return n;
  };
  const auto count_before = [](const std::vector<obs::TraceRecord>& records, double t) {
    return std::count_if(records.begin(), records.end(),
                         [t](const obs::TraceRecord& r) { return r.t < t; });
  };

  // Every record before the window's end reached the sink during run_until;
  // only records at the end itself may still be buffered.
  psim.run_until(1e-3);
  const size_t streamed = sink.records().size();
  EXPECT_GT(streamed, 0u);
  EXPECT_EQ(count_before(sink.records(), 1e-3), static_cast<std::ptrdiff_t>(streamed));
  for (uint32_t s = 0; s < psim.num_shards(); ++s) {
    EXPECT_EQ(count_before(psim.shard(s).trace.records(), 1e-3), 0) << "shard " << s;
  }
  psim.run_until(2e-3);
  EXPECT_GT(sink.records().size(), streamed);
  const size_t total = sink.records().size() + buffered();
  psim.flush_trace();
  EXPECT_EQ(buffered(), 0u);
  EXPECT_EQ(sink.records().size(), total);
  EXPECT_TRUE(std::is_sorted(
      sink.records().begin(), sink.records().end(),
      [](const obs::TraceRecord& a, const obs::TraceRecord& b) { return a.t < b.t; }));
}

// ---- ContraSwitch loop-accounting cap (satellite: state-bound audit) -------

TEST(ContraSwitch, RecentPacketWindowIsCapped) {
  const topology::Topology topo = topology::line(3);
  const compiler::CompileResult compiled = compiler::compile("minimize(path.len)", topo);
  const pg::PolicyEvaluator evaluator(compiled.graph, compiled.decomposition);
  Simulator sim(topo, SimConfig{});
  auto switches = dataplane::install_contra_network(sim, compiled, evaluator);
  dataplane::ContraSwitch& mid = *switches[1];
  const topology::LinkId in_link = topo.link_between(0, 1);

  const size_t cap = dataplane::ContraSwitch::kRecentPacketsCap;
  for (uint64_t i = 1; i <= cap + 100; ++i) {
    Packet p;
    p.kind = PacketKind::kData;
    p.id = i;
    p.size_bytes = 64;
    p.dst_switch = 2;
    p.routing.stamped = true;
    mid.handle_packet(sim, std::move(p), in_link);
    ASSERT_LE(mid.recent_packet_window_size(), cap) << "packet " << i;
  }
  // Hitting the cap restarts the window: only the overflow packets remain.
  EXPECT_EQ(mid.recent_packet_window_size(), 100u);

  // Revisits inside the window still count as loops after the restart.
  Packet again;
  again.kind = PacketKind::kData;
  again.id = cap + 100;  // still in the post-restart window
  again.size_bytes = 64;
  again.dst_switch = 2;
  again.routing.stamped = true;
  mid.handle_packet(sim, std::move(again), in_link);
  EXPECT_EQ(mid.stats().looped_packets_seen, 1u);
}

}  // namespace
}  // namespace contra::sim
