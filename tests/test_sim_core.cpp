// Simulator core tests: event ordering, link serialization/propagation,
// drop-tail queues, utilization EWMA, failure injection, host wiring, and
// the golden-replay determinism gate for the zero-allocation event core.
#include <gtest/gtest.h>

#include <bit>

#include "compiler/compiler.h"
#include "dataplane/contra_switch.h"
#include "sim/event_queue.h"
#include "sim/host.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "sim/transport.h"
#include "topology/abilene.h"
#include "topology/generators.h"
#include "util/alloc_probe.h"
#include "workload/generator.h"

// One TU of the test binary installs the counting allocator so the
// zero-allocation contract of the event core is checked, not assumed.
CONTRA_DEFINE_COUNTING_ALLOC_HOOKS()

namespace contra::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(2.0, [&] { order.push_back(2); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 10.0);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  q.run_until(1.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, NestedSchedulingWorks) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] {
    q.schedule_in(1.0, [&] { ++fired; });
  });
  q.run_until(3.0);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(5.0, [&] { ++fired; });
  q.run_until(4.999);
  EXPECT_EQ(fired, 0);
  q.run_until(5.0);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, PastTimesClampToNow) {
  EventQueue q;
  q.schedule_at(2.0, [] {});
  q.run_until(2.0);
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });  // in the past -> now
  q.run_until(2.0);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, ClampedEventsAreCounted) {
  EventQueue q;
  q.schedule_at(2.0, [] {});
  q.run_until(2.0);
  EXPECT_EQ(q.events_clamped(), 0u);
  q.schedule_at(1.0, [] {});  // past -> clamped
  q.schedule_at(2.0, [] {});  // exactly now -> not a clamp
  q.schedule_at(3.0, [] {});
  EXPECT_EQ(q.events_clamped(), 1u);
  q.run_until(3.0);
  EXPECT_EQ(q.events_clamped(), 1u);
}

TEST(EventHandler, SmallCapturesStayInline) {
  int fired = 0;
  struct Small {
    int* counter;
    double pad[4];
  };  // 40 bytes: fits the 48-byte buffer
  static_assert(sizeof(Small) <= EventHandler::kInlineCapacity);
  EventHandler h([s = Small{&fired, {}}] { ++*s.counter; });
  EXPECT_TRUE(h.is_inline());
  h();
  EXPECT_EQ(fired, 1);

  // Moving relocates the inline capture; the source empties.
  EventHandler moved = std::move(h);
  EXPECT_TRUE(moved.is_inline());
  EXPECT_FALSE(static_cast<bool>(h));
  moved();
  EXPECT_EQ(fired, 2);
}

TEST(EventHandler, LargeCapturesFallBackToHeap) {
  int fired = 0;
  struct Big {
    int* counter;
    double pad[8];
  };  // 72 bytes: exceeds the inline buffer
  static_assert(sizeof(Big) > EventHandler::kInlineCapacity);
  const uint64_t allocs_before = util::alloc_count();
  EventHandler h([b = Big{&fired, {}}] { ++*b.counter; });
  EXPECT_FALSE(h.is_inline());
  EXPECT_GT(util::alloc_count(), allocs_before);
  EventHandler moved = std::move(h);  // heap pointer steal, no copy
  moved();
  EXPECT_EQ(fired, 1);
}

TEST(EventHandler, SchedulingSmallLambdasDoesNotAllocatePerEvent) {
  EventQueue q;
  uint64_t fired = 0;
  // Warm up the queue's heap storage, then verify rescheduling a small
  // closure is allocation-free.
  q.schedule_in(1e-6, [&] { ++fired; });
  q.run_until(1.0);
  const uint64_t allocs_before = util::alloc_count();
  for (int i = 0; i < 100; ++i) {
    q.schedule_in(1e-6, [&] { ++fired; });
    q.run_until(q.now() + 1e-6);
  }
  EXPECT_EQ(util::alloc_count(), allocs_before);
  EXPECT_EQ(fired, 101u);
}

TEST(PacketPool, RecyclesReleasedSlots) {
  PacketPool pool;
  Packet* a = pool.acquire();
  a->id = 7;
  a->size_bytes = 1500;
  EXPECT_EQ(pool.allocated(), 1u);
  pool.release(a);
  EXPECT_EQ(pool.free_count(), 1u);
  Packet* b = pool.acquire();  // recycled, not newly created
  EXPECT_EQ(b, a);
  EXPECT_EQ(pool.allocated(), 1u);
  EXPECT_EQ(pool.free_count(), 0u);
  pool.release(b);
}

TEST(PacketPool, SlotsStayPutAcrossSlabs) {
  // Queued packets are held by address (link FIFOs and deliver events store
  // Packet* handles), so growing the pool must never move a live slot.
  PacketPool pool;
  const size_t n = 2 * PacketPool::kSlabSlots + 3;
  std::vector<Packet*> slots;
  for (size_t i = 0; i < n; ++i) {
    Packet* p = pool.acquire();
    p->id = 1000 + i;
    p->size_bytes = static_cast<uint32_t>(i);
    slots.push_back(p);
  }
  EXPECT_EQ(pool.allocated(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(slots[i]->id, 1000 + i);
    EXPECT_EQ(slots[i]->size_bytes, i);
  }
  for (Packet* p : slots) pool.release(p);
  EXPECT_EQ(pool.free_count(), n);
  EXPECT_EQ(pool.acquire(), slots.back());  // recycled, not newly carved
  EXPECT_EQ(pool.allocated(), n);
}

#ifndef NDEBUG
TEST(PacketPoolDeathTest, DoubleReleaseIsCaught) {
  PacketPool pool;
  Packet* p = pool.acquire();
  pool.release(p);
  EXPECT_DEATH(pool.release(p), "released to the pool twice");
}
#endif

Packet make_packet(uint32_t bytes, PacketKind kind = PacketKind::kData) {
  Packet p;
  p.kind = kind;
  p.size_bytes = bytes;
  return p;
}

TEST(Link, SerializationPlusPropagationDelay) {
  EventQueue q;
  // 1500B at 1Gbps = 12us; propagation 5us -> arrival at 17us.
  Link link(q, 1e9, 5e-6, 1 << 20, 1e-3);
  Time arrival = -1;
  link.set_deliver([&](Packet&&) { arrival = q.now(); });
  ASSERT_TRUE(link.enqueue(make_packet(1500)));
  q.run_until(1.0);
  EXPECT_NEAR(arrival, 17e-6, 1e-9);
}

TEST(Link, BackToBackPacketsSerialize) {
  EventQueue q;
  Link link(q, 1e9, 0.0, 1 << 20, 1e-3);
  std::vector<Time> arrivals;
  link.set_deliver([&](Packet&&) { arrivals.push_back(q.now()); });
  link.enqueue(make_packet(1500));
  link.enqueue(make_packet(1500));
  q.run_until(1.0);
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[1] - arrivals[0], 12e-6, 1e-9);
}

TEST(Link, DropTailWhenQueueFull) {
  EventQueue q;
  Link link(q, 1e9, 0.0, 3000, 1e-3);  // room for two 1500B packets
  int delivered = 0;
  link.set_deliver([&](Packet&&) { ++delivered; });
  EXPECT_TRUE(link.enqueue(make_packet(1500)));
  EXPECT_TRUE(link.enqueue(make_packet(1500)));
  EXPECT_FALSE(link.enqueue(make_packet(1500)));  // full
  EXPECT_EQ(link.stats().drops, 1u);
  q.run_until(1.0);
  EXPECT_EQ(delivered, 2);
}

TEST(Link, DownLinkDropsEverything) {
  EventQueue q;
  Link link(q, 1e9, 0.0, 1 << 20, 1e-3);
  int delivered = 0;
  link.set_deliver([&](Packet&&) { ++delivered; });
  link.set_down(true);
  EXPECT_FALSE(link.enqueue(make_packet(100)));
  link.set_down(false);
  EXPECT_TRUE(link.enqueue(make_packet(100)));
  q.run_until(1.0);
  EXPECT_EQ(delivered, 1);
}

TEST(Link, UtilizationTracksLoad) {
  EventQueue q;
  const double tau = 100e-6;
  Link link(q, 1e9, 0.0, 1 << 22, tau);
  link.set_deliver([](Packet&&) {});
  // Saturate for 2 tau: utilization should approach 1.
  const int n = static_cast<int>(2 * tau * 1e9 / 8 / 1500);
  for (int i = 0; i < n; ++i) link.enqueue(make_packet(1500));
  q.run_until(2 * tau);
  EXPECT_GT(link.utilization(), 0.6);
  // After 2 tau idle, the estimate decays to zero.
  q.run_until(4 * tau);
  EXPECT_NEAR(link.utilization(), 0.0, 1e-9);
}

TEST(Link, UtilizationReadsAreIdempotent) {
  // Pins the EWMA arithmetic: 1 Gbps link, tau = 100us, one 1500B packet.
  // The transmission completes at 12us (1500B * 8 / 1e9); the decay window
  // holds capacity_bps/8 * tau = 12500 bytes, so utilization right after the
  // transmit is 1500/12500 = 0.12, and 50us later half has decayed away.
  EventQueue q;
  const double tau = 100e-6;
  Link link(q, 1e9, 0.0, 1 << 20, tau);
  link.set_deliver([](Packet&&) {});
  link.enqueue(make_packet(1500));
  q.run_until(12e-6);
  EXPECT_DOUBLE_EQ(link.utilization(), 0.12);
  // Reading must not change the estimate: the historical bug decayed the
  // accumulator on every read, so frequent observers saw smaller values.
  EXPECT_DOUBLE_EQ(link.utilization(), 0.12);
  q.run_until(62e-6);
  EXPECT_DOUBLE_EQ(link.utilization(), 0.06);
  EXPECT_DOUBLE_EQ(link.utilization(), 0.06);
}

TEST(Link, SteadyStateHopAllocatesNothing) {
  // Two links ping-pong one packet forever. After warmup (pool slot created,
  // ring buffers and the event heap grown), a packet hop must not touch the
  // allocator: this is the zero-allocation contract of the event core.
  EventQueue q;
  Link ab(q, 1e9, 5e-6, 1 << 20, 1e-3);
  Link ba(q, 1e9, 5e-6, 1 << 20, 1e-3);
  uint64_t hops = 0;
  ab.set_deliver([&](Packet&& p) { ++hops; ba.enqueue(std::move(p)); });
  ba.set_deliver([&](Packet&& p) { ++hops; ab.enqueue(std::move(p)); });
  ab.enqueue(make_packet(1500));
  q.run_until(1e-3);  // warmup
  ASSERT_GT(hops, 10u);
  const uint64_t hops_before = hops;
  const uint64_t allocs_before = util::alloc_count();
  q.run_until(10e-3);
  EXPECT_GT(hops, hops_before + 100);
  EXPECT_EQ(util::alloc_count() - allocs_before, 0u);
  // Two slots, recycled forever: the delivering slot is released only after
  // the handler has re-enqueued the packet into a second one.
  EXPECT_EQ(q.packet_pool().allocated(), 2u);
}

TEST(Link, SetDownReleasesQueuedSlots) {
  // 1500B at 1Gbps = 12us; propagation 5us. At 13us the first packet is
  // propagating (its slot parked in a deliver event), the second is being
  // serialized, and three more wait behind it.
  EventQueue q;
  Link link(q, 1e9, 5e-6, 1 << 20, 1e-3);
  int delivered = 0;
  link.set_deliver([&](Packet&&) { ++delivered; });
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(link.enqueue(make_packet(1500)));
  q.run_until(13e-6);
  const PacketPool& pool = q.packet_pool();
  EXPECT_EQ(pool.allocated(), 5u);
  link.set_down(true);
  EXPECT_EQ(link.stats().drops, 4u);  // the serializing head and the three behind it
  EXPECT_EQ(link.queue_bytes(), 0u);
  q.run_until(1.0);  // the in-flight delivery fires into the down link
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(pool.free_count(), pool.allocated());

  link.set_down(false);
  ASSERT_TRUE(link.enqueue(make_packet(1500)));
  q.run_until(2.0);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(link.stats().tx_packets, 2u);
  EXPECT_EQ(pool.allocated(), 5u);
  EXPECT_EQ(pool.free_count(), pool.allocated());
}

TEST(Link, PerKindByteCounters) {
  EventQueue q;
  Link link(q, 1e9, 0.0, 1 << 20, 1e-3);
  link.set_deliver([](Packet&&) {});
  link.enqueue(make_packet(1000, PacketKind::kData));
  link.enqueue(make_packet(64, PacketKind::kAck));
  link.enqueue(make_packet(80, PacketKind::kProbe));
  q.run_until(1.0);
  EXPECT_EQ(link.stats().tx_data_bytes, 1000u);
  EXPECT_EQ(link.stats().tx_ack_bytes, 64u);
  EXPECT_EQ(link.stats().tx_probe_bytes, 80u);
  EXPECT_EQ(link.stats().tx_bytes, 1144u);
}

TEST(Link, QueueSamplerFires) {
  EventQueue q;
  Link link(q, 1e9, 0.0, 1 << 20, 1e-3);
  link.set_deliver([](Packet&&) {});
  std::vector<uint64_t> samples;
  link.set_queue_sampler([&](Time, uint64_t bytes) { samples.push_back(bytes); });
  link.enqueue(make_packet(1500));
  link.enqueue(make_packet(1500));
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0], 1500u);
  EXPECT_EQ(samples[1], 3000u);
}

// A trivial device that records arrivals and bounces nothing.
class SinkDevice : public Device {
 public:
  void handle_packet(Simulator&, Packet&& packet, topology::LinkId in_link) override {
    arrivals.push_back({packet.id, in_link});
  }
  const char* kind_name() const override { return "sink"; }
  std::vector<std::pair<uint64_t, topology::LinkId>> arrivals;
};

TEST(Simulator, DeliversAcrossTopologyLink) {
  const topology::Topology topo = topology::line(2);
  Simulator sim(topo, SimConfig{});
  auto sink = std::make_unique<SinkDevice>();
  SinkDevice* observer = sink.get();
  sim.install_switch(1, std::move(sink));

  Packet p;
  p.id = 77;
  p.size_bytes = 100;
  const topology::LinkId l01 = topo.link_between(0, 1);
  sim.send_on_link(l01, std::move(p));
  sim.run_until(1e-3);
  ASSERT_EQ(observer->arrivals.size(), 1u);
  EXPECT_EQ(observer->arrivals[0].first, 77u);
  EXPECT_EQ(observer->arrivals[0].second, l01);
}

TEST(Simulator, HostPacketsArriveWithFromHostMarker) {
  const topology::Topology topo = topology::line(2);
  Simulator sim(topo, SimConfig{});
  auto sink = std::make_unique<SinkDevice>();
  SinkDevice* observer = sink.get();
  sim.install_switch(0, std::move(sink));
  const HostId h = sim.add_host(0);

  Packet p;
  p.id = 5;
  p.size_bytes = 100;
  sim.host_send(h, std::move(p));
  sim.run_until(1e-3);
  ASSERT_EQ(observer->arrivals.size(), 1u);
  EXPECT_EQ(observer->arrivals[0].second, kFromHost);
}

TEST(Simulator, HostReceiverGetsDownlinkPackets) {
  const topology::Topology topo = topology::line(2);
  Simulator sim(topo, SimConfig{});
  const HostId h = sim.add_host(0);
  HostId received_at = kInvalidHost;
  sim.set_host_receiver([&](HostId host, Packet&&) { received_at = host; });
  Packet p;
  p.size_bytes = 64;
  sim.send_to_host(h, std::move(p));
  sim.run_until(1e-3);
  EXPECT_EQ(received_at, h);
}

TEST(Simulator, FailCableKillsBothDirections) {
  const topology::Topology topo = topology::line(2);
  Simulator sim(topo, SimConfig{});
  const topology::LinkId l01 = topo.link_between(0, 1);
  sim.fail_cable(l01);
  EXPECT_TRUE(sim.link(l01).down());
  EXPECT_TRUE(sim.link(topo.link(l01).reverse).down());
  sim.restore_cable(l01);
  EXPECT_FALSE(sim.link(l01).down());
}

TEST(Simulator, AggregateFabricStatsSumsLinks) {
  const topology::Topology topo = topology::line(3);
  Simulator sim(topo, SimConfig{});
  Packet p;
  p.size_bytes = 500;
  sim.send_on_link(topo.link_between(0, 1), std::move(p));
  sim.run_until(1e-3);
  EXPECT_EQ(sim.aggregate_fabric_stats().tx_bytes, 500u);
}

// ---- golden-replay determinism gate ---------------------------------------
//
// Same seed + same policy must give bit-identical simulations: identical
// event counts, identical FCT lists, identical link statistics. The digests
// below were captured from the std::function-based event core immediately
// before the SBO/pool rewrite; the rewrite (and any future core change that
// claims to be a pure optimization) must reproduce them exactly.

uint64_t fnv_mix(uint64_t h, uint64_t v) {
  h ^= v;
  return h * 1099511628211ull;
}

struct GoldenRun {
  uint64_t digest = 0;
  uint64_t events = 0;
  size_t completed_flows = 0;
};

GoldenRun run_golden_scenario(const topology::Topology& topo,
                              const compiler::CompileResult& compiled,
                              const pg::PolicyEvaluator& evaluator, bool abilene,
                              uint64_t seed) {
  SimConfig config;
  config.host_link_bps = abilene ? 2e9 : 10e9;
  config.util_tau_s = 512e-6;
  Simulator sim(topo, config);

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
  workload::WorkloadConfig wl;
  wl.load = 0.4;
  wl.sender_capacity_bps = 2e9;
  wl.start = 2e-3;
  wl.duration = 4e-3;
  wl.seed = seed;
  wl.size_scale = 0.05;
  const auto flows = workload::generate_poisson(workload::web_search_flow_sizes(), senders,
                                                receivers, wl);
  workload::submit(transport, flows);

  sim.start();
  sim.run_until(wl.start + wl.duration + 0.05);

  GoldenRun out;
  out.events = sim.events().events_processed();
  out.completed_flows = transport.completed_flows().size();
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  h = fnv_mix(h, out.events);
  for (const auto& f : transport.completed_flows()) {
    h = fnv_mix(h, f.flow_id);
    h = fnv_mix(h, std::bit_cast<uint64_t>(f.start));
    h = fnv_mix(h, std::bit_cast<uint64_t>(f.end));
  }
  for (topology::LinkId id = 0; id < topo.num_links(); ++id) {
    const LinkStats& s = sim.link(id).stats();
    h = fnv_mix(h, s.tx_packets);
    h = fnv_mix(h, s.tx_bytes);
    h = fnv_mix(h, s.tx_probe_bytes);
    h = fnv_mix(h, s.drops);
    h = fnv_mix(h, s.data_drops);
  }
  out.digest = h;
  return out;
}

// Data packets that reach a host on a converged k=4 fat-tree under Contra,
// as the transport's data inspector sees them: whether each carried a cold
// PathRecord, and the switch trace of the last one.
struct ColdRecordAudit {
  uint64_t packets = 0;
  uint64_t with_record = 0;
  std::vector<uint16_t> last_trace;
};

ColdRecordAudit audit_cold_records(bool capture_traces) {
  const topology::Topology topo = topology::fat_tree(4, topology::LinkParams{10e9, 1e-6});
  const compiler::CompileResult compiled =
      compiler::compile("minimize((path.len, path.util))", topo);
  const pg::PolicyEvaluator evaluator(compiled.graph, compiled.decomposition);
  SimConfig config;
  config.capture_traces = capture_traces;
  Simulator sim(topo, config);
  const HostId src = sim.add_host(topo.find("e0_0"));
  const HostId dst = sim.add_host(topo.find("e3_1"));
  dataplane::install_contra_network(sim, compiled, evaluator);
  TransportManager transport(sim);
  ColdRecordAudit audit;
  transport.set_data_inspector([&](const Packet& packet) {
    ++audit.packets;
    if (!packet.path) return;
    ++audit.with_record;
    audit.last_trace = packet.path->trace;
  });
  sim.start();
  sim.run_until(2e-3);
  transport.start_flow(src, dst, 30'000, sim.now());
  sim.run_until(sim.now() + 0.05);
  EXPECT_EQ(transport.completed_flows().size(), 1u);
  return audit;
}

TEST(Packet, PathRecordOnlyOnRequest) {
  // Traces and flow telemetry off: no data packet allocates a cold record.
  const ColdRecordAudit plain = audit_cold_records(/*capture_traces=*/false);
  EXPECT_GT(plain.packets, 10u);
  EXPECT_EQ(plain.with_record, 0u);

  // Traces on: every data packet carries its switch path, edge to edge.
  const topology::Topology topo = topology::fat_tree(4, topology::LinkParams{10e9, 1e-6});
  const ColdRecordAudit traced = audit_cold_records(/*capture_traces=*/true);
  EXPECT_EQ(traced.packets, plain.packets);
  EXPECT_EQ(traced.with_record, traced.packets);
  ASSERT_EQ(traced.last_trace.size(), 5u);  // edge, agg, core, agg, edge
  EXPECT_EQ(traced.last_trace.front(), topo.find("e0_0"));
  EXPECT_EQ(traced.last_trace.back(), topo.find("e3_1"));
}

TEST(Determinism, GoldenReplayFatTreeAndAbilene) {
  struct Golden {
    bool abilene;
    uint64_t seed;
    uint64_t digest;
  };
  // Re-pinned when probe delta-suppression landed (it intentionally changes
  // the control-plane packet stream); replay determinism below still proves
  // bit-identical reruns.
  static constexpr Golden kGoldens[] = {
      {false, 1, 0x09ea8daf20e5853full}, {false, 2, 0x069318c39e29c7dcull},
      {false, 3, 0xdab422b8ca48302cull}, {true, 1, 0x837cd0f908bdf4d3ull},
      {true, 2, 0x4c935b6c706c5abbull},  {true, 3, 0xe88e426e5fee28ecull},
  };

  const topology::Topology fat_tree =
      topology::fat_tree(4, topology::LinkParams{10e9, 1e-6});
  const topology::Topology abilene = topology::abilene(2e9, 0.02);
  const compiler::CompileResult fat_compiled =
      compiler::compile("minimize((path.len, path.util))", fat_tree);
  const compiler::CompileResult abi_compiled = compiler::compile("minimize(path.util)", abilene);
  const pg::PolicyEvaluator fat_eval(fat_compiled.graph, fat_compiled.decomposition);
  const pg::PolicyEvaluator abi_eval(abi_compiled.graph, abi_compiled.decomposition);

  for (const Golden& g : kGoldens) {
    const topology::Topology& topo = g.abilene ? abilene : fat_tree;
    const compiler::CompileResult& compiled = g.abilene ? abi_compiled : fat_compiled;
    const pg::PolicyEvaluator& evaluator = g.abilene ? abi_eval : fat_eval;
    const GoldenRun first = run_golden_scenario(topo, compiled, evaluator, g.abilene, g.seed);
    const GoldenRun replay = run_golden_scenario(topo, compiled, evaluator, g.abilene, g.seed);
    // Replay determinism: two fresh simulators, same inputs, same bits.
    EXPECT_EQ(first.digest, replay.digest)
        << (g.abilene ? "abilene" : "fat-tree") << " seed " << g.seed;
    EXPECT_EQ(first.events, replay.events);
    EXPECT_GT(first.completed_flows, 0u);
    // Cross-rewrite golden: pinned against the pre-rewrite core.
    EXPECT_EQ(first.digest, g.digest)
        << (g.abilene ? "abilene" : "fat-tree") << " seed " << g.seed << std::hex
        << " actual digest 0x" << first.digest;
  }
}

}  // namespace
}  // namespace contra::sim
