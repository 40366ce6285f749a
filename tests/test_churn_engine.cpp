// Churn engine tests (DESIGN.md §13): the scripted/generative fault engine,
// the gray-failure link state it drives, and the churn-exposed control-plane
// fixes this PR pins:
//
//   * ConvergenceTracker measures a window *per wave* — the old tracker's
//     last-flip − first-failure measure grew without bound across waves;
//   * Link survives a fail→restore flap inside one serialization window —
//     the stale transmit-done event used to re-time the next packet;
//   * restart_control_plane under triggered updates withdraws the pre-restart
//     advert ledger, so neighbours converge back to periodic-mode parity
//     instead of routing on ghosts until metric expiry;
//   * duplicate / overlapping scheduled cable events are idempotent, and a
//     full mixed-class churn schedule is byte-identical across --workers at
//     a fixed shard count.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "compiler/compiler.h"
#include "dataplane/contra_switch.h"
#include "obs/convergence.h"
#include "obs/trace.h"
#include "oracle/checker.h"
#include "oracle/oracle.h"
#include "oracle/quiesce.h"
#include "scenario/scenario.h"
#include "sim/churn_engine.h"
#include "sim/event_queue.h"
#include "sim/link.h"
#include "sim/parallel_simulator.h"
#include "sim/simulator.h"
#include "topology/generators.h"

namespace contra::sim {
namespace {

using obs::Ev;
using obs::TraceRecord;
using topology::Topology;

constexpr double kPeriod = 64e-6;

// ---- ConvergenceTracker per-wave windows (pinned bugfix) -------------------

TraceRecord rec(double t, Ev ev, uint32_t dst = obs::kNoField) {
  TraceRecord r;
  r.t = t;
  r.ev = ev;
  if (ev == Ev::kLinkDown || ev == Ev::kLinkUp) r.link = 0;
  r.dst = dst;
  return r;
}

// Two failure waves 9 s apart, each answered by a route flip 0.1 s later.
// The per-wave tracker reports a 0.1 s window for each wave and a 0.1 s
// worst-case per destination. Fails before the per-wave rewrite: the old
// tracker measured last flip − first failure = 9.1 s, growing without bound
// the longer the churn ran.
TEST(ConvergenceWaves, PerWaveWindowsDoNotAccumulate) {
  obs::ConvergenceTracker tracker;
  tracker.observe(rec(1.0, Ev::kLinkDown));
  tracker.observe(rec(1.1, Ev::kRouteFlip, /*dst=*/0));
  tracker.observe(rec(10.0, Ev::kLinkDown));
  tracker.observe(rec(10.1, Ev::kRouteFlip, /*dst=*/0));

  const obs::ConvergenceTracker::Report report = tracker.report();
  ASSERT_EQ(report.waves.size(), 2u);
  EXPECT_NEAR(report.waves[0].start, 1.0, 1e-12);
  EXPECT_NEAR(report.waves[0].reconvergence_s, 0.1, 1e-9);
  EXPECT_NEAR(report.waves[1].reconvergence_s, 0.1, 1e-9);
  ASSERT_EQ(report.destinations.size(), 1u);
  EXPECT_NEAR(report.destinations[0].reconvergence_s, 0.1, 1e-9);
}

// Once churn_wave anchors appear, raw link events stop opening waves (the
// engine emits its anchor before the primitive events it injects), same-time
// batches collapse into the single announced wave, and the per-class
// distribution buckets by the anchor's FaultClass.
TEST(ConvergenceWaves, ChurnAnchorsSuppressRawLinkWaves) {
  obs::ConvergenceTracker tracker;
  TraceRecord wave = rec(1.0, Ev::kChurnWave);
  wave.aux = static_cast<uint32_t>(obs::FaultClass::kSrg);
  tracker.observe(wave);
  tracker.observe(rec(1.0, Ev::kLinkDown));  // SRG member, same instant
  tracker.observe(rec(1.0, Ev::kLinkDown));  // second member: same wave
  tracker.observe(rec(1.2, Ev::kRouteFlip, /*dst=*/3));
  tracker.observe(rec(1.5, Ev::kLinkUp));  // restore must not open a wave
  tracker.observe(rec(1.6, Ev::kRouteFlip, /*dst=*/3));

  const obs::ConvergenceTracker::Report report = tracker.report();
  ASSERT_EQ(report.waves.size(), 1u);
  EXPECT_EQ(report.waves[0].fault_class, static_cast<uint32_t>(obs::FaultClass::kSrg));
  EXPECT_EQ(report.waves[0].flips, 2u);
  EXPECT_NEAR(report.waves[0].reconvergence_s, 0.6, 1e-9);
  ASSERT_EQ(report.by_class.size(), 1u);
  EXPECT_EQ(report.by_class[0].fault_class, static_cast<uint32_t>(obs::FaultClass::kSrg));
  EXPECT_EQ(report.by_class[0].waves, 1u);
  EXPECT_EQ(report.by_class[0].reacted, 1u);
  EXPECT_NEAR(report.by_class[0].max_s, 0.6, 1e-9);
}

// ---- gray-failure link state ----------------------------------------------

Packet make_packet(uint32_t bytes, PacketKind kind = PacketKind::kData) {
  Packet p;
  p.kind = kind;
  p.size_bytes = bytes;
  return p;
}

// Loss draws key on a per-link counter + salt, so the same salt reproduces
// the exact drop pattern — packet ids would be shard-namespaced under the
// parallel engine and break serial/parallel loss parity.
TEST(GrayLink, LossSequenceIsDeterministicInSalt) {
  auto run = [](uint64_t salt) {
    EventQueue q;
    Link link(q, 1e9, 0.0, 1 << 20, 1e-3);
    std::vector<int> delivered;
    int next = 0;
    link.set_deliver([&](Packet&&) { delivered.push_back(next); });
    GrayParams gray;
    gray.loss_prob = 0.5;
    gray.salt = salt;
    link.set_gray(gray);
    for (next = 0; next < 200; ++next) {
      link.enqueue(make_packet(100));
      q.run_until(q.now() + 1.0);  // drain: one packet in flight at a time
    }
    return delivered;
  };
  const std::vector<int> a = run(7);
  const std::vector<int> b = run(7);
  EXPECT_EQ(a, b);
  // Statistically sane for p=0.5 over 200 draws, and salt-sensitive.
  EXPECT_GT(a.size(), 50u);
  EXPECT_LT(a.size(), 150u);
  EXPECT_NE(a, run(8));
}

TEST(GrayLink, CapacityDerateAndExtraDelaySlowDelivery) {
  EventQueue q;
  // Healthy: 1500 B at 1 Gbps = 12 us serialization + 5 us propagation.
  Link link(q, 1e9, 5e-6, 1 << 20, 1e-3);
  std::vector<Time> arrivals;
  link.set_deliver([&](Packet&&) { arrivals.push_back(q.now()); });
  ASSERT_TRUE(link.enqueue(make_packet(1500)));
  q.run_until(1.0);
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_NEAR(arrivals[0], 17e-6, 1e-9);

  // Gray: half capacity doubles serialization (24 us), +10 us propagation.
  GrayParams gray;
  gray.capacity_factor = 0.5;
  gray.extra_delay_s = 10e-6;
  link.set_gray(gray);
  EXPECT_TRUE(link.gray());
  const Time gray_send = q.now();
  ASSERT_TRUE(link.enqueue(make_packet(1500)));
  q.run_until(2.0);
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[1] - gray_send, 24e-6 + 15e-6, 1e-9);

  // clear_gray heals back to the healthy timing.
  link.clear_gray();
  EXPECT_FALSE(link.gray());
  const Time healed_send = q.now();
  ASSERT_TRUE(link.enqueue(make_packet(1500)));
  q.run_until(3.0);
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_NEAR(arrivals[2] - healed_send, 17e-6, 1e-9);
}

// Out-of-range parameters are clamped on installation: a negative extra
// delay or a zero capacity factor would break the parallel engine's
// conservative lookahead.
TEST(GrayLink, ClampsUnsafeParameters) {
  EventQueue q;
  Link link(q, 1e9, 1e-6, 1 << 20, 1e-3);
  GrayParams gray;
  gray.loss_prob = 1.7;
  gray.extra_delay_s = -4e-6;
  gray.capacity_factor = -2.0;
  link.set_gray(gray);
  EXPECT_DOUBLE_EQ(link.gray_params().loss_prob, 1.0);
  EXPECT_DOUBLE_EQ(link.gray_params().extra_delay_s, 0.0);
  EXPECT_GT(link.gray_params().capacity_factor, 0.0);
  EXPECT_LE(link.gray_params().capacity_factor, 1.0);
  EXPECT_GE(link.delay_s(), 1e-6);
  EXPECT_GT(link.capacity_bps(), 0.0);
}

// ---- link flap inside one serialization window (pinned bugfix) -------------

// 1500 B at 1 Gbps serializes in 12 us. Fail the link at 6 us (mid-flight),
// restore and re-enqueue at 7 us. The restored transmission must start
// immediately and deliver exactly once at 7 + 12 + 5 = 24 us. Fails before
// the tx_done_at_ stale-event guard: the aborted transmission's completion
// (scheduled for 12 us) fired into the restored link and re-timed the new
// head packet, delivering at 29 us.
TEST(LinkFlapRace, SubSerializationFlapRestartsCleanly) {
  EventQueue q;
  Link link(q, 1e9, 5e-6, 1 << 20, 1e-3);
  std::vector<Time> arrivals;
  link.set_deliver([&](Packet&&) { arrivals.push_back(q.now()); });
  ASSERT_TRUE(link.enqueue(make_packet(1500)));
  q.schedule_at(6e-6, [&] { link.set_down(true); });
  q.schedule_at(7e-6, [&] {
    link.set_down(false);
    ASSERT_TRUE(link.enqueue(make_packet(1500)));
  });
  q.run_until(1.0);
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_NEAR(arrivals[0], 24e-6, 1e-9);
  EXPECT_EQ(link.stats().tx_packets, 1u);
  EXPECT_EQ(link.stats().drops, 1u);  // the aborted in-flight packet
}

// Same race, flap entirely inside the window with no re-enqueue: the stale
// completion must not deliver the dropped packet or leave the link busy.
TEST(LinkFlapRace, AbortedTransmissionStaysAborted) {
  EventQueue q;
  Link link(q, 1e9, 5e-6, 1 << 20, 1e-3);
  std::vector<Time> arrivals;
  link.set_deliver([&](Packet&&) { arrivals.push_back(q.now()); });
  ASSERT_TRUE(link.enqueue(make_packet(1500)));
  q.schedule_at(6e-6, [&] { link.set_down(true); });
  q.schedule_at(8e-6, [&] { link.set_down(false); });
  q.run_until(100e-6);
  EXPECT_TRUE(arrivals.empty());
  // The link is idle again: a fresh packet serializes on schedule.
  const Time start = q.now();
  ASSERT_TRUE(link.enqueue(make_packet(1500)));
  q.run_until(start + 1.0);
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_NEAR(arrivals[0] - start, 17e-6, 1e-9);
}

// ---- ChurnEngine schedule construction -------------------------------------

Topology fabric() { return topology::fat_tree(4, topology::LinkParams{10e9, 1e-6}); }

TEST(ChurnEngine, BuildersCountWavesAndEndClean) {
  const Topology topo = fabric();
  const topology::LinkId l0 = topo.link_between(topo.find("e0_0"), topo.find("a0_0"));
  const topology::LinkId l1 = topo.link_between(topo.find("a0_1"), topo.find("c2"));
  GrayParams gray;
  gray.loss_prob = 0.1;
  gray.extra_delay_s = 20e-6;
  gray.capacity_factor = 0.8;

  ChurnEngine engine(topo);
  engine.flap(l0, 1e-3, 0.2e-3, 2)
      .srg_switch(topo.find("a0_0"), 3e-3, 4e-3)
      .gray(l1, 5e-3, 6e-3, gray)
      .drain(topo.find("e0_1"), 7e-3, 8e-3)
      .restart(topo.find("c0"), 9e-3);

  EXPECT_EQ(engine.num_waves(), 5u);
  EXPECT_GT(engine.num_events(), 5u);
  EXPECT_TRUE(engine.has_restarts());
  EXPECT_TRUE(engine.ends_clean());
  EXPECT_NEAR(engine.last_event_time(), 9e-3, 1e-12);
  // describe(): one line per wave.
  const std::string text = engine.describe();
  size_t lines = 0;
  for (char c : text) lines += (c == '\n');
  EXPECT_EQ(lines, 5u);
}

TEST(ChurnEngine, GenerativeSchedulesAreDeterministicAndClean) {
  const Topology topo = fabric();
  ChurnEngine a(topo), b(topo), c(topo);
  a.generate(/*seed=*/42, /*start=*/1e-3, /*horizon=*/20e-3, /*waves=*/6);
  b.generate(42, 1e-3, 20e-3, 6);
  c.generate(43, 1e-3, 20e-3, 6);

  EXPECT_EQ(a.num_waves(), 6u);
  EXPECT_EQ(a.describe(), b.describe());
  EXPECT_EQ(a.num_events(), b.num_events());
  EXPECT_NE(a.describe(), c.describe());
  // Every generated wave clears before the horizon: the all-links-up oracle
  // may demand quiescence after last_event_time().
  EXPECT_TRUE(a.ends_clean());
  EXPECT_LT(a.last_event_time(), 20e-3);
  EXPECT_GE(a.last_event_time(), 1e-3);
}

TEST(ChurnEngine, JsonSpecParsesAndRejectsMalformedInput) {
  const Topology topo = fabric();
  std::string error;

  ChurnEngine ok(topo);
  EXPECT_TRUE(ok.load_json(R"({
    "events": [
      {"type": "flap", "link": "e0_0-a0_0", "start_ms": 1, "half_period_ms": 0.2, "cycles": 2},
      {"type": "gray", "link": "a0_1-c2", "at_ms": 3, "clear_ms": 4, "loss": 0.1},
      {"type": "restart", "node": "a1_0", "at_ms": 5}
    ],
    "generate": {"seed": 7, "waves": 2, "start_ms": 6, "horizon_ms": 12}
  })",
                           &error))
      << error;
  EXPECT_EQ(ok.num_waves(), 5u);  // 3 scripted + 2 generated
  EXPECT_TRUE(ok.has_restarts());

  const char* bad[] = {
      R"({"events": [{"type": "warp", "at_ms": 1}]})",          // unknown class
      R"({"events": [{"type": "restart", "at_ms": 1}]})",       // missing node
      R"({"events": [{"type": "flap", "link": "x-y",
                      "start_ms": 1, "half_period_ms": 1, "cycles": 1}]})",  // bad link
      R"({"events": []})",                                      // empty schedule
      R"({"events": [}]})",                                     // malformed JSON
  };
  for (const char* spec : bad) {
    ChurnEngine engine(topo);
    error.clear();
    EXPECT_FALSE(engine.load_json(spec, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

// ---- restart under triggered updates (pinned bugfix) -----------------------

// One shard; `sim` is its engine, driven directly where a test steps it.
struct TriggeredWorld {
  TriggeredWorld(Topology topology, bool triggered, uint32_t keepalive_rounds = 8)
      : topo(std::move(topology)),
        compiled(compiler::compile("minimize((path.len, path.util))", topo)),
        evaluator(compiled.graph, compiled.decomposition),
        psim(topo, SimConfig{}),
        sim(psim.shard_sim(0)) {
    dataplane::ContraSwitchOptions options;
    options.probe_period_s = kPeriod;
    options.triggered_updates = triggered;
    options.keepalive_rounds = keepalive_rounds;
    options.holddown_periods = 2.0;
    switches = dataplane::install_contra_network(sim, compiled, evaluator, options);
  }

  uint64_t stat_sum(uint64_t dataplane::ContraSwitchStats::* field) const {
    uint64_t total = 0;
    for (const dataplane::ContraSwitch* sw : switches) total += sw->stats().*field;
    return total;
  }

  uint64_t usable_digest() const {
    const std::vector<const dataplane::ContraSwitch*> view(switches.begin(), switches.end());
    return oracle::usable_fwdt_digest(view, sim.now());
  }

  Topology topo;
  compiler::CompileResult compiled;
  pg::PolicyEvaluator evaluator;
  ParallelSimulator psim;
  Simulator& sim;
  std::vector<dataplane::ContraSwitch*> switches;
};

// A restarted control plane must actively withdraw its pre-restart advert
// ledger. Fails before the ledger fix: the restart only cleared tables and
// clocks, emitted nothing, and neighbours kept routing on the ghost adverts
// until metric expiry.
TEST(TriggeredRestart, RestartWithdrawsAdvertLedger) {
  TriggeredWorld trig(fabric(), /*triggered=*/true, /*keepalive_rounds=*/8);
  trig.sim.start();
  // Restart mid-keepalive-cycle (keepalives flood at multiples of K=8
  // periods): the RIB stays empty until the next flood, so the ledger sweep
  // is the only thing that can tell neighbours. A restart right at a flood
  // boundary would see its rows resurrected before the first control tick
  // and correctly have nothing to withdraw.
  trig.sim.run_until(80 * kPeriod + 3.5 * kPeriod);
  const uint64_t withdrawn_before =
      trig.stat_sum(&dataplane::ContraSwitchStats::probes_withdrawn);

  trig.sim.restart_switch(trig.topo.find("a0_0"));
  // The withdraw sweep rides the restarted switch's next control tick.
  trig.sim.run_until(80 * kPeriod + 8 * kPeriod);
  EXPECT_GT(trig.stat_sum(&dataplane::ContraSwitchStats::probes_withdrawn), withdrawn_before)
      << "restart did not withdraw the stale advert ledger";
}

// After the withdraw sweep and re-announce, the triggered engine lands back
// on the same usable-FwdT fixed point as the periodic engine over the same
// restart — digest parity is the §12 acceptance contract, and the restart
// must not break it.
TEST(TriggeredRestart, ReachesPeriodicParityAfterRestart) {
  TriggeredWorld periodic(fabric(), /*triggered=*/false);
  TriggeredWorld trig(fabric(), /*triggered=*/true, /*keepalive_rounds=*/8);
  periodic.sim.start();
  trig.sim.start();
  // Converge, then restart mid-keepalive-cycle — the adversarial phase where
  // the ledger sweep (not a coincident keepalive flood) must carry recovery.
  const double converge_s = 80 * kPeriod + 3.5 * kPeriod;
  periodic.sim.run_until(converge_s);
  trig.sim.run_until(converge_s);
  const uint64_t baseline = periodic.usable_digest();
  ASSERT_EQ(baseline, trig.usable_digest());

  const topology::NodeId victim = periodic.topo.find("a0_0");
  periodic.sim.restart_switch(victim);
  trig.sim.restart_switch(trig.topo.find("a0_0"));
  // Settle past the scaled expiry/escape windows (12 periods x K at K=8).
  const double end_s = converge_s + 160 * kPeriod;
  periodic.sim.run_until(end_s);
  trig.sim.run_until(end_s);

  EXPECT_EQ(periodic.usable_digest(), trig.usable_digest());
  EXPECT_EQ(trig.usable_digest(), baseline) << "restart left a different fixed point";
  ASSERT_NE(victim, topology::kInvalidNode);
}

// ---- mixed churn: workers invariance, duplicate idempotency, oracle --------

struct ChurnRun {
  uint64_t digest = 0;
  std::string trace;           ///< full merged telemetry, scheduler records included
  std::string protocol_trace;  ///< kEpoch (phase-scheduler) records filtered out
  uint32_t waves = 0;
};

// Fat-tree fabric under one wave of each scripted class plus duplicated and
// overlapping raw cable events. `shards` must be pinned: the workers
// contract is "same schedule, same shard count, any worker count".
ChurnRun run_parallel_churn(const Topology& topo, const compiler::CompileResult& compiled,
                            const pg::PolicyEvaluator& evaluator, const ChurnEngine& churn,
                            uint32_t shards, uint32_t workers, bool duplicate_events) {
  SimConfig config;
  config.shards = shards;
  config.workers = workers;
  obs::MemoryTraceSink sink;
  ParallelSimulator psim(topo, config);
  psim.enable_tracing(&sink);
  dataplane::ContraSwitchOptions options;
  options.probe_period_s = kPeriod;
  psim.for_each_shard([&](Simulator& shard_sim) {
    dataplane::install_contra_network(shard_sim, compiled, evaluator, options);
  });
  churn.arm(psim);
  const topology::LinkId dup = topo.link_between(topo.find("e1_0"), topo.find("a1_0"));
  psim.schedule_cable_event(2.0e-3, dup, true);
  if (duplicate_events) {
    // Duplicate fail at the same instant, a redundant fail while already
    // down, and a duplicate restore: all must be no-ops.
    psim.schedule_cable_event(2.0e-3, dup, true);
    psim.schedule_cable_event(2.2e-3, dup, true);
    psim.schedule_cable_event(2.6e-3, dup, false);
  }
  psim.schedule_cable_event(2.6e-3, dup, false);
  psim.start();
  psim.run_until(12e-3);
  psim.flush_trace();

  ChurnRun out;
  char line[obs::kMaxLineBytes];
  obs::ConvergenceTracker tracker;
  for (const obs::TraceRecord& r : sink.records()) {
    tracker.observe(r);
    const size_t len = obs::format_jsonl(r, line);
    out.trace.append(line, len);
    out.trace += '\n';
    if (r.ev != obs::Ev::kEpoch) {
      out.protocol_trace.append(line, len);
      out.protocol_trace += '\n';
    }
  }
  out.waves = static_cast<uint32_t>(tracker.report().waves.size());
  std::vector<const dataplane::ContraSwitch*> view;
  for (topology::NodeId n = 0; n < topo.num_nodes(); ++n) {
    view.push_back(&dynamic_cast<const dataplane::ContraSwitch&>(
        psim.shard_sim(psim.shard_of_node(n)).device_at(n)));
  }
  out.digest = oracle::usable_fwdt_digest(view, psim.now());
  return out;
}

TEST(ChurnEngine, MixedChurnIsWorkerInvariantAndIdempotent) {
  const Topology topo = fabric();
  const compiler::CompileResult compiled =
      compiler::compile("minimize((path.len, path.util))", topo);
  const pg::PolicyEvaluator evaluator(compiled.graph, compiled.decomposition);

  GrayParams gray;
  gray.loss_prob = 0.2;
  gray.extra_delay_s = 30e-6;
  gray.capacity_factor = 0.6;
  ChurnEngine churn(topo);
  churn.flap(topo.link_between(topo.find("e0_0"), topo.find("a0_0")), 4e-3, 0.4e-3, 2)
      .srg_switch(topo.find("a0_1"), 5e-3, 6e-3)
      .gray(topo.link_between(topo.find("a2_0"), topo.find("c0")), 6.5e-3, 7.5e-3, gray)
      .restart(topo.find("a3_0"), 8e-3);
  ASSERT_TRUE(churn.ends_clean());

  const ChurnRun base =
      run_parallel_churn(topo, compiled, evaluator, churn, /*shards=*/4, /*workers=*/1,
                         /*duplicate_events=*/false);
  EXPECT_FALSE(base.trace.empty());
  // Every engine wave landed in the telemetry, plus two fallback-anchored
  // waves from the raw cable fault (fail and restore precede the first
  // churn_wave marker, so each opens a window of its own).
  EXPECT_EQ(base.waves, churn.num_waves() + 2);

  for (const uint32_t workers : {2u, 4u}) {
    const ChurnRun run =
        run_parallel_churn(topo, compiled, evaluator, churn, 4, workers, false);
    EXPECT_EQ(base.digest, run.digest) << "workers " << workers;
    EXPECT_EQ(base.trace, run.trace) << "workers " << workers;
  }
  // Duplicate/overlapping schedule events are idempotent: the protocol-level
  // telemetry (everything but the phase scheduler's epoch records, which
  // legitimately see the extra no-op events as barrier work) and the routing
  // fixed point are byte-identical to the clean schedule, on any workers.
  const ChurnRun dup_base =
      run_parallel_churn(topo, compiled, evaluator, churn, 4, /*workers=*/1,
                         /*duplicate_events=*/true);
  EXPECT_EQ(base.digest, dup_base.digest);
  EXPECT_EQ(base.protocol_trace, dup_base.protocol_trace);
  EXPECT_EQ(base.waves, dup_base.waves);
  for (const uint32_t workers : {2u, 4u}) {
    const ChurnRun run =
        run_parallel_churn(topo, compiled, evaluator, churn, 4, workers, true);
    EXPECT_EQ(dup_base.digest, run.digest) << "dup workers " << workers;
    EXPECT_EQ(dup_base.trace, run.trace) << "dup workers " << workers;
  }
}

// One-shard acceptance over the same mixed schedule: the schedule ends
// clean, the fabric reconverges to the all-links-up oracle fixed point, and
// the per-class reconvergence distribution covers every injected class.
TEST(ChurnEngine, SerialMixedChurnQuiescesToOracleFixedPoint) {
  TriggeredWorld world(fabric(), /*triggered=*/false);
  GrayParams gray;
  gray.loss_prob = 0.15;
  gray.extra_delay_s = 20e-6;
  gray.capacity_factor = 0.7;
  ChurnEngine churn(world.topo);
  churn.flap(world.topo.link_between(world.topo.find("e0_0"), world.topo.find("a0_0")), 4e-3,
             0.4e-3, 2)
      .srg_switch(world.topo.find("a0_1"), 5e-3, 6e-3)
      .gray(world.topo.link_between(world.topo.find("a2_0"), world.topo.find("c0")), 6.5e-3,
            7.5e-3, gray)
      .drain(world.topo.find("e2_0"), 8e-3, 9e-3)
      .restart(world.topo.find("a3_0"), 9.5e-3);
  ASSERT_TRUE(churn.ends_clean());

  obs::ConvergenceTracker tracker;
  world.psim.enable_tracing(&tracker);
  churn.arm(world.psim);
  world.psim.start();
  world.psim.run_until(churn.last_event_time() + 6e-3);

  oracle::RouteOracle oracle(world.compiled.graph, world.evaluator,
                             oracle::LinkState::all_up(world.topo));
  const std::vector<const dataplane::ContraSwitch*> view(world.switches.begin(),
                                                         world.switches.end());
  const oracle::CheckReport check = oracle::check_invariants(
      oracle, view, world.sim.now(), oracle::options_for(world.compiled.isotonicity));
  EXPECT_TRUE(check.ok()) << check.to_string(world.topo);

  const obs::ConvergenceTracker::Report report = tracker.report();
  EXPECT_EQ(report.waves.size(), churn.num_waves());
  EXPECT_EQ(report.by_class.size(), 5u) << "expected flap/srg/gray/drain/restart buckets";
  for (const auto& cls : report.by_class) {
    EXPECT_EQ(cls.waves, 1u);
  }
}

// ---- optimality audit under churn ----------------------------------------

TEST(ChurnEngine, CablesDownAtReplaysTheSchedule) {
  const Topology topo = topology::ring(4);
  const topology::LinkId l01 = topo.link_between(0, 1);
  const topology::LinkId l12 = topo.link_between(1, 2);
  ChurnEngine churn(topo);
  churn.flap(l01, 1e-3, 1e-3, 2).srg({l12}, 2.5e-3, 10e-3);
  EXPECT_TRUE(churn.cables_down_at(0.5e-3).empty());
  EXPECT_EQ(churn.cables_down_at(1e-3), std::vector<topology::LinkId>{l01});
  EXPECT_TRUE(churn.cables_down_at(2e-3).empty());
  EXPECT_EQ(churn.cables_down_at(3e-3), (std::vector<topology::LinkId>{l01, l12}));
  EXPECT_EQ(churn.cables_down_at(4.5e-3), std::vector<topology::LinkId>{l12});
  EXPECT_TRUE(churn.cables_down_at(10e-3).empty());
}

/// The `audit :` line of a ring(6) run whose 0-1 cable is cut mid-traffic,
/// forcing the 0 -> 2 flows from two hops onto four.
std::string ring_cut_audit_line(bool cut_by_churn) {
  scenario::Scenario sc;
  sc.topo = topology::ring(6);
  sc.sender_switches = {0};
  sc.receiver_switches = {2};
  sc.policy = "minimize(path.len)";
  sc.workload.load = 0.3;
  sc.workload.start = 2e-3;
  sc.workload.duration = 20e-3;
  sc.workload.size_scale = 0.05;
  sc.drain_s = 10e-3;
  sc.out.audit = true;
  sc.out.path_sample_every = 4;
  const topology::LinkId cut = sc.topo.link_between(0, 1);
  const double cut_at = 8e-3;
  ChurnEngine churn(sc.topo);
  if (cut_by_churn) {
    churn.srg({cut}, cut_at, 1.0);  // restores long after the run ends
    sc.churn = &churn;
  } else {
    sc.fail_link = cut;
    sc.fail_at_s = cut_at;
  }
  std::FILE* log = std::tmpfile();
  if (log == nullptr) return "no tmpfile";
  sc.out.log = log;
  scenario::run(sc);
  std::rewind(log);
  std::string line;
  char buf[512];
  while (std::fgets(buf, sizeof buf, log) != nullptr) {
    if (std::string(buf).rfind("audit", 0) == 0) line = buf;
  }
  std::fclose(log);
  return line;
}

// The oracle view of a churn run holds the cables the schedule has down, so
// a cut scheduled as a churn SRG scores exactly like the same cut given as
// the scenario's failure.
TEST(ChurnEngine, AuditSeesCablesTheScheduleHoldsDown) {
  const std::string failed = ring_cut_audit_line(/*cut_by_churn=*/false);
  ASSERT_NE(failed.find("samples"), std::string::npos) << failed;
  EXPECT_EQ(ring_cut_audit_line(/*cut_by_churn=*/true), failed);
}

}  // namespace
}  // namespace contra::sim
