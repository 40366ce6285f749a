// Canonical perf gate for the discrete-event core and the Contra probe
// protocol (see DESIGN.md, "Simulator performance architecture"). Each
// scenario is one run, and this binary is the one place its contract is
// enforced: a broken contract exits 1 before any report is written.
//
//   event_throughput — self-rescheduling timers; pure EventQueue
//       schedule/dispatch cost, no packets.
//   link_saturation  — two switches ping-ponging a window of packets over
//       one cable; the per-packet-hop path (enqueue, serialize, propagate,
//       deliver) with allocation accounting per hop.
//   probe_flood_nosuppress — a k=4 fat-tree running the Contra dataplane at
//       4x the paper's probe rate and no workload, under the paper's
//       periodic flood (every round a refresh round). Its delivery count is
//       the workload the other floods' probes_per_s normalize against.
//   probe_flood_periodic — the same flood under refresh-round suppression,
//       with a transport wired and a warm-up UDP burst through the fabric
//       but no trace sink, no flow tracker and path sampling off. Gates:
//       the always-on counters advance and the measured window does
//       exactly zero heap allocations.
//   probe_flood — the triggered engine (§12) on the same fabric. Gates:
//       at least 90% fewer probe deliveries than probe_flood_periodic over
//       the same window, the same usable-FwdT fixed point, and zero
//       allocations.
//   probe_failure_wave — one agg-core cable fails and recovers again and
//       again. Gate: the triggered failure and recovery waves cost fewer
//       deliveries than the periodic protocol's over the same window.
//   churn_waves — five rounds of four fault waves; both engines must return
//       to the all-links-up fixed point after every wave.
//   data_forwarding — long-lived TCP flows across the fabric; the data
//       path's cost per forwarded packet. Gate: zero allocations.
//   parallel_scaling — the flood on 4 shards at workers 1..8 (see below).
//   hybrid_fabric / hybrid_leaf_spine — the hybrid engine at scale (see
//       below).
//
// Every probe window also fails on any dense-table fallback. Every Contra
// scenario builds its network through ContraNet on a sim::ParallelSimulator
// (one shard, the serial engine, unless the scenario asks for more).
// link_saturation, the probe floods, the failure wave, churn_waves and
// data_forwarding size their simulated windows so that each measured window
// takes at least 50 ms of wall time in a Release build on a 2.1 GHz Xeon;
// shorter windows pass or fail a 10% throughput gate on noise.
//
// Emits machine-readable JSON (default BENCH_core.json), headed by the
// machine it ran on (cores, CPU model, build type);
// tools/compare_bench.py compares the throughput of two reports.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "compiler/compiler.h"
#include "dataplane/contra_switch.h"
#include "obs/telemetry.h"
#include "oracle/quiesce.h"
#include "sim/churn_engine.h"
#include "sim/fluid.h"
#include "sim/host.h"
#include "sim/parallel_simulator.h"
#include "sim/simulator.h"
#include "topology/generators.h"
#include "util/alloc_probe.h"
#include "workload/generator.h"

CONTRA_DEFINE_COUNTING_ALLOC_HOOKS()

namespace contra::bench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[noreturn]] void fail(const char* scenario, const char* what) {
  std::fprintf(stderr, "%s: %s\n", scenario, what);
  std::exit(1);
}

struct ScenarioResult {
  std::string name;
  uint64_t events = 0;
  double wall_s = 0.0;
  double allocs_per_event = 0.0;

  // Probe-flood extras (has_probe_stats gates JSON emission). probes_per_s is
  // workload-normalized: the probe deliveries the *unsuppressed* protocol
  // performs for the simulated interval, divided by this run's wall time —
  // "same converged routing state, delivered faster". probes_received is the
  // raw delivery count actually processed (suppression shrinks it).
  bool has_probe_stats = false;
  uint64_t probes_received = 0;
  uint64_t probes_suppressed = 0;
  uint64_t dense_fallback_hits = 0;
  uint64_t workload_probes = 0;  ///< unsuppressed deliveries for the same interval
  double fwdt_lookup_ns = 0.0;   ///< measured only in probe_flood
  uint64_t usable_digest = 0;    ///< usable-FwdT fixed point at scenario end
  uint64_t forwarded = 0;        ///< data_forwarding: packets switches forwarded
  std::string extra_json;        ///< scenario-specific keys, emitted verbatim

  double events_per_sec() const { return wall_s > 0 ? events / wall_s : 0.0; }
  double probes_per_s() const {
    return wall_s > 0 ? workload_probes / wall_s : 0.0;
  }
  /// Fraction of the unsuppressed workload's deliveries elided network-wide.
  /// One advert-unchanged elision cancels the whole downstream flood subtree,
  /// so this is larger than the locally counted probes_suppressed / received.
  double probe_suppression_rate() const {
    return workload_probes > probes_received
               ? 1.0 - double(probes_received) / workload_probes
               : 0.0;
  }
};

// ---- event_throughput ------------------------------------------------------

ScenarioResult run_event_throughput(uint64_t total_events) {
  sim::EventQueue queue;
  // 64 interleaved periodic timers with co-prime-ish periods: the heap stays
  // populated and events arrive in nontrivial order.
  constexpr int kTimers = 64;
  uint64_t remaining = total_events;
  struct Timer {
    sim::EventQueue* queue;
    uint64_t* remaining;
    double period;
    void fire() {
      if (*remaining == 0) return;
      --*remaining;
      queue->schedule_in(period, [this] { fire(); });
    }
  };
  std::vector<Timer> timers(kTimers);
  for (int i = 0; i < kTimers; ++i) {
    timers[i] = Timer{&queue, &remaining, 1e-6 * (17 + i)};
    timers[i].fire();
  }
  const auto start = Clock::now();
  const uint64_t allocs_before = util::alloc_count();
  while (queue.step()) {
  }
  ScenarioResult result;
  result.name = "event_throughput";
  result.wall_s = seconds_since(start);
  result.events = queue.events_processed();
  result.allocs_per_event =
      result.events ? double(util::alloc_count() - allocs_before) / result.events : 0.0;
  return result;
}

// ---- link_saturation -------------------------------------------------------

/// Bounces every arriving packet straight back out on a fixed link.
class Bouncer : public sim::Device {
 public:
  explicit Bouncer(topology::LinkId out) : out_(out) {}
  void handle_packet(sim::Simulator& sim, sim::Packet&& packet,
                     topology::LinkId) override {
    ++bounced;
    sim.send_on_link(out_, std::move(packet));
  }
  const char* kind_name() const override { return "bouncer"; }
  uint64_t bounced = 0;

 private:
  topology::LinkId out_;
};

ScenarioResult run_link_saturation(double sim_seconds) {
  const topology::Topology topo = topology::line(2);
  sim::ParallelSimulator engine(topo, sim::SimConfig{});  // one shard
  sim::Simulator& sim = engine.shard_sim(0);
  const topology::LinkId l01 = topo.link_between(0, 1);
  const topology::LinkId l10 = topo.link_between(1, 0);
  auto b0 = std::make_unique<Bouncer>(l01);
  auto b1 = std::make_unique<Bouncer>(l10);
  Bouncer* counter = b1.get();
  sim.install_switch(0, std::move(b0));
  sim.install_switch(1, std::move(b1));

  // A window of packets in flight keeps the link busy both directions.
  for (int i = 0; i < 32; ++i) {
    sim::Packet p;
    p.id = sim.next_packet_id();
    p.size_bytes = 1500;
    sim.send_on_link(l01, std::move(p));
  }
  // Warm up pools, event-queue lanes and link rings before counting.
  engine.run_until(sim_seconds * 0.1);
  const uint64_t events_before = engine.events_processed();
  const uint64_t hops_before = counter->bounced;
  const uint64_t allocs_before = util::alloc_count();
  const auto start = Clock::now();
  engine.run_until(sim_seconds * 1.1);
  ScenarioResult result;
  result.name = "link_saturation";
  result.wall_s = seconds_since(start);
  result.events = engine.events_processed() - events_before;
  const uint64_t hops = counter->bounced - hops_before;
  result.allocs_per_event =
      hops ? double(util::alloc_count() - allocs_before) / hops : 0.0;
  return result;
}

// ---- the Contra network every probe scenario runs --------------------------

constexpr const char* kFloodPolicy = "minimize((path.len, path.util))";

topology::Topology fat_tree4() {
  return topology::fat_tree(4, topology::LinkParams{10e9, 1e-6});
}

/// 4x the paper's probe rate: a deliberate flood.
dataplane::ContraSwitchOptions flood_options(bool triggered = false) {
  dataplane::ContraSwitchOptions options;
  options.probe_period_s = 64e-6;
  options.triggered_updates = triggered;
  return options;
}

/// A compiled policy with a Contra switch on every node of a
/// sim::ParallelSimulator: one shard, the serial engine, unless `config`
/// asks for more. Hosts and transports attach to `sim` afterwards.
struct ContraNet {
  ContraNet(topology::Topology t, const char* policy,
            const dataplane::ContraSwitchOptions& options, sim::SimConfig config = {})
      : topo(std::move(t)),
        compiled(compiler::compile(policy, topo)),
        evaluator(compiled.graph, compiled.decomposition),
        sim(topo, config) {
    sim.for_each_shard([&](sim::Simulator& shard) {
      const auto installed =
          dataplane::install_contra_network(shard, compiled, evaluator, options);
      switches.insert(switches.end(), installed.begin(), installed.end());
    });
  }

  uint64_t usable_digest() const {
    const std::vector<const dataplane::ContraSwitch*> view(switches.begin(), switches.end());
    return oracle::usable_fwdt_digest(view, sim.now());
  }

  topology::Topology topo;
  compiler::CompileResult compiled;
  pg::PolicyEvaluator evaluator;
  sim::ParallelSimulator sim;
  std::vector<dataplane::ContraSwitch*> switches;
};

/// Counter deltas over one measured window of a one-shard ContraNet.
struct FloodWindow {
  uint64_t events = 0;
  double wall_s = 0.0;
  uint64_t allocs = 0;
  uint64_t probes = 0;
  uint64_t suppressed = 0;
  uint64_t fallbacks = 0;
  uint64_t forwarded = 0;  ///< data and ACK packets switches forwarded
  uint64_t digest = 0;  ///< usable-FwdT fixed point at the window's end
};

/// Runs `net` to `end` and measures the window. A dense-table fallback means
/// a probe key escaped the compiled FwdT universe — a compiler/dataplane
/// contract break, so it fails the binary.
FloodWindow measure_window(const char* scenario, ContraNet& net, sim::Time end) {
  const obs::Telemetry& tel = net.sim.shard_sim(0).telemetry();
  const obs::CoreMetrics& core = tel.core();
  const obs::MetricsRegistry& metrics = tel.metrics();
  const uint64_t events_before = net.sim.events_processed();
  const uint64_t probes_before = metrics.value(core.probes_received);
  const uint64_t suppressed_before = metrics.value(core.probes_suppressed);
  const uint64_t fallback_before = metrics.value(core.dense_fallback_hits);
  const uint64_t forwarded_before = metrics.value(core.data_forwarded);
  const uint64_t allocs_before = util::alloc_count();
  const auto start = Clock::now();
  net.sim.run_until(end);
  FloodWindow w;
  w.allocs = util::alloc_count() - allocs_before;
  w.wall_s = seconds_since(start);
  w.events = net.sim.events_processed() - events_before;
  w.probes = metrics.value(core.probes_received) - probes_before;
  w.suppressed = metrics.value(core.probes_suppressed) - suppressed_before;
  w.fallbacks = metrics.value(core.dense_fallback_hits) - fallback_before;
  w.forwarded = metrics.value(core.data_forwarded) - forwarded_before;
  w.digest = net.usable_digest();
  if (w.fallbacks != 0) {
    std::fprintf(stderr, "%s: dense_fallback_hits=%llu (want 0)\n", scenario,
                 static_cast<unsigned long long>(w.fallbacks));
    std::exit(1);
  }
  return w;
}

void require_zero_allocs(const char* scenario, const FloodWindow& w) {
  if (w.allocs != 0) {
    std::fprintf(stderr, "%s: %llu allocations in measured window (want 0)\n", scenario,
                 static_cast<unsigned long long>(w.allocs));
    std::exit(1);
  }
}

/// `workload_probes` 0 normalizes the run against its own deliveries.
ScenarioResult flood_result(const char* name, const FloodWindow& w, uint64_t workload_probes) {
  ScenarioResult result;
  result.name = name;
  result.events = w.events;
  result.wall_s = w.wall_s;
  result.allocs_per_event = w.events ? double(w.allocs) / w.events : 0.0;
  result.has_probe_stats = true;
  result.probes_received = w.probes;
  result.probes_suppressed = w.suppressed;
  result.dense_fallback_hits = w.fallbacks;
  result.workload_probes = workload_probes ? workload_probes : w.probes;
  result.usable_digest = w.digest;
  return result;
}

// ---- probe floods ----------------------------------------------------------
//
// Each flood warms up for `warm_s` (tables converge, pools and probe fan-out
// paths fill) and measures the next `window_s`. All three floods measure
// windows of one length: the unsuppressed flood's deliveries are the
// workload the others normalize against, and probe_flood's reduction is
// taken against probe_flood_periodic over the same window.

/// Times ContraSwitch::fwd_entry over the switch's full compiled key universe
/// (every (dst, tag, pid) the dense index addresses), ~2M lookups. A volatile
/// sink defeats dead-code elimination.
double measure_fwdt_lookup_ns(const dataplane::ContraSwitch& sw,
                              const compiler::DenseFwdIndex& dense) {
  const uint64_t universe = dense.num_rows();
  if (universe == 0) return 0.0;
  const uint64_t passes = std::max<uint64_t>(1, 2'000'000 / universe);
  volatile uintptr_t sink = 0;
  const auto start = Clock::now();
  for (uint64_t p = 0; p < passes; ++p) {
    for (topology::NodeId dst : dense.destinations) {
      for (uint32_t tag : dense.slot_tags) {
        for (uint32_t pid = 0; pid < dense.num_pids; ++pid) {
          sink = sink + reinterpret_cast<uintptr_t>(sw.fwd_entry(dst, tag, pid));
        }
      }
    }
  }
  const double wall = seconds_since(start);
  return wall * 1e9 / double(passes * universe);
}

/// The paper's periodic flood: every round a refresh round, no suppression.
ScenarioResult run_probe_flood_nosuppress(double warm_s, double window_s) {
  dataplane::ContraSwitchOptions options = flood_options();
  options.suppress_refresh_rounds = 1;
  ContraNet net(fat_tree4(), kFloodPolicy, options);
  net.sim.start();
  net.sim.run_until(warm_s);
  return flood_result("probe_flood_nosuppress",
                      measure_window("probe_flood_nosuppress", net, warm_s + window_s),
                      /*workload_probes=*/0);
}

/// Refresh-round suppression with the dataplane observability machinery
/// wired up but off — the overhead contract. A transport is attached, so
/// every flow-telemetry hook branch (flow lifecycle, delivery accounting,
/// INT path stamping in Simulator::send_on_link) is present and reachable,
/// and a warm-up UDP burst pushes real data packets through the fabric. The
/// measured window — back at probe steady state, no trace sink, no
/// FlowTracker, path sampling off — must keep the always-on counters
/// advancing at exactly zero heap allocations.
ScenarioResult run_probe_flood_periodic(double warm_s, double window_s,
                                        uint64_t workload_probes) {
  constexpr const char* kName = "probe_flood_periodic";
  ContraNet net(fat_tree4(), kFloodPolicy, flood_options());
  const sim::HostId sender = net.sim.add_host(net.topo.find("e0_0"));
  const sim::HostId receiver = net.sim.add_host(net.topo.find("e1_1"));
  sim::ParallelTransport transport(net.sim);
  // Done and drained inside the warm-up window.
  transport.start_udp_flow(sender, receiver, /*rate_bps=*/200e6,
                           /*start_time=*/warm_s * 0.1,
                           /*stop_time=*/warm_s * 0.6);
  net.sim.start();
  net.sim.run_until(warm_s);
  if (transport.udp_bytes_received() == 0) fail(kName, "warm-up flow moved no data");

  const FloodWindow w = measure_window(kName, net, warm_s + window_s);
  if (w.probes == 0) fail(kName, "telemetry counters did not advance");
  if (transport.flow_tracking() || net.sim.shard_sim(0).telemetry().tracing()) {
    fail(kName, "unexpected sink attached");
  }
  require_zero_allocs(kName, w);
  return flood_result(kName, w, workload_probes);
}

/// The triggered engine (§12): the converged routing state of
/// probe_flood_periodic, held with keepalive-only steady traffic. Its
/// probes_per_s stays normalized to the unsuppressed workload — "the same
/// interval's routing protocol work, done in this much wall time".
ScenarioResult run_probe_flood(double warm_s, double window_s, uint64_t workload_probes,
                               const ScenarioResult& periodic) {
  constexpr const char* kName = "probe_flood";
  ContraNet net(fat_tree4(), kFloodPolicy, flood_options(/*triggered=*/true));
  net.sim.start();
  net.sim.run_until(warm_s);
  const FloodWindow w = measure_window(kName, net, warm_s + window_s);
  require_zero_allocs(kName, w);

  const double reduction =
      periodic.probes_received > 0 ? 1.0 - double(w.probes) / periodic.probes_received : 0.0;
  if (reduction < 0.9) {
    std::fprintf(stderr,
                 "%s: triggered reduction %.4f < 0.90 (periodic %llu probes, triggered %llu)\n",
                 kName, reduction, static_cast<unsigned long long>(periodic.probes_received),
                 static_cast<unsigned long long>(w.probes));
    std::exit(1);
  }
  // Same fabric, same policy: the triggered engine must land on the exact
  // usable-FwdT fixed point the periodic engine computes. A mismatch is a
  // protocol bug, not a perf regression.
  if (w.digest != periodic.usable_digest) {
    std::fprintf(stderr, "%s: triggered fixed point %016llx != periodic %016llx\n", kName,
                 static_cast<unsigned long long>(w.digest),
                 static_cast<unsigned long long>(periodic.usable_digest));
    std::exit(1);
  }

  ScenarioResult result = flood_result(kName, w, workload_probes);
  const dataplane::ContraSwitch& sw = *net.switches.front();
  result.fwdt_lookup_ns = measure_fwdt_lookup_ns(sw, net.compiled.switches[sw.node_id()].dense);
  char buf[160];
  std::snprintf(buf, sizeof buf,
                ", \"steady_state_reduction\": %.4f, \"digest_match\": true", reduction);
  result.extra_json = buf;
  return result;
}

// ---- probe_failure_wave ----------------------------------------------------
//
// After convergence, one agg-core cable flaps: it fails, recovers `wave_s`
// later, fails again `wave_s` after that, and so on for `cycles` cycles, so
// the whole measured window is failure and recovery waves.

FloodWindow run_failure_wave_mode(bool triggered, double converge_s, double wave_s,
                                  int cycles) {
  ContraNet net(fat_tree4(), kFloodPolicy, flood_options(triggered));
  sim::ChurnEngine churn(net.topo);
  churn.flap(net.topo.link_between(net.topo.find("a0_0"), net.topo.find("c0")), converge_s,
             wave_s, cycles);
  churn.arm(net.sim);
  net.sim.start();
  net.sim.run_until(converge_s);
  return measure_window("probe_failure_wave", net, converge_s + 2 * cycles * wave_s);
}

ScenarioResult run_probe_failure_wave(double converge_s, double wave_s, int cycles) {
  const FloodWindow periodic = run_failure_wave_mode(false, converge_s, wave_s, cycles);
  const FloodWindow trig = run_failure_wave_mode(true, converge_s, wave_s, cycles);

  if (trig.probes >= periodic.probes) {
    std::fprintf(stderr,
                 "probe_failure_wave: triggered waves (%llu probes) not cheaper "
                 "than periodic (%llu)\n",
                 static_cast<unsigned long long>(trig.probes),
                 static_cast<unsigned long long>(periodic.probes));
    std::exit(1);
  }

  ScenarioResult result = flood_result("probe_failure_wave", trig, periodic.probes);
  char buf[160];
  std::snprintf(buf, sizeof buf, ", \"wave_ratio\": %.4f, \"waves\": %d",
                periodic.probes ? double(trig.probes) / periodic.probes : 0.0, 2 * cycles);
  result.extra_json = buf;
  return result;
}

// ---- churn_waves -----------------------------------------------------------
//
// Adversarial churn acceptance (DESIGN.md §13): a strictly monotonic policy
// on the k=4 fat-tree rides out rounds of four fault waves — a link flap, a
// whole-switch SRG, a gray failure, and a control-plane restart — and must
// return to the all-links-up usable-FwdT fixed point after every wave, under
// both the periodic and the triggered engine. A wave that fails to
// reconverge fails the binary: this scenario is first a correctness gate
// (the reconvergence contract under churn) and only then a perf number.
// Five rounds (20 waves) keep the triggered engine's measured window above
// 50 ms.

constexpr int kChurnRounds = 5;

struct ChurnModeRun {
  uint64_t events = 0;
  double wall_s = 0.0;
  uint64_t digest = 0;  ///< all-links-up fixed point, re-verified per wave
};

ChurnModeRun run_churn_mode(bool triggered, double converge_s, double wave_s) {
  constexpr int kWaves = 4 * kChurnRounds;
  dataplane::ContraSwitchOptions options = flood_options(triggered);
  if (triggered) {
    // Short keepalive window so every protocol timing window (restart's
    // version-reset escape and the scaled metric expiry included) fits well
    // inside one wave.
    options.keepalive_rounds = 4;
    options.holddown_periods = 2.0;
  }
  ContraNet net(fat_tree4(), kFloodPolicy, options);
  const topology::Topology& topo = net.topo;
  net.sim.start();
  net.sim.run_until(converge_s);
  const uint64_t baseline = net.usable_digest();

  const auto link = [&](const char* a, const char* b) {
    return topo.link_between(topo.find(a), topo.find(b));
  };
  sim::ChurnEngine churn(topo);
  sim::GrayParams gray;
  gray.loss_prob = 0.3;
  gray.extra_delay_s = 50e-6;
  gray.capacity_factor = 0.5;
  for (int round = 0; round < kChurnRounds; ++round) {
    const double w0 = converge_s + 4 * round * wave_s;
    churn.flap(link("e0_0", "a0_0"), w0 + 0.05 * wave_s, 0.1 * wave_s, 2);
    const double w1 = w0 + wave_s;
    churn.srg_switch(topo.find("a0_0"), w1 + 0.05 * wave_s, w1 + 0.45 * wave_s);
    const double w2 = w0 + 2 * wave_s;
    churn.gray(link("a0_1", "c2"), w2 + 0.05 * wave_s, w2 + 0.45 * wave_s, gray);
    const double w3 = w0 + 3 * wave_s;
    churn.restart(topo.find("a1_0"), w3 + 0.05 * wave_s);
  }
  churn.arm(net.sim);

  const uint64_t events_before = net.sim.events_processed();
  const auto start = Clock::now();
  for (int wave = 0; wave < kWaves; ++wave) {
    net.sim.run_until(converge_s + (wave + 1) * wave_s);
    const uint64_t digest = net.usable_digest();
    if (digest != baseline) {
      std::fprintf(stderr,
                   "churn_waves: %s engine did not reconverge after wave %d "
                   "(%016llx vs baseline %016llx)\n",
                   triggered ? "triggered" : "periodic", wave,
                   static_cast<unsigned long long>(digest),
                   static_cast<unsigned long long>(baseline));
      std::exit(1);
    }
  }
  ChurnModeRun run;
  run.wall_s = seconds_since(start);
  run.events = net.sim.events_processed() - events_before;
  run.digest = baseline;
  return run;
}

ScenarioResult run_churn_waves(double sim_seconds) {
  // Floors sized to the slowest protocol window in play: the triggered
  // engine's scaled metric expiry (12 periods x keepalive_rounds x 64 us ~=
  // 3.1 ms) must fit between a wave's last restore and its digest check.
  const double converge_s = std::max(3e-3, sim_seconds * 0.15);
  const double wave_s = std::max(8e-3, sim_seconds * 0.2);
  const ChurnModeRun periodic = run_churn_mode(false, converge_s, wave_s);
  const ChurnModeRun trig = run_churn_mode(true, converge_s, wave_s);
  // Strictly monotonic policy => unique fixed point: both engines must land
  // on the same all-links-up digest they each reconverged to per wave.
  if (periodic.digest != trig.digest) {
    std::fprintf(stderr,
                 "churn_waves: triggered fixed point %016llx != periodic %016llx\n",
                 static_cast<unsigned long long>(trig.digest),
                 static_cast<unsigned long long>(periodic.digest));
    std::exit(1);
  }
  ScenarioResult result;
  result.name = "churn_waves";
  result.events = trig.events;
  result.wall_s = trig.wall_s;
  result.allocs_per_event = 0.0;
  result.usable_digest = trig.digest;
  result.extra_json = ", \"waves\": " + std::to_string(4 * kChurnRounds) +
                      ", \"modes\": 2, \"digest_match\": true";
  return result;
}

// ---- data_forwarding -------------------------------------------------------
//
// The data path's layer cost (ROADMAP aim 1): one long-lived TCP flow from
// every edge switch to the edge switch half the fabric away, under the
// paper's default probe period. Every hop runs source selection or the
// flowlet lookup, the loop-accounting window, a link enqueue and delivery,
// and at the hosts the TCP endpoints. Shallow 64-packet buffers give each
// flow a regular loss-and-recovery sawtooth, so within the warm-up every
// flat table and link FIFO reaches the capacity it keeps. The window then
// reports wall ns per forwarded packet (data and ACK packets through
// switches; probes, links and hosts included in the wall time) and fails on
// any allocation.

ScenarioResult run_data_forwarding(double warm_s, double window_s) {
  constexpr const char* kName = "data_forwarding";
  sim::SimConfig config;
  config.queue_capacity_bytes = 64 * 1500;
  ContraNet net(fat_tree4(), kFloodPolicy, dataplane::ContraSwitchOptions{}, config);
  const std::vector<sim::HostId> hosts = sim::attach_hosts_to_fat_tree_edges(net.sim, 1);
  sim::ParallelTransport transport(net.sim);
  for (size_t i = 0; i < hosts.size(); ++i) {
    transport.start_flow(hosts[i], hosts[(i + hosts.size() / 2) % hosts.size()],
                         /*bytes=*/uint64_t{1} << 40, /*start_time=*/1e-3);
  }
  net.sim.start();
  net.sim.run_until(warm_s);
  const FloodWindow w = measure_window(kName, net, warm_s + window_s);
  if (w.forwarded == 0) fail(kName, "no data packets forwarded");
  require_zero_allocs(kName, w);

  ScenarioResult result;
  result.name = kName;
  result.events = w.events;
  result.wall_s = w.wall_s;
  result.allocs_per_event = 0.0;
  result.forwarded = w.forwarded;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                ", \"forwarded\": %llu, \"ns_per_forwarded\": %.1f, \"forwarded_per_s\": %.0f",
                static_cast<unsigned long long>(w.forwarded), w.wall_s * 1e9 / w.forwarded,
                w.forwarded / w.wall_s);
  result.extra_json = buf;
  return result;
}

// ---- parallel_scaling ------------------------------------------------------
//
// The probe flood on the sharded parallel engine (DESIGN.md §8), workers
// 1..8 at a fixed shard count. Reported under its own top-level JSON key —
// deliberately outside "scenarios", so compare_bench.py never compares
// machine-dependent thread scaling. Bit-identity across worker counts is a
// hard contract and fails the binary. So is an 8-worker speedup below 2x,
// but only on a machine with at least 8 cores: with fewer, the workers
// time-slice one another and the speedup measures the scheduler.

struct ScalingRun {
  uint32_t workers = 0;
  uint64_t events = 0;
  double wall_s = 0.0;
  double allocs_per_event = 0.0;
  uint64_t digest = 0;  ///< per-link traffic digest: the determinism check

  double events_per_sec() const { return wall_s > 0 ? events / wall_s : 0.0; }
};

ScalingRun run_parallel_probe_flood(uint32_t workers, uint32_t shards, double sim_seconds) {
  sim::SimConfig config;
  config.workers = workers;
  config.shards = shards;
  ContraNet net(fat_tree4(), kFloodPolicy, flood_options(), config);
  sim::ParallelSimulator& psim = net.sim;
  psim.start();

  psim.run_until(sim_seconds * 0.1);  // warm-up: pools, mailboxes, heaps
  const uint64_t events_before = psim.events_processed();
  const uint64_t allocs_before = util::alloc_count();
  const auto start = Clock::now();
  psim.run_until(sim_seconds * 1.1);
  const uint64_t allocs = util::alloc_count() - allocs_before;

  ScalingRun run;
  run.workers = workers;
  run.wall_s = seconds_since(start);
  run.events = psim.events_processed() - events_before;
  run.allocs_per_event = run.events ? double(allocs) / run.events : 0.0;
  uint64_t h = 1469598103934665603ull;  // FNV-1a over merged link traffic
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(run.events);
  for (topology::LinkId id = 0; id < net.topo.num_links(); ++id) {
    uint64_t tx_packets = 0, tx_bytes = 0, drops = 0;
    for (uint32_t s = 0; s < psim.num_shards(); ++s) {
      const sim::LinkStats& ls = psim.shard_sim(s).link(id).stats();
      tx_packets += ls.tx_packets;
      tx_bytes += ls.tx_bytes;
      drops += ls.drops;
    }
    mix(tx_packets);
    mix(tx_bytes);
    mix(drops);
  }
  run.digest = h;
  return run;
}

std::string run_parallel_scaling(double sim_seconds) {
  constexpr uint32_t kShards = 4;
  std::vector<ScalingRun> runs;
  for (const uint32_t workers : {1u, 2u, 4u, 8u}) {
    runs.push_back(run_parallel_probe_flood(workers, kShards, sim_seconds));
  }
  for (const ScalingRun& run : runs) {
    if (run.digest != runs.front().digest || run.events != runs.front().events) {
      fail("parallel_scaling", "worker counts disagree — determinism broken");
    }
  }

  const unsigned cores = std::thread::hardware_concurrency();
  const double speedup_w4 =
      runs[2].wall_s > 0 ? runs[0].wall_s / runs[2].wall_s : 0.0;
  const double speedup_w8 =
      runs[3].wall_s > 0 ? runs[0].wall_s / runs[3].wall_s : 0.0;
  const bool speedup_informational = cores < 4;
  for (const ScalingRun& run : runs) {
    std::printf("parallel_scaling w=%u %9llu events  %8.4f s  %12.0f ev/s  %.4f allocs/event\n",
                run.workers, static_cast<unsigned long long>(run.events), run.wall_s,
                run.events_per_sec(), run.allocs_per_event);
  }
  std::printf(
      "parallel_scaling: bit-identical across workers, speedup(w4)=%.2fx "
      "speedup(w8)=%.2fx on %u cores%s\n",
      speedup_w4, speedup_w8, cores,
      speedup_informational ? " (informational: workers exceed cores)" : "");
  if (cores >= 8 && speedup_w8 < 2.0) {
    std::fprintf(stderr, "parallel_scaling: speedup_w8=%.2fx < 2.0x on %u cores\n", speedup_w8,
                 cores);
    std::exit(1);
  }

  std::ostringstream os;
  os << "{\n    \"shards\": " << kShards << ",\n    \"hardware_concurrency\": " << cores
     << ",\n    \"speedup_w4\": " << speedup_w4 << ",\n    \"speedup_w8\": " << speedup_w8
     << ",\n    \"speedup_informational\": " << (speedup_informational ? "true" : "false");
  os << ",\n    \"runs\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    const ScalingRun& run = runs[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "      {\"workers\": %u, \"events\": %llu, \"wall_s\": %.6f, "
                  "\"events_per_sec\": %.0f, \"allocs_per_event\": %.4f, "
                  "\"digest\": \"%016llx\"}%s\n",
                  run.workers, static_cast<unsigned long long>(run.events), run.wall_s,
                  run.events_per_sec(), run.allocs_per_event,
                  static_cast<unsigned long long>(run.digest),
                  i + 1 < runs.size() ? "," : "");
    os << buf;
  }
  os << "    ]\n  }";
  return os.str();
}

// ---- hybrid_fabric / hybrid_leaf_spine -------------------------------------
//
// The production-scale hybrid-engine gate (DESIGN.md §14): a fat-tree k=16
// (and a datacenter leaf-spine) carrying a streamed million-flow workload
// where bulk flows advance at flow level and a deterministic 1-in-n subset
// stays packet-level. Three hard gates, each an exit-1 failure:
//
//   * event ratio — the measured window must process >= min_event_ratio x
//     fewer events than the projected pure packet-level cost of the same
//     workload (ceil(bytes/mss) data packets + as many ACKs, each crossing
//     the flow's topology-exact hop count at 2 events per link-hop);
//   * bounded RSS — the scenario's peak resident set stays under its
//     ceiling. Each scenario runs in its own child process, forked before
//     this process has grown, and its peak is the child's ru_maxrss;
//   * zero-alloc steady state — with a settled all-fluid flow set, a window
//     of rate-recomputation quanta performs exactly zero heap allocations.

struct HybridScaleSpec {
  const char* name = "";
  topology::Topology (*topo)() = nullptr;
  uint64_t target_flows = 0;
  uint32_t sample_every = 256;   ///< 1-in-n flows kept packet-level
  double min_event_ratio = 50.0;
  uint64_t rss_ceiling_mib = 0;
  /// Topology-exact link hops for a host pair (including both host links) —
  /// the projection's per-flow multiplier.
  uint32_t (*hops)(sim::HostId, sim::HostId) = nullptr;
};

/// What a hybrid scale run reports back from its child process (plain data,
/// written whole through a pipe).
struct HybridScaleRun {
  uint64_t events = 0;
  double wall_s = 0.0;
  uint64_t flows = 0;
  uint64_t fluid_flows = 0;
  uint64_t projected = 0;
  double ratio = 0.0;
  uint64_t window_allocs = 0;
  uint64_t fluid_ticks = 0;
  uint64_t digest = 0;
};

HybridScaleRun run_hybrid_scale(const HybridScaleSpec& spec) {
  dataplane::ContraSwitchOptions options;
  options.probe_period_s = 1024e-6;
  options.triggered_updates = true;
  // One keepalive flood on a k=16 fabric is ~1.3M probe deliveries (320
  // origins x fabric-wide reach); at the default 33 ms cadence the liveness
  // backstop, not the workload, would dominate the event count. Half a
  // second is still far tighter than production routing keepalives.
  options.keepalive_rounds = 512;
  ContraNet net(spec.topo(), "minimize(path.len)", options);
  sim::ParallelSimulator& sim = net.sim;
  std::vector<sim::HostId> hosts = sim::attach_hosts_to_fat_tree_edges(sim, 2);
  if (hosts.empty()) hosts = sim::attach_hosts_to_leaves(sim, 2);

  sim::TransportConfig tconfig;
  tconfig.hybrid = true;
  tconfig.hybrid_sample_every = spec.sample_every;
  sim::ParallelTransport transport(sim, tconfig);
  sim.start();

  std::vector<sim::HostId> senders, receivers;
  for (sim::HostId h : hosts) (h % 2 ? receivers : senders).push_back(h);

  const workload::EmpiricalCdf& sizes = workload::web_search_flow_sizes();
  workload::WorkloadConfig wl;
  wl.load = 0.5;
  wl.sender_capacity_bps = 10e9 / 4;
  wl.start = 100 * options.probe_period_s;
  wl.seed = 1;
  wl.size_scale = 0.01;
  // Arrival rate is load * capacity / mean_flow_bits per sender (the
  // generator's own formula): size the window so the stream emits
  // ~target_flows arrivals.
  const double bits_per_flow = sizes.mean_bytes() * 8.0 * wl.size_scale;
  const double arrivals_per_s =
      double(senders.size()) * wl.load * wl.sender_capacity_bps / bits_per_flow;
  wl.duration = double(spec.target_flows) / arrivals_per_s;
  workload::FlowStream stream(sizes, senders, receivers, wl);

  sim.run_until(wl.start);  // control-plane convergence, pools, dense tables

  constexpr uint64_t kMss = 1460;
  uint64_t projected = 0;
  const uint64_t events_before = sim.events_processed();
  const auto start = Clock::now();
  workload::GeneratedFlow flow;
  const double end = wl.start + wl.duration;
  const double chunk = std::max(wl.duration / 256, 1e-3);
  while (stream.next_start() < end) {
    const double window = stream.next_start() + chunk;
    while (stream.next_start() < window) {
      stream.next(&flow);
      const uint64_t pkts = (flow.bytes + kMss - 1) / kMss;
      // Pure packet-level projection: data packets plus per-packet ACKs,
      // each crossing every link of the flow's path at 2 events per hop.
      projected += pkts * 2 * spec.hops(flow.src, flow.dst) * 2;
      transport.start_flow(flow.src, flow.dst, flow.bytes, flow.start);
    }
    sim.run_until(std::min(end, window));
  }
  sim.run_until(end);
  // Drain: analytic fluid tails plus the sampled packet-level subset.
  sim::FluidEngine* fluid = transport.fluid_engine();
  for (int i = 0; i < 400; ++i) {
    if (fluid->active_flows() == 0 && transport.completed_flows().size() == stream.emitted()) {
      break;
    }
    sim.run_until(sim.now() + 5e-3);
  }
  if (transport.completed_flows().size() != stream.emitted()) {
    std::fprintf(stderr, "%s: %zu of %llu flows completed after drain\n", spec.name,
                 transport.completed_flows().size(),
                 static_cast<unsigned long long>(stream.emitted()));
    std::exit(1);
  }

  HybridScaleRun run;
  run.wall_s = seconds_since(start);
  run.events = sim.events_processed() - events_before;
  // A pure packet-level run keeps the identical control plane but replaces
  // the fluid flows with full per-packet cost (fluid ticks run between
  // engine spans, not as events):
  //   pure = actual − sampled-subset data events + projected.
  // The sampled subset is statistically 1/n of the same projection.
  const sim::FluidStats& fs = fluid->stats();
  const double sampled_est = double(projected) / double(spec.sample_every);
  const double pure_events = double(run.events) - sampled_est + double(projected);
  run.ratio = run.events ? pure_events / double(run.events) : 0.0;
  if (run.ratio < spec.min_event_ratio) {
    std::fprintf(stderr, "%s: event ratio %.1fx < %.0fx (projected %llu, actual %llu)\n",
                 spec.name, run.ratio, spec.min_event_ratio,
                 static_cast<unsigned long long>(projected),
                 static_cast<unsigned long long>(run.events));
    std::exit(1);
  }
  run.flows = stream.emitted();
  run.fluid_flows = fs.flows_completed;
  run.projected = projected;
  run.fluid_ticks = fs.ticks;
  run.digest = fluid->completion_digest();

  // Steady-state zero-alloc window: park a fixed all-fluid flow set (bytes
  // far beyond the window, no admissions, no completions) and let the engine
  // tick; once warm, a rate-recomputation quantum must allocate nothing.
  transport.shard_transport(0).use_fluid(fluid, 0);
  const double quantum = transport.config().fluid_quantum_s;
  const double t0 = sim.now() + 1e-3;
  for (uint32_t i = 0; i < 512; ++i) {
    transport.start_flow(senders[i % senders.size()], receivers[(i * 7 + 3) % receivers.size()],
                         uint64_t(1) << 40, t0 + double(i) * 1e-7);
  }
  sim.run_until(t0 + 16 * quantum);  // admit + warm the water-fill scratch
  const uint64_t allocs_before = util::alloc_count();
  sim.run_until(t0 + 80 * quantum);
  run.window_allocs = util::alloc_count() - allocs_before;
  if (run.window_allocs != 0) {
    std::fprintf(stderr, "%s: %llu allocations in steady-state fluid window (want 0)\n",
                 spec.name, static_cast<unsigned long long>(run.window_allocs));
    std::exit(1);
  }
  return run;
}

/// Runs one hybrid scale scenario in a forked child and applies the RSS
/// gate to the child's peak resident set. Call it while this process is
/// still small and single-threaded: the child's peak includes what it
/// inherited at the fork.
ScenarioResult run_hybrid_scale_isolated(const HybridScaleSpec& spec) {
  std::fflush(stdout);
  std::fflush(stderr);
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("pipe");
    std::exit(1);
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(1);
  }
  if (pid == 0) {
    close(fds[0]);
    const HybridScaleRun run = run_hybrid_scale(spec);
    const bool sent = write(fds[1], &run, sizeof run) == static_cast<ssize_t>(sizeof run);
    std::fflush(stdout);
    std::fflush(stderr);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  HybridScaleRun run;
  const bool received = read(fds[0], &run, sizeof run) == static_cast<ssize_t>(sizeof run);
  close(fds[0]);
  int status = 0;
  rusage usage{};
  const bool reaped = wait4(pid, &status, 0, &usage) == pid;
  if (!reaped || !received || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "%s: child run failed\n", spec.name);
    std::exit(1);
  }
  const uint64_t rss_mib = static_cast<uint64_t>(usage.ru_maxrss) / 1024;  // ru_maxrss is KiB
  if (rss_mib > spec.rss_ceiling_mib) {
    std::fprintf(stderr, "%s: peak RSS %llu MiB exceeds the %llu MiB ceiling\n", spec.name,
                 static_cast<unsigned long long>(rss_mib),
                 static_cast<unsigned long long>(spec.rss_ceiling_mib));
    std::exit(1);
  }

  ScenarioResult result;
  result.name = spec.name;
  result.events = run.events;
  result.wall_s = run.wall_s;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                ", \"flows\": %llu, \"fluid_flows\": %llu, \"packet_flows\": %llu, "
                "\"projected_packet_events\": %llu, \"event_ratio\": %.1f, "
                "\"rss_peak_mib\": %llu, \"rss_ceiling_mib\": %llu, "
                "\"steady_window_allocs\": %llu, \"fluid_ticks\": %llu, "
                "\"fluid_digest\": \"%016llx\"",
                static_cast<unsigned long long>(run.flows),
                static_cast<unsigned long long>(run.fluid_flows),
                static_cast<unsigned long long>(run.flows - run.fluid_flows),
                static_cast<unsigned long long>(run.projected), run.ratio,
                static_cast<unsigned long long>(rss_mib),
                static_cast<unsigned long long>(spec.rss_ceiling_mib),
                static_cast<unsigned long long>(run.window_allocs),
                static_cast<unsigned long long>(run.fluid_ticks),
                static_cast<unsigned long long>(run.digest));
  result.extra_json = buf;

  std::printf("%s: %llu flows, %.1fx fewer events than packet-level projection, "
              "RSS %llu MiB (ceiling %llu), steady window 0 allocs\n",
              spec.name, static_cast<unsigned long long>(run.flows), run.ratio,
              static_cast<unsigned long long>(rss_mib),
              static_cast<unsigned long long>(spec.rss_ceiling_mib));
  return result;
}

// Host h sits on edge/leaf switch h/2 (attach order, 2 hosts per switch).
// Fat-tree k=16: 8 edge switches per pod; same edge = 2 links, same pod = 4,
// inter-pod via core = 6 (host links included).
uint32_t fat_tree16_hops(sim::HostId a, sim::HostId b) {
  const uint32_t ea = a / 2, eb = b / 2;
  if (ea == eb) return 2;
  return ea / 8 == eb / 8 ? 4 : 6;
}

// Leaf-spine: same leaf = 2 links, otherwise leaf-spine-leaf = 4.
uint32_t leaf_spine_hops(sim::HostId a, sim::HostId b) {
  return a / 2 == b / 2 ? 2 : 4;
}

// ---- driver ----------------------------------------------------------------

// The machine a report was measured on: throughput compares only between
// reports from the same cores, CPU model and build type.
std::string machine_json() {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t start = line.find_first_not_of(" \t", line.find(':') + 1);
    if (start != std::string::npos) model = line.substr(start);
    break;
  }
  std::string escaped;
  for (const char c : model) {
    if (c == '"' || c == '\\') escaped += '\\';
    escaped += c;
  }
  std::ostringstream os;
  os << "{\"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ", \"cpu_model\": \"" << escaped << "\", \"build_type\": \"" << CONTRA_BUILD_TYPE
     << "\"}";
  return os.str();
}

void write_json(const std::string& path, const std::string& label,
                const std::vector<ScenarioResult>& results, const std::string& scaling_blob) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"bench\": \"core_speed\",\n";
  out << "  \"label\": \"" << label << "\",\n";
  out << "  \"machine\": " << machine_json() << ",\n";
  out << "  \"scenarios\": {\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "    \"%s\": {\"events\": %llu, \"wall_s\": %.6f, "
                  "\"events_per_sec\": %.0f, \"allocs_per_event\": %.4f",
                  r.name.c_str(), static_cast<unsigned long long>(r.events), r.wall_s,
                  r.events_per_sec(), r.allocs_per_event);
    out << buf;
    if (r.has_probe_stats) {
      std::snprintf(buf, sizeof buf,
                    ", \"probes_received\": %llu, \"probes_suppressed\": %llu, "
                    "\"workload_probes\": %llu, \"probes_per_s\": %.0f, "
                    "\"probe_suppression_rate\": %.4f, \"dense_fallback_hits\": %llu",
                    static_cast<unsigned long long>(r.probes_received),
                    static_cast<unsigned long long>(r.probes_suppressed),
                    static_cast<unsigned long long>(r.workload_probes), r.probes_per_s(),
                    r.probe_suppression_rate(),
                    static_cast<unsigned long long>(r.dense_fallback_hits));
      out << buf;
      if (r.fwdt_lookup_ns > 0.0) {
        std::snprintf(buf, sizeof buf, ", \"fwdt_lookup_ns\": %.2f", r.fwdt_lookup_ns);
        out << buf;
      }
    }
    out << r.extra_json;
    out << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  }";
  if (!scaling_blob.empty()) out << ",\n  \"parallel_scaling\": " << scaling_blob;
  out << "\n}\n";

  std::ofstream file(path);
  file << out.str();
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

int main(int argc, char** argv) {
  std::string out_path = "BENCH_core.json";
  std::string label = "core";
  int repeats = 3;
  uint64_t timer_events = 2'000'000;
  double sim_seconds = 20e-3;
  bool run_scaling = true;
  bool run_hybrid = true;
  uint64_t hybrid_flows = 1'000'000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--out") out_path = next();
    else if (arg == "--label") label = next();
    else if (arg == "--repeats") repeats = std::atoi(next());
    else if (arg == "--events") timer_events = std::strtoull(next(), nullptr, 10);
    else if (arg == "--sim-seconds") sim_seconds = std::atof(next());
    else if (arg == "--no-scaling") run_scaling = false;
    else if (arg == "--no-hybrid") run_hybrid = false;
    else if (arg == "--hybrid-flows") hybrid_flows = std::strtoull(next(), nullptr, 10);
    else {
      std::fprintf(stderr,
                   "usage: bench_core_speed [--out file] [--label name] [--repeats n] "
                   "[--events n] [--sim-seconds s] [--no-scaling] [--no-hybrid] "
                   "[--hybrid-flows n]\n");
      return 2;
    }
  }

  // The hybrid scale scenarios run once, outside best-of-N: convergence on
  // the k=16 fabric dominates their setup and repeating a million-flow run
  // buys no extra signal for a gate that is primarily about correctness
  // (ratio, RSS, allocs) rather than wall-clock. They run first, each in a
  // child forked while this process is small, so each reports its own peak
  // RSS; their results join the report after the best-of-N scenarios.
  std::vector<ScenarioResult> hybrid;
  if (run_hybrid) {
    HybridScaleSpec fabric;
    fabric.name = "hybrid_fabric";
    fabric.topo = [] { return topology::fat_tree(16, topology::LinkParams{10e9, 1e-6}); };
    fabric.target_flows = hybrid_flows;
    fabric.rss_ceiling_mib = 4096;
    fabric.hops = fat_tree16_hops;
    hybrid.push_back(run_hybrid_scale_isolated(fabric));

    HybridScaleSpec leaf;
    leaf.name = "hybrid_leaf_spine";
    leaf.topo = [] { return topology::leaf_spine(64, 32, topology::LinkParams{10e9, 1e-6}); };
    leaf.target_flows = std::max<uint64_t>(hybrid_flows / 4, 10'000);
    leaf.rss_ceiling_mib = 2048;
    leaf.hops = leaf_spine_hops;
    hybrid.push_back(run_hybrid_scale_isolated(leaf));
  }

  // Simulated windows, in units of --sim-seconds (default 20 ms). The probe
  // floods and the failure wave measure long windows because the triggered
  // engine sends so few probes: probe_flood covers 800 ms of simulated time,
  // the failure wave 64 fail-and-recover cycles of 12 ms. data_forwarding
  // warms up for 50 ms, several loss sawtooth periods of its flows.
  // link_saturation runs 800 ms: a bare link moves 30M events/s.
  const double flood_warm_s = sim_seconds * 0.1;
  const double flood_window_s = sim_seconds * 40;
  const double wave_converge_s = sim_seconds * 0.4;
  const double wave_s = sim_seconds * 0.3;
  constexpr int kWaveCycles = 64;
  const double forwarding_warm_s = sim_seconds * 2.5;
  const double forwarding_window_s = sim_seconds * 0.25;

  // Best-of-N: wall-clock noise only ever slows a run down.
  std::vector<ScenarioResult> best;
  for (int rep = 0; rep < repeats; ++rep) {
    std::vector<ScenarioResult> round;
    round.push_back(run_event_throughput(timer_events));
    round.push_back(run_link_saturation(sim_seconds * 40));
    // The unsuppressed flood runs first: its (deterministic) delivery count is
    // the workload numerator for the other floods' probes_per_s.
    round.push_back(run_probe_flood_nosuppress(flood_warm_s, flood_window_s));
    const uint64_t workload_probes = round.back().probes_received;
    const ScenarioResult periodic =
        run_probe_flood_periodic(flood_warm_s, flood_window_s, workload_probes);
    round.push_back(periodic);
    round.push_back(run_probe_flood(flood_warm_s, flood_window_s, workload_probes, periodic));
    round.push_back(run_probe_failure_wave(wave_converge_s, wave_s, kWaveCycles));
    round.push_back(run_churn_waves(sim_seconds));
    round.push_back(run_data_forwarding(forwarding_warm_s, forwarding_window_s));
    if (best.empty()) {
      best = round;
    } else {
      for (size_t i = 0; i < round.size(); ++i) {
        if (round[i].wall_s < best[i].wall_s) best[i] = round[i];
      }
    }
  }

  best.insert(best.end(), hybrid.begin(), hybrid.end());

  for (const ScenarioResult& r : best) {
    std::printf("%-25s %9llu events  %8.4f s  %12.0f ev/s  %.4f allocs/event\n",
                r.name.c_str(), static_cast<unsigned long long>(r.events), r.wall_s,
                r.events_per_sec(), r.allocs_per_event);
    if (r.has_probe_stats) {
      std::printf("%-25s %9llu probes  %12.0f probes/s  suppression %.1f%%  "
                  "fallback %llu  fwdt %.2f ns/lookup\n",
                  "", static_cast<unsigned long long>(r.probes_received), r.probes_per_s(),
                  100.0 * r.probe_suppression_rate(),
                  static_cast<unsigned long long>(r.dense_fallback_hits), r.fwdt_lookup_ns);
    }
    if (r.forwarded > 0) {
      std::printf("%-25s %9llu forwarded  %8.1f ns/packet  %12.0f packets/s\n", "",
                  static_cast<unsigned long long>(r.forwarded), r.wall_s * 1e9 / r.forwarded,
                  r.forwarded / r.wall_s);
    }
  }

  // The worker sweep measures 80 ms of simulated time, so its one-worker run
  // times about 100 ms and the 4-worker run at least 50 ms on 4 cores.
  const std::string scaling_blob = run_scaling ? run_parallel_scaling(sim_seconds * 4) : "";
  write_json(out_path, label, best, scaling_blob);
  return 0;
}

}  // namespace
}  // namespace contra::bench

int main(int argc, char** argv) { return contra::bench::main(argc, argv); }
