// Observability subsystem: metrics registry, trace records and sinks,
// convergence tracking, run manifests, env-driven log levels — plus an
// integration run that pins the full instrumented pipeline for a fixed
// configuration.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "compiler/compiler.h"
#include "dataplane/contra_switch.h"
#include "lang/policies.h"
#include "obs/convergence.h"
#include "obs/manifest.h"
#include "obs/metrics_registry.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "sim/host.h"
#include "sim/simulator.h"
#include "sim/transport.h"
#include "topology/generators.h"
#include "util/alloc_probe.h"
#include "util/logging.h"

namespace contra {
namespace {

// ----- metrics registry -----------------------------------------------------

TEST(MetricsRegistry, CountersGaugesHistograms) {
  obs::MetricsRegistry reg;
  const uint32_t used_by_core = reg.slots_used();  // fresh registry: 0
  EXPECT_EQ(used_by_core, 0u);

  const obs::CounterId c = reg.counter("packets");
  const obs::GaugeId g = reg.gauge("queue_depth");
  const obs::HistogramId h = reg.histogram("latency_us", {1.0, 10.0, 100.0});

  reg.add(c);
  reg.add(c, 4);
  EXPECT_EQ(reg.value(c), 5u);

  reg.set(g, 17);
  reg.set(g, 3);
  EXPECT_EQ(reg.value(g), 3u);

  reg.observe(h, 0.5);    // bucket 0 (<= 1.0)
  reg.observe(h, 1.0);    // bucket 0 (bounds are inclusive upper edges)
  reg.observe(h, 50.0);   // bucket 2
  reg.observe(h, 1e9);    // overflow bucket
  EXPECT_EQ(h.num_buckets, 4u);
  EXPECT_EQ(reg.bucket_value(h, 0), 2u);
  EXPECT_EQ(reg.bucket_value(h, 1), 0u);
  EXPECT_EQ(reg.bucket_value(h, 2), 1u);
  EXPECT_EQ(reg.bucket_value(h, 3), 1u);
  EXPECT_EQ(reg.histogram_total(h), 4u);
}

TEST(MetricsRegistry, SlotExhaustionThrowsLoudly) {
  obs::MetricsRegistry reg;
  for (uint32_t i = 0; i < obs::MetricsRegistry::kMaxSlots; ++i) {
    reg.counter(std::string("c").append(std::to_string(i)));
  }
  EXPECT_EQ(reg.slots_used(), obs::MetricsRegistry::kMaxSlots);
  EXPECT_THROW(reg.counter("one_too_many"), std::length_error);
}

TEST(MetricsRegistry, SnapshotJsonIsOneCompleteLine) {
  obs::MetricsRegistry reg;
  const obs::CounterId c = reg.counter("hits");
  reg.gauge("depth");  // left at zero on purpose: snapshots keep stable keys
  reg.add(c, 7);
  const std::string snap = reg.snapshot_json(1.5);
  EXPECT_EQ(snap.find('\n'), std::string::npos);
  EXPECT_NE(snap.find("\"hits\":7"), std::string::npos);
  EXPECT_NE(snap.find("\"depth\":0"), std::string::npos);
  EXPECT_NE(snap.find("\"t\":1.5"), std::string::npos);
}

TEST(Telemetry, CoreMetricsRegisterAndEmitGates) {
  obs::Telemetry tel;
  EXPECT_FALSE(tel.tracing());
  tel.metrics().add(tel.core().probes_received);
  EXPECT_EQ(tel.metrics().value(tel.core().probes_received), 1u);

  // emit() without a sink is a no-op; with one, records arrive.
  tel.emit({0.1, obs::Ev::kProbeRx});
  obs::MemoryTraceSink sink;
  tel.set_sink(&sink);
  EXPECT_TRUE(tel.tracing());
  tel.emit({0.2, obs::Ev::kRouteFlip});
  tel.set_sink(nullptr);
  tel.emit({0.3, obs::Ev::kDrop});
  ASSERT_EQ(sink.records().size(), 1u);
  EXPECT_EQ(sink.records()[0].ev, obs::Ev::kRouteFlip);
}

// ----- trace records and JSONL ---------------------------------------------

TEST(Trace, EvNamesRoundTrip) {
  for (size_t i = 0; i < obs::kNumEv; ++i) {
    const auto ev = static_cast<obs::Ev>(i);
    const auto back = obs::ev_from_name(obs::ev_name(ev));
    ASSERT_TRUE(back.has_value()) << obs::ev_name(ev);
    EXPECT_EQ(*back, ev);
  }
  EXPECT_FALSE(obs::ev_from_name("not_an_event").has_value());
}

TEST(Trace, JsonlRoundTripPreservesFields) {
  obs::TraceRecord r;
  r.t = 0.00123456789;
  r.ev = obs::Ev::kProbeAccept;
  r.sw = 3;
  r.dst = 12;
  r.tag = 1;
  r.pid = 2;
  r.link = 40;
  r.aux = 7;
  r.version = 99;
  r.value = 2.5;

  char line[obs::kMaxLineBytes];
  const size_t n = obs::format_jsonl(r, line);
  ASSERT_GT(n, 0u);
  const auto parsed = obs::parse_jsonl_line(std::string_view(line, n));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->t, r.t);
  EXPECT_EQ(parsed->ev, r.ev);
  EXPECT_EQ(parsed->sw, r.sw);
  EXPECT_EQ(parsed->dst, r.dst);
  EXPECT_EQ(parsed->tag, r.tag);
  EXPECT_EQ(parsed->pid, r.pid);
  EXPECT_EQ(parsed->link, r.link);
  EXPECT_EQ(parsed->aux, r.aux);
  EXPECT_EQ(parsed->version, r.version);
  EXPECT_DOUBLE_EQ(parsed->value, r.value);
}

TEST(Trace, JsonlOmitsAbsentFields) {
  obs::TraceRecord r;
  r.t = 1.0;
  r.ev = obs::Ev::kLinkDown;
  r.link = 5;  // everything else stays at its sentinel / zero default
  char line[obs::kMaxLineBytes];
  const size_t n = obs::format_jsonl(r, line);
  const std::string_view text(line, n);
  EXPECT_NE(text.find("\"ev\":\"link_down\""), std::string_view::npos);
  EXPECT_NE(text.find("\"link\":5"), std::string_view::npos);
  EXPECT_EQ(text.find("\"sw\""), std::string_view::npos);
  EXPECT_EQ(text.find("\"dst\""), std::string_view::npos);

  const auto parsed = obs::parse_jsonl_line(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->sw, obs::kNoField);
  EXPECT_EQ(parsed->dst, obs::kNoField);
  EXPECT_EQ(parsed->link, 5u);
}

TEST(Trace, ReadJsonlSkipsAndCountsMalformedLines) {
  std::stringstream stream;
  obs::TraceRecord r;
  r.t = 0.5;
  r.ev = obs::Ev::kProbeRx;
  r.sw = 1;
  obs::JsonlTraceSink sink(stream);
  sink.write(r);
  stream << "this is not json\n";
  stream << "{\"t\":1.0,\"ev\":\"no_such_event\"}\n";
  r.t = 0.75;
  sink.write(r);
  sink.flush();
  EXPECT_EQ(sink.records_written(), 2u);

  size_t bad = 0;
  const std::vector<obs::TraceRecord> records = obs::read_jsonl(stream, &bad);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(bad, 2u);
  EXPECT_DOUBLE_EQ(records[0].t, 0.5);
  EXPECT_DOUBLE_EQ(records[1].t, 0.75);
}

TEST(Trace, FanoutDuplicatesToEverySink) {
  obs::MemoryTraceSink a, b;
  obs::FanoutSink fanout;
  fanout.add(&a);
  fanout.add(&b);
  fanout.write({1.0, obs::Ev::kDrop});
  fanout.write({2.0, obs::Ev::kDrop});
  EXPECT_EQ(a.records().size(), 2u);
  EXPECT_EQ(b.records().size(), 2u);
}

// ----- convergence tracker --------------------------------------------------

obs::TraceRecord flip(double t, uint32_t dst) {
  obs::TraceRecord r;
  r.t = t;
  r.ev = obs::Ev::kRouteFlip;
  r.sw = 0;
  r.dst = dst;
  return r;
}

TEST(Convergence, PerDestinationQuiescenceAndReconvergence) {
  obs::ConvergenceTracker tracker;
  tracker.observe(flip(0.001, 8));
  tracker.observe(flip(0.002, 8));
  tracker.observe(flip(0.0015, 9));

  obs::TraceRecord down;
  down.t = 0.010;
  down.ev = obs::Ev::kLinkDown;
  down.link = 3;
  tracker.observe(down);

  tracker.observe(flip(0.012, 8));
  tracker.observe(flip(0.013, 8));

  const obs::ConvergenceTracker::Report report = tracker.report();
  EXPECT_EQ(report.total_records, 6u);
  EXPECT_EQ(report.count(obs::Ev::kRouteFlip), 5u);
  EXPECT_DOUBLE_EQ(report.first_failure_at, 0.010);
  ASSERT_EQ(report.destinations.size(), 2u);

  const obs::ConvergenceTracker::DestReport& d8 = report.destinations[0];
  EXPECT_EQ(d8.dst, 8u);
  EXPECT_EQ(d8.flips, 4u);
  EXPECT_DOUBLE_EQ(d8.first_route_at, 0.001);
  EXPECT_DOUBLE_EQ(d8.quiesced_at, 0.013);
  EXPECT_EQ(d8.post_failure_flips, 2u);
  EXPECT_NEAR(d8.reconvergence_s, 0.003, 1e-12);

  const obs::ConvergenceTracker::DestReport& d9 = report.destinations[1];
  EXPECT_EQ(d9.dst, 9u);
  EXPECT_EQ(d9.flips, 1u);
  EXPECT_EQ(d9.post_failure_flips, 0u);
  EXPECT_DOUBLE_EQ(d9.reconvergence_s, -1.0);  // never flipped after failure

  EXPECT_NE(report.to_string().find("first failure"), std::string::npos);
}

TEST(Convergence, ReplayFromJsonlMatchesLiveTracking) {
  // The tracker must not care whether records arrive live or from a file.
  obs::ConvergenceTracker live;
  std::stringstream stream;
  obs::JsonlTraceSink file(stream);
  obs::FanoutSink fanout;
  fanout.add(&live);
  fanout.add(&file);

  fanout.write(flip(0.001, 4));
  obs::TraceRecord down;
  down.t = 0.002;
  down.ev = obs::Ev::kFailureDetect;
  down.sw = 1;
  down.link = 9;
  fanout.write(down);
  fanout.write(flip(0.003, 4));

  obs::ConvergenceTracker replayed;
  replayed.observe_all(obs::read_jsonl(stream));
  EXPECT_EQ(replayed.report().to_string(), live.report().to_string());
}

// ----- run manifest ---------------------------------------------------------

TEST(Manifest, HashCoversConfigButNotBuild) {
  obs::RunManifest m = obs::RunManifest::make("contrasim");
  EXPECT_FALSE(m.build_type.empty());
  EXPECT_FALSE(m.compiler.empty());
  m.topology = "fat-tree:4";
  m.plane = "contra";
  m.policy = "minimize(path.util)";
  m.seed = 1;

  obs::RunManifest same = m;
  same.build_type = "different-build";
  same.compiler = "different-compiler";
  EXPECT_EQ(m.config_hash(), same.config_hash());

  obs::RunManifest reseeded = m;
  reseeded.seed = 2;
  EXPECT_NE(m.config_hash(), reseeded.config_hash());
  EXPECT_NE(m.canonical_config(), reseeded.canonical_config());
}

TEST(Manifest, JsonHasRequiredFieldsAndWrites) {
  obs::RunManifest m = obs::RunManifest::make("contrasim");
  m.topology = "fat-tree:4";
  m.plane = "contra";
  m.seed = 42;
  m.duration_s = 0.01;
  const std::string json = m.to_json();
  for (const char* key : {"\"schema\"", "\"tool\"", "\"topology\"", "\"nodes\"",
                          "\"links\"", "\"plane\"", "\"seed\"", "\"duration_s\"",
                          "\"config_hash\"", "\"build\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }

  const std::string path = ::testing::TempDir() + "obs_manifest_test.json";
  ASSERT_TRUE(m.write(path));
  std::ifstream in(path);
  std::stringstream read_back;
  read_back << in.rdbuf();
  EXPECT_EQ(read_back.str(), json);
  std::filesystem::remove(path);
}

TEST(Manifest, PathConvention) {
  EXPECT_EQ(obs::manifest_path_for("run/trace.jsonl"), "run/trace.manifest.json");
  EXPECT_EQ(obs::manifest_path_for("trace.bin"), "trace.bin.manifest.json");
}

// ----- log level from environment -------------------------------------------

TEST(Logging, ParseLogLevelNames) {
  using util::LogLevel;
  EXPECT_EQ(util::parse_log_level("trace"), LogLevel::kTrace);
  EXPECT_EQ(util::parse_log_level("DEBUG"), LogLevel::kDebug);
  EXPECT_EQ(util::parse_log_level("Info"), LogLevel::kInfo);
  EXPECT_EQ(util::parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(util::parse_log_level("warning"), LogLevel::kWarn);
  EXPECT_EQ(util::parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(util::parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(util::parse_log_level("none"), LogLevel::kOff);
  EXPECT_FALSE(util::parse_log_level("loud").has_value());
  EXPECT_FALSE(util::parse_log_level("").has_value());
}

TEST(Logging, InitFromEnvironment) {
  const util::LogLevel saved = util::log_level();
  ::setenv("CONTRA_LOG_LEVEL", "error", 1);
  EXPECT_EQ(util::init_log_level_from_env(), util::LogLevel::kError);
  EXPECT_EQ(util::log_level(), util::LogLevel::kError);

  ::setenv("CONTRA_LOG_LEVEL", "not-a-level", 1);
  EXPECT_FALSE(util::init_log_level_from_env().has_value());
  EXPECT_EQ(util::log_level(), util::LogLevel::kError);  // unchanged

  ::unsetenv("CONTRA_LOG_LEVEL");
  EXPECT_FALSE(util::init_log_level_from_env().has_value());
  util::set_log_level(saved);
}

// ----- instrumented pipeline integration ------------------------------------

struct TracedRun {
  obs::MemoryTraceSink trace;
  obs::ConvergenceTracker convergence;
  uint64_t probes_received = 0;
  uint64_t probes_accepted = 0;
  uint64_t route_flips = 0;
  double fail_time = 0.0;
};

// Probe-only fat-tree k=4 run with one edge→agg cable failure mid-run. No
// workload and no randomness: every event — and therefore every trace
// record — is a deterministic function of this configuration.
std::unique_ptr<TracedRun> run_traced_failover() {
  auto out = std::make_unique<TracedRun>();
  const topology::Topology topo =
      topology::fat_tree(4, topology::LinkParams{10e9, 1e-6});
  const compiler::CompileResult compiled =
      compiler::compile(lang::policies::shortest_widest(), topo);
  const pg::PolicyEvaluator evaluator(compiled.graph, compiled.decomposition);

  sim::Simulator sim(topo, sim::SimConfig{});
  dataplane::ContraSwitchOptions options;
  options.probe_period_s = 256e-6;
  dataplane::install_contra_network(sim, compiled, evaluator, options);

  obs::FanoutSink fanout;
  fanout.add(&out->trace);
  fanout.add(&out->convergence);
  sim.telemetry().set_sink(&fanout);

  sim.start();
  sim.run_until(5e-3);
  sim.fail_cable(topo.link_between(topo.find("e0_0"), topo.find("a0_0")));
  out->fail_time = sim.now();
  sim.run_until(10e-3);

  const obs::Telemetry& tel = sim.telemetry();
  out->probes_received = tel.metrics().value(tel.core().probes_received);
  out->probes_accepted = tel.metrics().value(tel.core().probes_accepted);
  out->route_flips = tel.metrics().value(tel.core().route_flips);
  sim.telemetry().set_sink(nullptr);
  return out;
}

TEST(ObsIntegration, TracedFailoverReportsReconvergence) {
  const std::unique_ptr<TracedRun> run = run_traced_failover();

  // Counters and trace agree with each other.
  std::array<uint64_t, obs::kNumEv> counts{};
  for (const obs::TraceRecord& r : run->trace.records()) {
    ++counts[static_cast<size_t>(r.ev)];
  }
  EXPECT_EQ(counts[static_cast<size_t>(obs::Ev::kProbeRx)], run->probes_received);
  EXPECT_EQ(counts[static_cast<size_t>(obs::Ev::kProbeAccept)], run->probes_accepted);
  EXPECT_EQ(counts[static_cast<size_t>(obs::Ev::kRouteFlip)], run->route_flips);
  EXPECT_EQ(counts[static_cast<size_t>(obs::Ev::kLinkDown)], 1u);
  EXPECT_GT(run->probes_received, 0u);
  EXPECT_GT(run->route_flips, 0u);

  // The convergence tracker saw the failure and at least one destination
  // re-converged after it, within the detection window.
  const obs::ConvergenceTracker::Report report = run->convergence.report();
  EXPECT_DOUBLE_EQ(report.first_failure_at, run->fail_time);
  EXPECT_FALSE(report.destinations.empty());
  bool any_reconverged = false;
  for (const auto& d : report.destinations) {
    if (d.reconvergence_s >= 0) {
      any_reconverged = true;
      EXPECT_LT(d.reconvergence_s, 5e-3);  // well before the run ends
    }
  }
  EXPECT_TRUE(any_reconverged);
}

TEST(ObsIntegration, TracedFailoverRecordCountsArePinned) {
  // Full determinism: the same configuration must yield byte-identical
  // traces, run to run and build to build. Golden counts pinned from the
  // first verified run; a diff here means the control-plane behaviour (or
  // its instrumentation) changed — either fix the regression or re-pin
  // with the change that justifies it.
  const std::unique_ptr<TracedRun> run = run_traced_failover();
  const obs::ConvergenceTracker::Report report = run->convergence.report();
  // Re-pinned when probe delta-suppression landed: probe traffic roughly
  // halves (suppress_refresh_rounds=2), origination is unchanged.
  EXPECT_EQ(run->trace.records().size(), 42418u);
  EXPECT_EQ(report.count(obs::Ev::kProbeOrig), 2560u);
  EXPECT_EQ(report.count(obs::Ev::kProbeRx), 19696u);
  EXPECT_EQ(report.count(obs::Ev::kProbeAccept), 7980u);
  EXPECT_EQ(report.count(obs::Ev::kProbeRejectRank), 10520u);
  EXPECT_GT(report.count(obs::Ev::kProbeSuppress), 0u);
  EXPECT_EQ(report.count(obs::Ev::kDenseFallback), 0u);
  EXPECT_EQ(report.count(obs::Ev::kRouteFlip), 45u);
  EXPECT_EQ(report.count(obs::Ev::kLinkDown), 1u);
  EXPECT_EQ(report.count(obs::Ev::kDrop), 420u);

  // And the run is exactly repeatable within one process.
  const std::unique_ptr<TracedRun> again = run_traced_failover();
  EXPECT_EQ(again->trace.records().size(), run->trace.records().size());
  EXPECT_EQ(again->convergence.report().to_string(), report.to_string());
}

TEST(ObsIntegration, SteadyStateWithCountersOnlyIsAllocationFree) {
  // The telemetry contract: counters always on, and with no sink attached
  // the warmed-up probe loop performs zero heap allocations.
  const topology::Topology topo =
      topology::fat_tree(4, topology::LinkParams{10e9, 1e-6});
  const compiler::CompileResult compiled =
      compiler::compile(lang::policies::shortest_widest(), topo);
  const pg::PolicyEvaluator evaluator(compiled.graph, compiled.decomposition);

  sim::Simulator sim(topo, sim::SimConfig{});
  dataplane::ContraSwitchOptions options;
  options.probe_period_s = 128e-6;
  dataplane::install_contra_network(sim, compiled, evaluator, options);
  sim.start();
  sim.run_until(4e-3);  // warm-up: tables converge, pools fill

  const uint64_t probes_before =
      sim.telemetry().metrics().value(sim.telemetry().core().probes_received);
  const uint64_t allocs_before = util::alloc_count();
  sim.run_until(8e-3);
  EXPECT_EQ(util::alloc_count() - allocs_before, 0u);
  EXPECT_GT(sim.telemetry().metrics().value(sim.telemetry().core().probes_received),
            probes_before);
}

// One warmed-up fat-tree run with a transport attached and a UDP stream over
// [1ms, 5ms). Returns (allocations during the active-flow window 2-4ms,
// allocations during the post-flow probe-only window 6.5-9ms, UDP bytes).
struct DataPathAllocs {
  uint64_t active_window = 0;
  uint64_t quiet_window = 0;
  uint64_t udp_bytes = 0;
};

DataPathAllocs run_data_path_alloc_probe(bool flow_telemetry) {
  const topology::Topology topo =
      topology::fat_tree(4, topology::LinkParams{10e9, 1e-6});
  const compiler::CompileResult compiled =
      compiler::compile(lang::policies::shortest_widest(), topo);
  const pg::PolicyEvaluator evaluator(compiled.graph, compiled.decomposition);

  sim::Simulator sim(topo, sim::SimConfig{});
  const std::vector<sim::HostId> senders =
      sim::attach_hosts(sim, {topo.find("e0_0")});
  const std::vector<sim::HostId> receivers =
      sim::attach_hosts(sim, {topo.find("e1_1")});
  dataplane::ContraSwitchOptions options;
  options.probe_period_s = 128e-6;
  dataplane::install_contra_network(sim, compiled, evaluator, options);
  sim::TransportManager transport(sim);
  sim.set_flow_telemetry(flow_telemetry);
  transport.start_udp_flow(senders[0], receivers[0], /*rate_bps=*/200e6,
                           /*start_time=*/1e-3, /*stop_time=*/5e-3);
  sim.start();
  sim.run_until(2e-3);  // warm-up: tables converge, pools fill

  DataPathAllocs out;
  uint64_t before = util::alloc_count();
  sim.run_until(4e-3);
  out.active_window = util::alloc_count() - before;
  sim.run_until(6.5e-3);  // flow ends at 5ms; let in-flight packets drain
  before = util::alloc_count();
  sim.run_until(9e-3);
  out.quiet_window = util::alloc_count() - before;
  out.udp_bytes = transport.udp_bytes_received();
  return out;
}

TEST(ObsIntegration, FlowTelemetryHookSitesAddZeroAllocations) {
  // The zero-allocation contract of the data path (DESIGN.md §6), with no
  // FlowTracker attached and path sampling off:
  //  * while the UDP stream crosses the fabric, forwarding its packets
  //    (source pins, flowlet pins, the loop-accounting window) allocates
  //    nothing;
  //  * once the data flow ends, the probe loop with a transport attached
  //    (hook branches present but disabled) is back to zero allocations;
  //  * turning path-signature stamping on (set_flow_telemetry) adds exactly
  //    zero allocations to the data path.
  const DataPathAllocs off = run_data_path_alloc_probe(false);
  const DataPathAllocs on = run_data_path_alloc_probe(true);
  EXPECT_GT(off.udp_bytes, 0u);
  EXPECT_EQ(off.udp_bytes, on.udp_bytes);
  EXPECT_EQ(off.active_window, 0u);
  EXPECT_EQ(on.active_window, 0u);
  EXPECT_EQ(off.quiet_window, 0u);
  EXPECT_EQ(on.quiet_window, 0u);
}

// One long TCP flow from e0_0 to e1_1 on the UDP probe's fabric, with
// 64-packet link buffers: the flow runs a regular loss-and-recovery sawtooth
// (a burst of drops about every 10 ms), so out-of-order arrivals, their
// drain, fast retransmits and RTT samples all recur. Returns the counts of
// the window [warm_up_s, warm_up_s + window_s].
struct TcpWindowAllocs {
  uint64_t allocs = 0;
  uint64_t forwarded = 0;  ///< data and ACK hops through switches
  uint64_t fast_retx = 0;
};

TcpWindowAllocs run_tcp_alloc_probe(double warm_up_s, double window_s) {
  const topology::Topology topo =
      topology::fat_tree(4, topology::LinkParams{10e9, 1e-6});
  const compiler::CompileResult compiled =
      compiler::compile(lang::policies::shortest_widest(), topo);
  const pg::PolicyEvaluator evaluator(compiled.graph, compiled.decomposition);

  sim::SimConfig config;
  config.queue_capacity_bytes = 64 * 1500;
  sim::Simulator sim(topo, config);
  const std::vector<sim::HostId> senders =
      sim::attach_hosts(sim, {topo.find("e0_0")});
  const std::vector<sim::HostId> receivers =
      sim::attach_hosts(sim, {topo.find("e1_1")});
  dataplane::ContraSwitchOptions options;
  options.probe_period_s = 128e-6;
  dataplane::install_contra_network(sim, compiled, evaluator, options);
  sim::TransportManager transport(sim);
  transport.start_flow(senders[0], receivers[0], /*bytes=*/uint64_t{1} << 40,
                       /*start_time=*/1e-3);
  sim.start();
  sim.run_until(warm_up_s);

  const obs::Telemetry& tel = sim.telemetry();
  const uint64_t forwarded_before = tel.metrics().value(tel.core().data_forwarded);
  const uint64_t fast_retx_before = tel.metrics().value(tel.core().tcp_fast_retx);
  const uint64_t allocs_before = util::alloc_count();
  sim.run_until(warm_up_s + window_s);
  TcpWindowAllocs out;
  out.allocs = util::alloc_count() - allocs_before;
  out.forwarded = tel.metrics().value(tel.core().data_forwarded) - forwarded_before;
  out.fast_retx = tel.metrics().value(tel.core().tcp_fast_retx) - fast_retx_before;
  return out;
}

TEST(ObsIntegration, TcpDataPathIsAllocationFree) {
  // The zero-allocation contract for TCP endpoints and the switches they
  // cross: once every table has reached its working capacity, a window of
  // steady TCP traffic, loss recovery included, allocates nothing. The
  // warm-up is long because link FIFOs keep setting queue-depth records
  // (each one a RingQueue doubling) for the first few sawtooth periods;
  // the flat tables themselves settle within about 12 ms.
  const TcpWindowAllocs w = run_tcp_alloc_probe(/*warm_up_s=*/50e-3, /*window_s=*/10e-3);
  EXPECT_GE(w.forwarded, 10000u);
  EXPECT_GT(w.fast_retx, 0u);
  EXPECT_EQ(w.allocs, 0u);
}

}  // namespace
}  // namespace contra
