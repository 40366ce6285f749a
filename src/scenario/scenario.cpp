#include "scenario/scenario.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <fstream>
#include <memory>
#include <ostream>
#include <stdexcept>

#include "compiler/compiler.h"
#include "dataplane/ecmp_switch.h"
#include "dataplane/spain_switch.h"
#include "dataplane/static_switch.h"
#include "obs/convergence.h"
#include "obs/flow_tracker.h"
#include "obs/link_timeline.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "oracle/audit.h"
#include "sim/churn_engine.h"
#include "sim/fluid.h"
#include "sim/host.h"
#include "sim/parallel_simulator.h"

namespace contra::scenario {

const char* plane_flag(Plane plane) {
  switch (plane) {
    case Plane::kEcmp: return "ecmp";
    case Plane::kHula: return "hula";
    case Plane::kContra: return "contra";
    case Plane::kShortestPath: return "sp";
    case Plane::kSpain: return "spain";
  }
  return "?";
}

std::optional<Plane> parse_plane(const std::string& flag) {
  for (Plane plane :
       {Plane::kEcmp, Plane::kHula, Plane::kContra, Plane::kShortestPath, Plane::kSpain}) {
    if (flag == plane_flag(plane)) return plane;
  }
  return std::nullopt;
}

namespace {

/// Writes to the report log, when the scenario has one.
[[gnu::format(printf, 2, 3)]] void report(std::FILE* log, const char* format, ...) {
  if (log == nullptr) return;
  va_list args;
  va_start(args, format);
  std::vfprintf(log, format, args);
  va_end(args);
}

/// Opens `path` for writing; throws when it cannot.
void open_output(std::ofstream& out, const std::string& path, const char* what) {
  out.open(path);
  if (!out) throw std::runtime_error(std::string("cannot open ") + what + " file: " + path);
}

/// Samples util EWMA + queue depth for a fixed set of links into its own
/// LinkTimeline every interval; reschedules itself. The capture is a single
/// pointer so the handler stays within the event queue's inline capacity.
/// One sampler runs per shard over the links that shard owns, so shard
/// timelines stay disjoint and merge by union. Not copyable: a scheduled
/// tick holds its address.
struct LinkSampler {
  LinkSampler() = default;
  LinkSampler(const LinkSampler&) = delete;
  LinkSampler& operator=(const LinkSampler&) = delete;

  sim::Simulator* sim = nullptr;
  obs::LinkTimeline timeline;
  std::vector<topology::LinkId> links;
  double interval_s = 0.0;

  void tick() {
    const double t = sim->now();
    for (topology::LinkId l : links) {
      const sim::Link& link = sim->link(l);
      timeline.add(l, t, link.utilization(), link.queue_bytes());
    }
    arm();
  }
  void arm() {
    LinkSampler* self = this;
    sim->events().schedule_in(interval_s, [self] { self->tick(); });
  }
};

/// The compiled policy: built for the contra plane and for the optimality
/// audit, which scores sampled paths against it.
struct Policy {
  compiler::CompileResult compiled;
  std::unique_ptr<pg::PolicyEvaluator> evaluator;
};

void compile_policy(const Scenario& sc, Policy* policy) {
  if (sc.plane != Plane::kContra && !sc.out.audit) return;
  try {
    policy->compiled = compiler::compile(sc.policy, sc.topo);
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string("compile error: ") + e.what());
  }
  report(sc.out.log, "compiled: %s\n", policy->compiled.summary().c_str());
  policy->evaluator =
      std::make_unique<pg::PolicyEvaluator>(policy->compiled.graph, policy->compiled.decomposition);
}

/// Installs the plane on the switches one shard's `sim` owns.
void install_plane(sim::Simulator& sim, const Scenario& sc, const Policy& policy,
                   std::vector<dataplane::ContraSwitch*>* contra_switches) {
  switch (sc.plane) {
    case Plane::kContra: {
      dataplane::ContraSwitchOptions options = sc.contra;
      options.probe_period_s = std::max(options.probe_period_s, policy.compiled.min_probe_period_s);
      const auto installed =
          dataplane::install_contra_network(sim, policy.compiled, *policy.evaluator, options);
      contra_switches->insert(contra_switches->end(), installed.begin(), installed.end());
      break;
    }
    case Plane::kEcmp: dataplane::install_ecmp_network(sim); break;
    case Plane::kHula: dataplane::install_hula_network(sim, sc.hula); break;
    case Plane::kSpain: dataplane::install_spain_network(sim); break;
    case Plane::kShortestPath: dataplane::install_shortest_path_network(sim); break;
  }
}

void attach_hosts(sim::ParallelSimulator& engine, const Scenario& sc,
                  std::vector<sim::HostId>* senders, std::vector<sim::HostId>* receivers) {
  if (!sc.sender_switches.empty()) {
    *senders = sim::attach_hosts(engine, sc.sender_switches);
    *receivers = sim::attach_hosts(engine, sc.receiver_switches);
    return;
  }
  std::vector<sim::HostId> hosts = sim::attach_hosts_to_fat_tree_edges(engine, sc.hosts_per_edge);
  if (hosts.empty()) hosts = sim::attach_hosts_to_leaves(engine, sc.hosts_per_edge);
  if (hosts.empty()) {
    for (topology::NodeId n = 0; n < sc.topo.num_nodes(); ++n) hosts.push_back(engine.add_host(n));
  }
  for (sim::HostId h : hosts) (h % 2 ? receivers : senders)->push_back(h);
}

/// Starts a sampler over `links` of `sim`. Its ring covers the whole run so
/// the audit sees the traffic window (the ring only drops samples on runs
/// longer than planned).
std::unique_ptr<LinkSampler> start_link_sampler(sim::Simulator& sim,
                                                std::vector<topology::LinkId> links,
                                                const Scenario& sc, sim::Time run_end) {
  auto sampler = std::make_unique<LinkSampler>();
  sampler->sim = &sim;
  const auto capacity = static_cast<uint32_t>(run_end / sc.out.link_sample_s) + 32;
  sampler->timeline = obs::LinkTimeline(sim.topo().num_links(), capacity);
  sampler->links = std::move(links);
  sampler->interval_s = sc.out.link_sample_s;
  if (!sampler->links.empty()) sampler->arm();
  return sampler;
}

/// Scores the sampled dataplane paths against per-time-bucket routing
/// oracles fed the timeline's utilization view (quantized exactly like probe
/// adverts) plus the cables the failure and the churn schedule hold down.
/// Gray failures and drift stay out of the oracle's view. Reports the gated
/// fraction.
void run_optimality_audit(const Scenario& sc, const Policy& policy,
                          const obs::FlowTracker& tracker, const obs::LinkTimeline& timeline) {
  const topology::Topology& topo = sc.topo;
  std::vector<oracle::AuditSample> samples;
  samples.reserve(tracker.num_path_samples());
  for (const obs::PathSample& ps : tracker.sorted_path_samples()) {
    if (ps.truncated() || ps.nhops == 0) continue;
    oracle::AuditSample sample;
    sample.dst_switch = ps.dst_switch;
    sample.bytes = ps.bytes;
    sample.t = ps.t;
    sample.hop_links.reserve(ps.nhops);
    for (uint8_t i = 0; i < ps.nhops; ++i) sample.hop_links.push_back(ps.hops[i].link);
    samples.push_back(std::move(sample));
  }
  const double quantum = dataplane::ContraSwitchOptions{}.util_quantum;
  const auto state_at = [&](double t) {
    oracle::LinkState state = oracle::LinkState::all_up(topo);
    state.util.assign(topo.num_links(), 0.0);
    for (topology::LinkId l = 0; l < topo.num_links(); ++l) {
      state.util[l] = std::round(timeline.util_at(l, t) / quantum) * quantum;
    }
    if (sc.fail_link != topology::kInvalidLink && (sc.fail_at_s <= 0.0 || t >= sc.fail_at_s)) {
      state.fail_cable(topo, sc.fail_link);
    }
    if (sc.churn != nullptr) {
      for (topology::LinkId cable : sc.churn->cables_down_at(t)) state.fail_cable(topo, cable);
    }
    return state;
  };
  const oracle::AuditResult result = oracle::audit_paths(
      policy.compiled.graph, *policy.evaluator, samples, state_at, sc.out.audit_bucket_s);
  report(sc.out.log, "audit   : %s\n", result.to_string().c_str());
}

/// Writes the opt-in dataplane telemetry streams and the engine profile,
/// and runs the optimality audit.
void write_dataplane_outputs(const Scenario& sc, const Policy& policy,
                             const obs::FlowTracker& tracker,
                             const std::vector<std::unique_ptr<LinkSampler>>& samplers,
                             const obs::EngineProfiler* profiler) {
  const Outputs& out = sc.out;
  if (!out.flows_path.empty()) {
    const std::string summary_path = out.flows_path + ".summary.json";
    std::ofstream flows, summary;
    open_output(flows, out.flows_path, "--flows-out");
    tracker.write_flows_jsonl(flows);
    open_output(summary, summary_path, "flow summary");
    summary << tracker.summary_json() << "\n";
    report(out.log, "flows   : %zu records -> %s (summary: %s)\n", tracker.num_flows(),
           out.flows_path.c_str(), summary_path.c_str());
  }
  if (!out.paths_path.empty()) {
    std::ofstream paths;
    open_output(paths, out.paths_path, "--paths-out");
    tracker.write_paths_jsonl(paths);
    report(out.log, "paths   : %zu samples -> %s\n", tracker.num_path_samples(),
           out.paths_path.c_str());
  }
  obs::LinkTimeline timeline;
  for (const auto& sampler : samplers) timeline.merge_from(sampler->timeline);
  if (!out.links_path.empty()) {
    std::ofstream links;
    open_output(links, out.links_path, "--links-out");
    timeline.write_jsonl(links);
    report(out.log, "links   : timelines -> %s\n", out.links_path.c_str());
  }
  if (out.audit) run_optimality_audit(sc, policy, tracker, timeline);
  if (profiler != nullptr) {
    std::ofstream profile;
    open_output(profile, out.profile_path, "--engine-profile");
    profiler->write_chrome_trace(profile);
    report(out.log, "profile : %zu spans -> %s\n", profiler->num_spans(),
           out.profile_path.c_str());
  }
}

}  // namespace

/// The set-up order is fixed: hosts, failure, churn, trace, metrics, policy,
/// plane, workload, samplers, manifest.
Result run(const Scenario& sc) {
  const topology::Topology& topo = sc.topo;
  const Outputs& out = sc.out;
  const bool tracing = !out.trace_path.empty();
  const sim::Time traffic_end = sc.workload.start + sc.workload.duration;
  const sim::Time run_end = traffic_end + sc.drain_s;

  // Declared before the engine, which holds pointers into them.
  std::ofstream trace_file;
  obs::JsonlTraceSink trace_sink(trace_file);
  obs::ConvergenceTracker convergence;
  obs::FanoutSink fanout;
  std::unique_ptr<obs::EngineProfiler> profiler;

  sim::ParallelSimulator engine(topo, sc.sim);
  if (sc.sample_queues && engine.num_shards() > 1) {
    throw std::runtime_error("queue sampling needs one shard");
  }
  std::vector<sim::HostId> senders, receivers;
  attach_hosts(engine, sc, &senders, &receivers);
  if (senders.empty() || receivers.empty()) {
    throw std::runtime_error("topology too small to host traffic");
  }

  if (sc.fail_link != topology::kInvalidLink && sc.fail_at_s > 0) {
    engine.schedule_cable_event(sc.fail_at_s, sc.fail_link, /*down=*/true);
  } else if (sc.fail_link != topology::kInvalidLink) {
    // Before installing: static planes route on the degraded topology;
    // adaptive planes discover it through probes anyway.
    engine.fail_cable(sc.fail_link);
  }
  if (sc.churn != nullptr) sc.churn->arm(engine);

  if (tracing) {
    open_output(trace_file, out.trace_path, "--telemetry-out");
    fanout.add(&trace_sink);
    fanout.add(&convergence);
    engine.enable_tracing(&fanout);
  }
  if (out.metrics != nullptr && out.metrics_interval_s > 0) {
    engine.set_metrics_snapshots(out.metrics_interval_s, out.metrics);
  }

  Policy policy;
  compile_policy(sc, &policy);
  std::vector<dataplane::ContraSwitch*> contra_switches;
  engine.for_each_shard(
      [&](sim::Simulator& shard) { install_plane(shard, sc, policy, &contra_switches); });

  sim::ParallelTransport transport(engine, sc.transport);
  if (!out.flows_path.empty() || !out.paths_path.empty() || out.audit) {
    transport.enable_flow_tracking(out.path_sample_every);
  }
  // A Poisson flow list submitted up front, or a lazy stream the traffic
  // window pumps.
  std::unique_ptr<workload::FlowStream> stream;
  std::vector<workload::GeneratedFlow> flows;
  if (sc.stream) {
    stream = std::make_unique<workload::FlowStream>(*sc.sizes, senders, receivers, sc.workload);
  } else {
    flows = workload::generate_poisson(*sc.sizes, senders, receivers, sc.workload);
    workload::submit(transport, flows);
  }

  // Link samplers over the links each shard owns (transmit side): shard
  // timelines are disjoint, so the merged timeline is workers-invariant.
  std::vector<std::unique_ptr<LinkSampler>> samplers;
  if (!out.links_path.empty() || out.audit) {
    for (uint32_t s = 0; s < engine.num_shards(); ++s) {
      std::vector<topology::LinkId> links;
      for (topology::LinkId l = 0; l < topo.num_links(); ++l) {
        if (engine.shard_of_node(topo.link(l).from) == s) links.push_back(l);
      }
      samplers.push_back(start_link_sampler(engine.shard_sim(s), std::move(links), sc, run_end));
    }
  }

  // The three run windows become spans on the scheduler track; with more
  // than one shard the engine adds its own phase spans beside them.
  std::chrono::steady_clock::time_point profile_epoch;
  if (!out.profile_path.empty()) {
    profiler = std::make_unique<obs::EngineProfiler>(engine.num_shards() + 1);
    profile_epoch = std::chrono::steady_clock::now();
    engine.set_profiler(profiler.get());
  }
  const auto run_window = [&](const char* name, auto&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    if (!profiler) return;
    const auto t1 = std::chrono::steady_clock::now();
    profiler->add_span(profiler->scheduler_track(), name,
                       std::chrono::duration<double, std::micro>(t0 - profile_epoch).count(),
                       std::chrono::duration<double, std::micro>(t1 - t0).count());
  };

  if (tracing) {
    const std::string manifest_path = obs::manifest_path_for(out.trace_path);
    if (!out.manifest.write(manifest_path)) {
      throw std::runtime_error("cannot write run manifest: " + manifest_path);
    }
    report(out.log, "telemetry: trace=%s manifest=%s config_hash=%016llx\n",
           out.trace_path.c_str(), manifest_path.c_str(),
           static_cast<unsigned long long>(out.manifest.config_hash()));
  }

  Result result;
  const auto run_until = [&](sim::Time t) { engine.run_until(t); };
  engine.start();
  run_window("warmup", [&] { run_until(sc.workload.start); });
  if (sc.sample_queues) {
    // After convergence: every enqueue on a fabric link records the queue
    // length it found, in MSS units.
    sim::Simulator& shard = engine.shard_sim(0);
    for (topology::LinkId id = 0; id < topo.num_links(); ++id) {
      shard.link(id).set_queue_sampler([&result](sim::Time, uint64_t queue_bytes) {
        result.queue_samples_mss.push_back(static_cast<double>(queue_bytes) / 1500);
      });
    }
  }
  const sim::LinkStats window_start = engine.aggregate_fabric_stats();
  run_window("traffic", [&] {
    if (stream) {
      workload::pump_stream(transport, *stream, traffic_end,
                            std::max(sc.workload.duration / 256, 1e-3), run_until);
    } else {
      run_until(traffic_end);
    }
  });
  const sim::LinkStats window_end = engine.aggregate_fabric_stats();
  run_window("drain", [&] { run_until(run_end); });

  const size_t num_flows = stream ? stream->emitted() : flows.size();
  result.fct = metrics::summarize_fct(transport.completed_flows(), num_flows);
  result.overhead = metrics::make_overhead_report(window_end, window_start);
  result.fabric_drops = engine.aggregate_fabric_stats().data_drops;
  result.reordered_packets = transport.total_reordered_packets();
  for (const dataplane::ContraSwitch* sw : contra_switches) result.contra += sw->stats();

  if (engine.num_shards() > 1) {
    report(out.log,
           "engine  : %u shards x %u workers (%u fused at partition), "
           "min cut %.3g us, %llu phases (%llu solo)\n",
           engine.num_shards(), engine.num_workers(), engine.partition().fused_shards,
           engine.epoch_width_s() * 1e6, static_cast<unsigned long long>(engine.epochs_completed()),
           static_cast<unsigned long long>(engine.solo_phases()));
  }
  report(out.log, "plane=%s load=%.0f%% flows=%zu\n", plane_flag(sc.plane),
         sc.workload.load * 100, num_flows);
  report(out.log, "FCT     : %s\n", result.fct.to_string().c_str());
  report(out.log, "traffic : %s\n", result.overhead.to_string().c_str());
  report(out.log, "drops   : %llu data packets\n",
         static_cast<unsigned long long>(result.fabric_drops));
  if (const sim::FluidEngine* fluid = transport.fluid_engine()) {
    const sim::FluidStats& fs = fluid->stats();
    report(out.log,
           "fluid   : %llu flows (%llu completed), %llu ticks, %llu recomputes, "
           "%llu reroutes, %llu stalls, peak %llu active, digest %016llx\n",
           static_cast<unsigned long long>(fs.flows_started),
           static_cast<unsigned long long>(fs.flows_completed),
           static_cast<unsigned long long>(fs.ticks),
           static_cast<unsigned long long>(fs.recomputes),
           static_cast<unsigned long long>(fs.reroutes),
           static_cast<unsigned long long>(fs.stalls),
           static_cast<unsigned long long>(fs.peak_active),
           static_cast<unsigned long long>(fluid->completion_digest()));
  }

  if (out.metrics != nullptr) *out.metrics << engine.merged_metrics_json(engine.now()) << "\n";
  const obs::FlowTracker flow_tracker =
      transport.flow_tracking() ? transport.merged_flow_tracker() : obs::FlowTracker{};
  write_dataplane_outputs(sc, policy, flow_tracker, samplers, profiler.get());
  if (tracing) {
    engine.flush_trace();
    fanout.flush();
    report(out.log, "trace   : %llu records -> %s\n",
           static_cast<unsigned long long>(trace_sink.records_written()),
           out.trace_path.c_str());
    report(out.log, "%s", convergence.report().to_string().c_str());
  }
  return result;
}

}  // namespace contra::scenario
