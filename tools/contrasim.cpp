// contrasim — run a performance-aware-routing experiment from the command
// line: pick a topology, a dataplane (contra / ecmp / hula / spain / sp), a
// workload, and get FCT + overhead numbers.
//
//   contrasim --builtin fat-tree:4 --plane contra \
//             --policy "minimize((path.len, path.util))" \
//             --workload web-search --load 0.6 --duration-ms 30 --seed 1
//
// Hosts attach to fat-tree edge switches / leaf-spine leaves automatically;
// on arbitrary topologies one host attaches to every switch.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>

#include "cli_common.h"
#include "compiler/compiler.h"
#include "dataplane/contra_switch.h"
#include "dataplane/ecmp_switch.h"
#include "dataplane/hula_switch.h"
#include "dataplane/spain_switch.h"
#include "dataplane/static_switch.h"
#include "lang/parser.h"
#include "metrics/counters.h"
#include "metrics/fct.h"
#include "obs/convergence.h"
#include "obs/flow_tracker.h"
#include "obs/link_timeline.h"
#include "obs/manifest.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "oracle/audit.h"
#include "sim/churn_engine.h"
#include "sim/fluid.h"
#include "sim/host.h"
#include "sim/parallel_simulator.h"
#include "sim/transport.h"
#include "util/logging.h"
#include "util/strings.h"
#include "workload/generator.h"

using namespace contra;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--topo-file <file> | --builtin <spec>]\n"
               "          (--topo-file reads edge lists and Topology Zoo GraphML --\n"
               "           format is sniffed; GraphML geo-coordinates set link delays)\n"
               "          --plane contra|ecmp|hula|spain|sp\n"
               "          [--policy \"minimize(...)\"]   (contra only; default MU)\n"
               "          [--workload web-search|cache] [--load 0.5]\n"
               "          [--duration-ms 30] [--seed 1] [--size-scale 0.1]\n"
               "          [--link-gbps 10] [--probe-period-us 256]\n"
               "          [--triggered]                 (event-driven control plane: probes only\n"
               "                                         on change + keepalive backstop; see\n"
               "                                         DESIGN.md s12)\n"
               "          [--keepalive-rounds <k>]      (triggered keepalive cadence; default 32\n"
               "                                         periods between full refresh floods)\n"
               "          [--holddown-periods <p>]      (triggered per-(switch,dst) hold-down\n"
               "                                         window in probe periods; default 4)\n"
               "          [--util-quantum <q>]          (advertised-utilization bucket size;\n"
               "                                         default 1/64 -- coarser buckets damp\n"
               "                                         util-drift trigger waves at scale)\n"
               "          [--hybrid]                    (hybrid flow-level engine, DESIGN.md s14:\n"
               "                                         bulk flows advance as fluid max-min\n"
               "                                         rates; probes/flowlets/sampled flows\n"
               "                                         stay packet-level)\n"
               "          [--hybrid-sample-n <n>]       (1-in-n flows stay packet-level under\n"
               "                                         --hybrid; default 64, 0 = none)\n"
               "          [--fluid-quantum-us <t>]      (rate-recomputation quantum; default 64)\n"
               "          [--stream]                    (lazy streaming workload generation --\n"
               "                                         O(senders) memory, own deterministic\n"
               "                                         arrival sequence; for 1M-flow runs)\n"
               "          [--workers <n>]               (sharded parallel engine; see\n"
               "                                         DESIGN.md s8 -- deterministic for any n)\n"
               "          [--shards <n>]                (override shard count; default 0 auto-\n"
               "                                         sizes to topology+cores -- pass an\n"
               "                                         explicit n to reproduce a schedule\n"
               "                                         across machines)\n"
               "          [--fail <nodeA>-<nodeB>]      (fail a cable pre-traffic)\n"
               "          [--fail-at-ms <t>]            (delay --fail until t)\n"
               "          [--churn-spec <spec.json>]    (scripted/generative fault waves:\n"
               "                                         flaps, SRGs, gray failures, drift,\n"
               "                                         drains, restarts -- DESIGN.md s13;\n"
               "                                         deterministic for any --workers)\n"
               "          [--telemetry-out <trace.jsonl>]  (control-plane trace +\n"
               "                                            run manifest + convergence table)\n"
               "          [--metrics-json <file|->]     (final metrics snapshot)\n"
               "          [--metrics-interval-ms <t>]   (periodic snapshots, needs --metrics-json;\n"
               "                                         parallel engine emits at phase boundaries)\n"
               "          [--flows-out <flows.jsonl>]   (per-flow lifecycle records + FCT\n"
               "                                         summary in <file>.summary.json)\n"
               "          [--paths-out <paths.jsonl>]   (sampled INT-style per-hop path records)\n"
               "          [--path-sample-n <n>]         (sample 1-in-n data packets; default 8\n"
               "                                         when --paths-out/--audit-optimality set)\n"
               "          [--links-out <links.jsonl>]   (periodic per-link util/queue timelines)\n"
               "          [--link-sample-us <t>]        (timeline sample period; default 256)\n"
               "          [--audit-optimality]          (score sampled paths against the routing\n"
               "                                         oracle; implies path+link sampling)\n"
               "          [--audit-bucket-ms <t>]       (oracle rebuild period; default 5)\n"
               "          [--engine-profile <out.json>] (Chrome trace-event spans; load in\n"
               "                                         Perfetto / chrome://tracing)\n"
               "environment: CONTRA_LOG_LEVEL=trace|debug|info|warn|error|off\n",
               argv0);
  return 2;
}

/// Appends one metrics snapshot line per interval; reschedules itself. The
/// capture is a single pointer so the handler stays within the event queue's
/// inline capacity.
struct MetricsExporter {
  sim::Simulator* sim = nullptr;
  std::ostream* out = nullptr;
  double interval_s = 0.0;

  void tick() {
    *out << sim->telemetry().metrics().snapshot_json(sim->now()) << "\n";
    MetricsExporter* self = this;
    sim->events().schedule_in(interval_s, [self] { self->tick(); });
  }
};

/// Samples util EWMA + queue depth for a fixed set of links into its own
/// LinkTimeline every interval; reschedules itself (single-pointer capture,
/// same discipline as MetricsExporter). Under the parallel engine one
/// sampler runs per shard over the links that shard owns, so shard
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

/// The experiment and dataplane-telemetry flags both engines read.
struct RunOpts {
  std::string plane;
  double link_bps = 0.0;
  double load = 0.0;
  double duration_s = 0.0;
  double probe_period_s = 0.0;
  double size_scale = 0.0;
  uint64_t seed = 0;
  sim::TransportConfig transport;  ///< hybrid-engine flags
  std::string flows_path;
  std::string paths_path;
  std::string links_path;
  std::string profile_path;
  bool audit = false;
  uint32_t path_sample_every = 0;
  double link_sample_s = 0.0;
  double audit_bucket_s = 0.0;

  bool flow_tracking() const { return !flows_path.empty() || !paths_path.empty() || audit; }
  bool link_sampling() const { return !links_path.empty() || audit; }

  static RunOpts from_args(const tools::Args& args) {
    RunOpts opts;
    opts.plane = args.get("plane", "contra");
    opts.link_bps = args.get_double("link-gbps", 10.0) * 1e9;
    opts.load = args.get_double("load", 0.5);
    opts.duration_s = args.get_double("duration-ms", 30.0) * 1e-3;
    opts.probe_period_s = args.get_double("probe-period-us", 256.0) * 1e-6;
    opts.size_scale = args.get_double("size-scale", 0.1);
    opts.seed = static_cast<uint64_t>(args.get_int("seed", 1));
    opts.transport.hybrid = args.has("hybrid");
    opts.transport.hybrid_sample_every =
        static_cast<uint32_t>(args.get_int("hybrid-sample-n", 64));
    opts.transport.fluid_quantum_s = args.get_double("fluid-quantum-us", 64.0) * 1e-6;
    opts.flows_path = args.get("flows-out");
    opts.paths_path = args.get("paths-out");
    opts.links_path = args.get("links-out");
    opts.profile_path = args.get("engine-profile");
    opts.audit = args.has("audit-optimality");
    opts.path_sample_every = static_cast<uint32_t>(args.get_int("path-sample-n", 0));
    if (opts.path_sample_every == 0 && (!opts.paths_path.empty() || opts.audit)) {
      opts.path_sample_every = 8;
    }
    opts.link_sample_s = args.get_double("link-sample-us", 256.0) * 1e-6;
    opts.audit_bucket_s = args.get_double("audit-bucket-ms", 5.0) * 1e-3;
    return opts;
  }

  sim::SimConfig sim_config() const {
    sim::SimConfig config;
    config.host_link_bps = link_bps;
    config.util_tau_s = 2 * probe_period_s;
    return config;
  }
};

/// Opens `path` for writing; false (after printing) when it cannot.
bool open_output(std::ofstream& out, const std::string& path, const char* what) {
  out.open(path);
  if (!out) std::fprintf(stderr, "cannot open %s file: %s\n", what, path.c_str());
  return static_cast<bool>(out);
}

/// Two hosts per fat-tree edge switch or leaf-spine leaf; on any other
/// topology one host per switch.
template <typename Engine>
std::vector<sim::HostId> attach_hosts_auto(Engine& engine) {
  std::vector<sim::HostId> hosts = sim::attach_hosts_to_fat_tree_edges(engine, 2);
  if (!hosts.empty()) return hosts;
  hosts = sim::attach_hosts_to_leaves(engine, 2);
  if (!hosts.empty()) return hosts;
  for (topology::NodeId n = 0; n < engine.topo().num_nodes(); ++n) {
    hosts.push_back(engine.add_host(n));
  }
  return hosts;
}

/// A --fail <nodeA>-<nodeB> cable cut at --fail-at-ms (0: before traffic).
struct FailSpec {
  topology::LinkId link = topology::kInvalidLink;
  double at_s = 0.0;
};

/// Parses --fail into *fail (left empty without the flag); false (after
/// printing) when the spec names no cable.
bool parse_fail(const tools::Args& args, const topology::Topology& topo, FailSpec* fail) {
  if (!args.has("fail")) return true;
  const auto parts = util::split(args.get("fail"), '-');
  if (parts.size() == 2 && topo.find(parts[0]) != topology::kInvalidNode &&
      topo.find(parts[1]) != topology::kInvalidNode) {
    fail->link = topo.link_between(topo.find(parts[0]), topo.find(parts[1]));
  }
  if (fail->link == topology::kInvalidLink) {
    std::fprintf(stderr, "bad --fail spec '%s' (want <nodeA>-<nodeB>)\n",
                 args.get("fail").c_str());
    return false;
  }
  fail->at_s = args.get_double("fail-at-ms", 0.0) * 1e-3;
  return true;
}

/// Loads --churn-spec when present. Returns 0 with *out reset when the flag
/// is absent, 0 with a parsed engine on success, 1 (after printing) on error.
int load_churn_spec(const tools::Args& args, const topology::Topology& topo,
                    std::unique_ptr<sim::ChurnEngine>* out) {
  out->reset();
  if (!args.has("churn-spec")) return 0;
  const std::string path = args.get("churn-spec");
  const std::optional<std::string> text = tools::read_file(path);
  if (!text) {
    std::fprintf(stderr, "cannot open --churn-spec file: %s\n", path.c_str());
    return 1;
  }
  auto engine = std::make_unique<sim::ChurnEngine>(topo);
  std::string error;
  if (!engine->load_json(*text, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("churn: %u waves, %zu events, last at %.3f ms%s\n%s", engine->num_waves(),
              engine->num_events(), engine->last_event_time() * 1e3,
              engine->ends_clean() ? "" : " (schedule does not end clean)",
              engine->describe().c_str());
  *out = std::move(engine);
  return 0;
}

/// Where --metrics-json snapshots go (a file, or stdout for "-"), and the
/// --metrics-interval-ms period (0: final snapshot only).
struct MetricsOut {
  std::ofstream file;
  std::ostream* out = nullptr;
  double interval_s = 0.0;

  bool periodic() const { return out != nullptr && interval_s > 0; }
};

/// Opens --metrics-json; false (after printing) on an unwritable file or an
/// interval with nowhere to write.
bool open_metrics(const tools::Args& args, MetricsOut* metrics) {
  metrics->interval_s = args.get_double("metrics-interval-ms", 0.0) * 1e-3;
  const std::string path = args.get("metrics-json");
  if (path.empty()) {
    if (metrics->interval_s <= 0) return true;
    std::fprintf(stderr, "--metrics-interval-ms needs --metrics-json <file|->\n");
    return false;
  }
  if (path == "-") {
    metrics->out = &std::cout;
    return true;
  }
  if (!open_output(metrics->file, path, "--metrics-json")) return false;
  metrics->out = &metrics->file;
  return true;
}

/// The compiled --policy: built for the contra plane and for the
/// optimality audit, which scores sampled paths against it.
struct Policy {
  std::string text;
  compiler::CompileResult compiled;
  std::unique_ptr<pg::PolicyEvaluator> evaluator;
};

/// Compiles --policy into *policy when the run needs it; false (after
/// printing) on a compile error.
bool compile_policy(const tools::Args& args, const topology::Topology& topo, const RunOpts& opts,
                    Policy* policy) {
  if (opts.plane != "contra" && !opts.audit) return true;
  policy->text = args.get("policy", "minimize(path.util)");
  try {
    policy->compiled = compiler::compile(policy->text, topo);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "compile error: %s\n", e.what());
    return false;
  }
  std::printf("compiled: %s\n", policy->compiled.summary().c_str());
  policy->evaluator =
      std::make_unique<pg::PolicyEvaluator>(policy->compiled.graph, policy->compiled.decomposition);
  return true;
}

/// False (after printing) unless --plane names a dataplane install_plane knows.
bool check_plane(const std::string& plane) {
  if (plane == "contra" || plane == "ecmp" || plane == "hula" || plane == "spain" ||
      plane == "sp") {
    return true;
  }
  std::fprintf(stderr, "unknown --plane '%s'\n", plane.c_str());
  return false;
}

/// Installs the --plane dataplane on the switches `sim` owns: the whole
/// fabric on the serial engine, one shard's switches on the parallel one.
void install_plane(sim::Simulator& sim, const tools::Args& args, const RunOpts& opts,
                   const Policy& policy) {
  if (opts.plane == "contra") {
    dataplane::ContraSwitchOptions options;
    options.probe_period_s = std::max(opts.probe_period_s, policy.compiled.min_probe_period_s);
    options.triggered_updates = args.has("triggered");
    options.keepalive_rounds = static_cast<uint32_t>(
        args.get_int("keepalive-rounds", static_cast<int64_t>(options.keepalive_rounds)));
    options.holddown_periods = args.get_double("holddown-periods", options.holddown_periods);
    options.util_quantum = args.get_double("util-quantum", options.util_quantum);
    dataplane::install_contra_network(sim, policy.compiled, *policy.evaluator, options);
  } else if (opts.plane == "ecmp") {
    dataplane::install_ecmp_network(sim);
  } else if (opts.plane == "hula") {
    dataplane::HulaOptions options;
    options.probe_period_s = opts.probe_period_s;
    dataplane::install_hula_network(sim, options);
  } else if (opts.plane == "spain") {
    dataplane::install_spain_network(sim);
  } else {
    dataplane::install_shortest_path_network(sim);
  }
}

/// The run's traffic: a Poisson flow list submitted up front, or under
/// --stream a lazy FlowStream that run_traffic pumps.
struct Workload {
  workload::WorkloadConfig config;
  std::unique_ptr<workload::FlowStream> stream;
  std::vector<workload::GeneratedFlow> flows;

  sim::Time end() const { return config.start + config.duration; }
  size_t num_flows() const { return stream ? stream->emitted() : flows.size(); }
};

/// Even host ids send, odd ones receive; traffic starts once the control
/// plane has had 20 probe periods to converge.
template <typename Transport>
Workload setup_workload(const tools::Args& args, const RunOpts& opts,
                        const std::vector<sim::HostId>& hosts, Transport& transport) {
  const workload::EmpiricalCdf& sizes = args.get("workload", "web-search") == "cache"
                                            ? workload::cache_flow_sizes()
                                            : workload::web_search_flow_sizes();
  std::vector<sim::HostId> senders, receivers;
  for (sim::HostId h : hosts) (h % 2 ? receivers : senders).push_back(h);

  Workload wl;
  wl.config.load = opts.load;
  wl.config.sender_capacity_bps = opts.link_bps / 4;  // conservative fair share
  wl.config.start = 20 * opts.probe_period_s;
  wl.config.duration = opts.duration_s;
  wl.config.seed = opts.seed;
  wl.config.size_scale = opts.size_scale;
  if (args.has("stream")) {
    wl.stream = std::make_unique<workload::FlowStream>(sizes, senders, receivers, wl.config);
  } else {
    wl.flows = workload::generate_poisson(sizes, senders, receivers, wl.config);
    workload::submit(transport, wl.flows);
  }
  return wl;
}

/// Starts a sampler over `links` of `sim`. Its ring covers the whole run so
/// the audit sees the traffic window (the ring only drops samples on runs
/// longer than planned).
std::unique_ptr<LinkSampler> start_link_sampler(sim::Simulator& sim,
                                                std::vector<topology::LinkId> links,
                                                const RunOpts& opts, const Workload& wl) {
  auto sampler = std::make_unique<LinkSampler>();
  sampler->sim = &sim;
  const auto capacity = static_cast<uint32_t>((wl.end() + 0.3) / opts.link_sample_s) + 32;
  sampler->timeline = obs::LinkTimeline(sim.topo().num_links(), capacity);
  sampler->links = std::move(links);
  sampler->interval_s = opts.link_sample_s;
  if (!sampler->links.empty()) sampler->arm();
  return sampler;
}

/// Writes the run manifest beside the --telemetry-out trace; false (after
/// printing) when it cannot be written.
bool write_manifest(const tools::Args& args, const topology::Topology& topo, const RunOpts& opts,
                    const Policy& policy, const std::string& trace_path) {
  obs::RunManifest manifest = obs::RunManifest::make("contrasim");
  manifest.topology = args.has("topo-file")   ? args.get("topo-file")
                      : args.has("topology") ? args.get("topology")
                                             : args.get("builtin", "diamond");
  manifest.nodes = topo.num_nodes();
  manifest.links = topo.num_links();
  manifest.plane = opts.plane;
  manifest.policy = policy.text;
  manifest.workload = args.get("workload", "web-search");
  manifest.seed = opts.seed;
  manifest.load = opts.load;
  manifest.duration_s = opts.duration_s;
  manifest.probe_period_s = opts.probe_period_s;
  manifest.link_bps = opts.link_bps;
  const std::string manifest_path = obs::manifest_path_for(trace_path);
  if (!manifest.write(manifest_path)) {
    std::fprintf(stderr, "cannot write run manifest: %s\n", manifest_path.c_str());
    return false;
  }
  std::printf("telemetry: trace=%s manifest=%s config_hash=%016llx\n", trace_path.c_str(),
              manifest_path.c_str(), static_cast<unsigned long long>(manifest.config_hash()));
  return true;
}

/// Runs the traffic window: pumps a streamed workload in chunks, else runs
/// straight to the window's end.
template <typename Transport, typename RunFn>
void run_traffic(Transport& transport, Workload& wl, RunFn&& run_until) {
  if (wl.stream) {
    workload::pump_stream(transport, *wl.stream, wl.end(),
                          std::max(wl.config.duration / 256, 1e-3), run_until);
  } else {
    run_until(wl.end());
  }
}

/// Prints the run's answer: flow count, FCT summary, workload-window
/// traffic, fabric drops, and under --hybrid the fluid engine's line.
template <typename Transport>
void print_results(const RunOpts& opts, const Workload& wl, const Transport& transport,
                   const sim::LinkStats& window_start, const sim::LinkStats& window_end,
                   uint64_t data_drops) {
  const auto fct = metrics::summarize_fct(transport.completed_flows(), wl.num_flows());
  const auto overhead = metrics::make_overhead_report(window_end, window_start);
  std::printf("plane=%s load=%.0f%% flows=%zu\n", opts.plane.c_str(), opts.load * 100,
              wl.num_flows());
  std::printf("FCT     : %s\n", fct.to_string().c_str());
  std::printf("traffic : %s\n", overhead.to_string().c_str());
  std::printf("drops   : %llu data packets\n", static_cast<unsigned long long>(data_drops));
  const sim::FluidEngine* fluid = transport.fluid_engine();
  if (fluid == nullptr) return;
  const sim::FluidStats& fs = fluid->stats();
  std::printf("fluid   : %llu flows (%llu completed), %llu ticks, %llu recomputes, "
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

/// Scores the sampled dataplane paths against per-time-bucket routing
/// oracles fed the timeline's utilization view (quantized exactly like probe
/// adverts) plus the failure schedule. Prints the gated fraction.
void run_optimality_audit(const topology::Topology& topo, const Policy& policy,
                          const obs::FlowTracker& tracker, const obs::LinkTimeline& timeline,
                          double bucket_s, const FailSpec& fail) {
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
    if (fail.link != topology::kInvalidLink && (fail.at_s <= 0.0 || t >= fail.at_s)) {
      state.fail_cable(topo, fail.link);
    }
    return state;
  };
  const oracle::AuditResult result =
      oracle::audit_paths(policy.compiled.graph, *policy.evaluator, samples, state_at, bucket_s);
  std::printf("audit   : %s\n", result.to_string().c_str());
}

/// Writes the opt-in dataplane telemetry streams and the engine profile,
/// and runs the optimality audit; false (after printing) on an unwritable
/// file.
bool write_dataplane_outputs(const topology::Topology& topo, const RunOpts& opts,
                             const Policy& policy, const FailSpec& fail,
                             const obs::FlowTracker& tracker,
                             const std::vector<std::unique_ptr<LinkSampler>>& samplers,
                             const obs::EngineProfiler* profiler) {
  if (!opts.flows_path.empty()) {
    const std::string summary_path = opts.flows_path + ".summary.json";
    std::ofstream out, summary;
    if (!open_output(out, opts.flows_path, "--flows-out")) return false;
    tracker.write_flows_jsonl(out);
    if (!open_output(summary, summary_path, "flow summary")) return false;
    summary << tracker.summary_json() << "\n";
    std::printf("flows   : %zu records -> %s (summary: %s)\n", tracker.num_flows(),
                opts.flows_path.c_str(), summary_path.c_str());
  }
  if (!opts.paths_path.empty()) {
    std::ofstream out;
    if (!open_output(out, opts.paths_path, "--paths-out")) return false;
    tracker.write_paths_jsonl(out);
    std::printf("paths   : %zu samples -> %s\n", tracker.num_path_samples(),
                opts.paths_path.c_str());
  }
  obs::LinkTimeline timeline;
  for (const auto& sampler : samplers) timeline.merge_from(sampler->timeline);
  if (!opts.links_path.empty()) {
    std::ofstream out;
    if (!open_output(out, opts.links_path, "--links-out")) return false;
    timeline.write_jsonl(out);
    std::printf("links   : timelines -> %s\n", opts.links_path.c_str());
  }
  if (opts.audit) run_optimality_audit(topo, policy, tracker, timeline, opts.audit_bucket_s, fail);
  if (profiler != nullptr) {
    std::ofstream out;
    if (!open_output(out, opts.profile_path, "--engine-profile")) return false;
    profiler->write_chrome_trace(out);
    std::printf("profile : %zu spans -> %s\n", profiler->num_spans(), opts.profile_path.c_str());
  }
  return true;
}

/// The serial engine: one Simulator; the control-plane trace streams to its
/// file during the run, and the profile has one span per run window.
int run_serial(const tools::Args& args, const topology::Topology& topo, const char* argv0) {
  const RunOpts opts = RunOpts::from_args(args);
  sim::Simulator sim(topo, opts.sim_config());
  const std::vector<sim::HostId> hosts = attach_hosts_auto(sim);
  if (hosts.size() < 2) {
    std::fprintf(stderr, "topology too small to host traffic\n");
    return 1;
  }

  FailSpec fail;
  if (!parse_fail(args, topo, &fail)) return 1;
  if (fail.link != topology::kInvalidLink && fail.at_s > 0) {
    sim.events().schedule_in(fail.at_s, [&sim, link = fail.link] { sim.fail_cable(link); });
  } else if (fail.link != topology::kInvalidLink) {
    sim.fail_cable(fail.link);
  }

  std::unique_ptr<sim::ChurnEngine> churn;
  if (load_churn_spec(args, topo, &churn) != 0) return 1;
  if (churn) churn->arm(sim);

  const std::string trace_path = args.get("telemetry-out");
  std::ofstream trace_file;
  std::unique_ptr<obs::JsonlTraceSink> trace_sink;
  obs::ConvergenceTracker convergence;
  obs::FanoutSink fanout;
  if (!trace_path.empty()) {
    if (!open_output(trace_file, trace_path, "--telemetry-out")) return 1;
    trace_sink = std::make_unique<obs::JsonlTraceSink>(trace_file);
    fanout.add(trace_sink.get());
    fanout.add(&convergence);
    sim.telemetry().set_sink(&fanout);
  }

  MetricsOut metrics;
  if (!open_metrics(args, &metrics)) return 1;
  MetricsExporter exporter{&sim, metrics.out, metrics.interval_s};
  if (metrics.periodic()) {
    MetricsExporter* ep = &exporter;
    sim.events().schedule_in(metrics.interval_s, [ep] { ep->tick(); });
  }

  Policy policy;
  if (!compile_policy(args, topo, opts, &policy)) return 1;
  if (!check_plane(opts.plane)) return usage(argv0);
  install_plane(sim, args, opts, policy);

  obs::FlowTracker flow_tracker;  // declared before transport: outlives it
  sim::TransportManager transport(sim, opts.transport);
  if (opts.flow_tracking()) {
    transport.set_flow_tracker(&flow_tracker);
    transport.set_path_sample_every(opts.path_sample_every);
    sim.set_flow_telemetry(true);
  }
  Workload wl = setup_workload(args, opts, hosts, transport);

  std::vector<std::unique_ptr<LinkSampler>> samplers;
  if (opts.link_sampling()) {
    std::vector<topology::LinkId> links;
    for (topology::LinkId l = 0; l < topo.num_links(); ++l) links.push_back(l);
    samplers.push_back(start_link_sampler(sim, std::move(links), opts, wl));
  }

  std::unique_ptr<obs::EngineProfiler> profiler;
  std::chrono::steady_clock::time_point profile_epoch{};
  if (!opts.profile_path.empty()) {
    // The serial engine has no phases; profile the three run windows as
    // coarse spans on a single track.
    profiler = std::make_unique<obs::EngineProfiler>(1);
    profile_epoch = std::chrono::steady_clock::now();
  }
  const auto profiled = [&](const char* name, auto&& fn) {
    if (!profiler) {
      fn();
      return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    profiler->add_span(0, name,
                       std::chrono::duration<double, std::micro>(t0 - profile_epoch).count(),
                       std::chrono::duration<double, std::micro>(t1 - t0).count());
  };

  if (!trace_path.empty() && !write_manifest(args, topo, opts, policy, trace_path)) return 1;

  sim.start();
  profiled("warmup", [&] { sim.run_until(wl.config.start); });
  const sim::LinkStats window_start = sim.aggregate_fabric_stats();
  profiled("traffic", [&] {
    run_traffic(transport, wl, [&](sim::Time t) { sim.run_until(t); });
  });
  const sim::LinkStats window_end = sim.aggregate_fabric_stats();
  profiled("drain", [&] { sim.run_until(wl.end() + 0.25); });

  print_results(opts, wl, transport, window_start, window_end,
                sim.aggregate_fabric_stats().data_drops);
  if (metrics.out != nullptr) {
    *metrics.out << sim.telemetry().metrics().snapshot_json(sim.now()) << "\n";
  }
  if (!write_dataplane_outputs(topo, opts, policy, fail, flow_tracker, samplers,
                               profiler.get())) {
    return 1;
  }
  if (!trace_path.empty()) {
    fanout.flush();
    std::printf("trace   : %llu records -> %s\n",
                static_cast<unsigned long long>(trace_sink->records_written()),
                trace_path.c_str());
    std::printf("%s", convergence.report().to_string().c_str());
    sim.telemetry().set_sink(nullptr);  // sinks go out of scope before sim
  }
  transport.set_flow_tracker(nullptr);
  return 0;
}

/// The --workers/--shards path: the same experiment on the sharded parallel
/// engine (DESIGN.md §8). Deterministic for any worker count; periodic
/// metrics snapshots emit at phase boundaries once every shard has
/// committed past the tick (workers-invariant — see OBSERVABILITY.md), and
/// the shards' trace records are merged and written after the run.
int run_parallel(const tools::Args& args, const topology::Topology& topo, const char* argv0) {
  const RunOpts opts = RunOpts::from_args(args);
  sim::SimConfig config = opts.sim_config();
  config.workers = static_cast<uint32_t>(args.get_int("workers", 1));
  config.shards = static_cast<uint32_t>(args.get_int("shards", 0));
  sim::ParallelSimulator psim(topo, config);
  const std::vector<sim::HostId> hosts = attach_hosts_auto(psim);
  if (hosts.size() < 2) {
    std::fprintf(stderr, "topology too small to host traffic\n");
    return 1;
  }

  FailSpec fail;
  if (!parse_fail(args, topo, &fail)) return 1;
  if (fail.link != topology::kInvalidLink && fail.at_s > 0) {
    psim.schedule_cable_event(fail.at_s, fail.link, /*down=*/true);
  } else if (fail.link != topology::kInvalidLink) {
    psim.fail_cable(fail.link);
  }

  std::unique_ptr<sim::ChurnEngine> churn;
  if (load_churn_spec(args, topo, &churn) != 0) return 1;
  if (churn) churn->arm(psim);

  const std::string trace_path = args.get("telemetry-out");
  if (!trace_path.empty()) psim.enable_tracing();

  MetricsOut metrics;
  if (!open_metrics(args, &metrics)) return 1;
  if (metrics.periodic()) psim.set_metrics_snapshots(metrics.interval_s, metrics.out);

  Policy policy;
  if (!compile_policy(args, topo, opts, &policy)) return 1;
  if (!check_plane(opts.plane)) return usage(argv0);
  psim.for_each_shard([&](sim::Simulator& shard) { install_plane(shard, args, opts, policy); });

  sim::ParallelTransport transport(psim, opts.transport);
  if (opts.flow_tracking()) transport.enable_flow_tracking(opts.path_sample_every);
  Workload wl = setup_workload(args, opts, hosts, transport);

  // Per-shard link samplers over the links each shard owns (transmit side):
  // shard timelines are disjoint, so the merged timeline is workers-invariant.
  std::vector<std::unique_ptr<LinkSampler>> samplers;
  if (opts.link_sampling()) {
    for (uint32_t s = 0; s < psim.num_shards(); ++s) {
      std::vector<topology::LinkId> links;
      for (topology::LinkId l = 0; l < topo.num_links(); ++l) {
        if (psim.shard_of_node(topo.link(l).from) == s) links.push_back(l);
      }
      samplers.push_back(start_link_sampler(psim.shard_sim(s), std::move(links), opts, wl));
    }
  }

  std::unique_ptr<obs::EngineProfiler> profiler;
  if (!opts.profile_path.empty()) {
    profiler = std::make_unique<obs::EngineProfiler>(psim.num_shards() + 1);
    psim.set_profiler(profiler.get());
  }

  if (!trace_path.empty() && !write_manifest(args, topo, opts, policy, trace_path)) return 1;

  psim.start();
  psim.run_until(wl.config.start);
  const sim::LinkStats window_start = psim.aggregate_fabric_stats();
  run_traffic(transport, wl, [&](sim::Time t) { psim.run_until(t); });
  const sim::LinkStats window_end = psim.aggregate_fabric_stats();
  psim.run_until(wl.end() + 0.25);
  psim.set_profiler(nullptr);

  std::printf("engine  : %u shards x %u workers (%u fused at partition), "
              "min cut %.3g us, %llu phases (%llu solo)\n",
              psim.num_shards(), psim.num_workers(), psim.partition().fused_shards,
              psim.epoch_width_s() * 1e6,
              static_cast<unsigned long long>(psim.epochs_completed()),
              static_cast<unsigned long long>(psim.solo_phases()));
  print_results(opts, wl, transport, window_start, window_end,
                psim.aggregate_fabric_stats().data_drops);
  if (metrics.out != nullptr) *metrics.out << psim.merged_metrics_json(psim.now()) << "\n";

  obs::FlowTracker tracker;
  if (transport.flow_tracking()) tracker = transport.merged_flow_tracker();
  if (!write_dataplane_outputs(topo, opts, policy, fail, tracker, samplers, profiler.get())) {
    return 1;
  }
  if (!trace_path.empty()) {
    std::ofstream trace_file;
    if (!open_output(trace_file, trace_path, "--telemetry-out")) return 1;
    obs::JsonlTraceSink trace_sink(trace_file);
    obs::ConvergenceTracker convergence;
    for (const obs::TraceRecord& rec : psim.merged_trace()) {
      trace_sink.write(rec);
      convergence.write(rec);
    }
    trace_sink.flush();
    std::printf("trace   : %llu records -> %s\n",
                static_cast<unsigned long long>(trace_sink.records_written()),
                trace_path.c_str());
    std::printf("%s", convergence.report().to_string().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::init_log_level_from_env();
  const tools::Args args(argc, argv);
  if (args.has("help")) return usage(argv[0]);

  std::string error;
  const auto topo = tools::load_topology(args, &error);
  if (!topo) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return usage(argv[0]);
  }
  if (args.has("workers") || args.has("shards")) return run_parallel(args, *topo, argv[0]);
  return run_serial(args, *topo, argv[0]);
}
