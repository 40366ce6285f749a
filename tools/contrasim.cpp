// contrasim — run a performance-aware-routing experiment from the command
// line: pick a topology, a dataplane (contra / ecmp / hula / spain / sp), a
// workload, and get FCT + overhead numbers. For example (one command line,
// wrapped here):
//
//   contrasim --builtin fat-tree:4 --plane contra
//             --policy "minimize((path.len, path.util))"
//             --workload web-search --load 0.6 --duration-ms 30 --seed 1
//
// Hosts attach to fat-tree edge switches / leaf-spine leaves automatically;
// on arbitrary topologies one host attaches to every switch.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>

#include "cli_common.h"
#include "obs/manifest.h"
#include "scenario/scenario.h"
#include "sim/churn_engine.h"
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
               "          [--workers <n>]               (worker threads of the sharded engine,\n"
               "                                         DESIGN.md s8 -- deterministic for any\n"
               "                                         n; with neither --workers nor --shards\n"
               "                                         the run is one shard, the serial\n"
               "                                         engine, the default)\n"
               "          [--shards <n>]                (partition into n shards, also without\n"
               "                                         --workers; 0 with --workers auto-sizes\n"
               "                                         to topology+cores -- pass an explicit\n"
               "                                         n to reproduce a schedule across\n"
               "                                         machines)\n"
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
               "                                         more than one shard emits at phase\n"
               "                                         boundaries)\n"
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

/// Parses --fail <nodeA>-<nodeB> [--fail-at-ms t] into the scenario; false
/// (after printing) when the spec names no cable.
bool parse_fail(const tools::Args& args, scenario::Scenario* sc) {
  if (!args.has("fail")) return true;
  const auto parts = util::split(args.get("fail"), '-');
  if (parts.size() == 2 && sc->topo.find(parts[0]) != topology::kInvalidNode &&
      sc->topo.find(parts[1]) != topology::kInvalidNode) {
    sc->fail_link = sc->topo.link_between(sc->topo.find(parts[0]), sc->topo.find(parts[1]));
  }
  if (sc->fail_link == topology::kInvalidLink) {
    std::fprintf(stderr, "bad --fail spec '%s' (want <nodeA>-<nodeB>)\n",
                 args.get("fail").c_str());
    return false;
  }
  sc->fail_at_s = args.get_double("fail-at-ms", 0.0) * 1e-3;
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

/// Points the scenario's metrics output at --metrics-json (a file, or stdout
/// for "-"); false (after printing) on an unwritable file or an interval
/// with nowhere to write.
bool open_metrics(const tools::Args& args, std::ofstream* file, scenario::Outputs* out) {
  out->metrics_interval_s = args.get_double("metrics-interval-ms", 0.0) * 1e-3;
  const std::string path = args.get("metrics-json");
  if (path.empty()) {
    if (out->metrics_interval_s <= 0) return true;
    std::fprintf(stderr, "--metrics-interval-ms needs --metrics-json <file|->\n");
    return false;
  }
  if (path == "-") {
    out->metrics = &std::cout;
    return true;
  }
  file->open(path);
  if (!*file) {
    std::fprintf(stderr, "cannot open --metrics-json file: %s\n", path.c_str());
    return false;
  }
  out->metrics = file;
  return true;
}

/// The run manifest written beside the --telemetry-out trace.
obs::RunManifest make_manifest(const tools::Args& args, const scenario::Scenario& sc) {
  obs::RunManifest manifest = obs::RunManifest::make("contrasim");
  manifest.topology = args.has("topo-file")   ? args.get("topo-file")
                      : args.has("topology") ? args.get("topology")
                                             : args.get("builtin", "diamond");
  manifest.nodes = sc.topo.num_nodes();
  manifest.links = sc.topo.num_links();
  manifest.plane = scenario::plane_flag(sc.plane);
  if (sc.plane == scenario::Plane::kContra || sc.out.audit) manifest.policy = sc.policy;
  manifest.workload = args.get("workload", "web-search");
  manifest.seed = sc.workload.seed;
  manifest.load = sc.workload.load;
  manifest.duration_s = sc.workload.duration;
  manifest.probe_period_s = sc.contra.probe_period_s;
  manifest.link_bps = sc.sim.host_link_bps;
  return manifest;
}

}  // namespace

int main(int argc, char** argv) {
  util::init_log_level_from_env();
  const tools::Args args(argc, argv);
  if (args.has("help")) return usage(argv[0]);

  std::string error;
  auto topo = tools::load_topology(args, &error);
  if (!topo) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return usage(argv[0]);
  }
  const std::optional<scenario::Plane> plane = scenario::parse_plane(args.get("plane", "contra"));
  if (!plane) {
    std::fprintf(stderr, "unknown --plane '%s'\n", args.get("plane").c_str());
    return usage(argv[0]);
  }

  scenario::Scenario sc;
  sc.topo = std::move(*topo);
  sc.plane = *plane;
  sc.policy = args.get("policy", "minimize(path.util)");
  const double link_bps = args.get_double("link-gbps", 10.0) * 1e9;
  const double probe_period_s = args.get_double("probe-period-us", 256.0) * 1e-6;
  sc.contra.probe_period_s = probe_period_s;
  sc.contra.triggered_updates = args.has("triggered");
  sc.contra.keepalive_rounds = static_cast<uint32_t>(
      args.get_int("keepalive-rounds", static_cast<int64_t>(sc.contra.keepalive_rounds)));
  sc.contra.holddown_periods = args.get_double("holddown-periods", sc.contra.holddown_periods);
  sc.contra.util_quantum = args.get_double("util-quantum", sc.contra.util_quantum);
  sc.hula.probe_period_s = probe_period_s;
  sc.transport.hybrid = args.has("hybrid");
  sc.transport.hybrid_sample_every = static_cast<uint32_t>(args.get_int("hybrid-sample-n", 64));
  sc.transport.fluid_quantum_s = args.get_double("fluid-quantum-us", 64.0) * 1e-6;

  // Even host ids send, odd ones receive, each at a conservative fair share
  // of its link; traffic starts once the control plane has had 20 probe
  // periods to converge.
  sc.sizes = args.get("workload", "web-search") == "cache" ? &workload::cache_flow_sizes()
                                                          : &workload::web_search_flow_sizes();
  sc.workload.load = args.get_double("load", 0.5);
  sc.workload.sender_capacity_bps = link_bps / 4;
  sc.workload.start = 20 * probe_period_s;
  sc.workload.duration = args.get_double("duration-ms", 30.0) * 1e-3;
  sc.workload.seed = static_cast<uint64_t>(args.get_int("seed", 1));
  sc.workload.size_scale = args.get_double("size-scale", 0.1);
  sc.stream = args.has("stream");

  if (!parse_fail(args, &sc)) return 1;
  std::unique_ptr<sim::ChurnEngine> churn;
  if (load_churn_spec(args, sc.topo, &churn) != 0) return 1;
  sc.churn = churn.get();

  sc.sim.host_link_bps = link_bps;
  sc.sim.util_tau_s = 2 * probe_period_s;
  sc.sim.workers = static_cast<uint32_t>(args.get_int("workers", 0));
  sc.sim.shards = static_cast<uint32_t>(args.get_int("shards", 0));

  scenario::Outputs& out = sc.out;
  out.log = stdout;
  std::ofstream metrics_file;
  if (!open_metrics(args, &metrics_file, &out)) return 1;
  out.trace_path = args.get("telemetry-out");
  out.flows_path = args.get("flows-out");
  out.paths_path = args.get("paths-out");
  out.links_path = args.get("links-out");
  out.profile_path = args.get("engine-profile");
  out.audit = args.has("audit-optimality");
  out.path_sample_every = static_cast<uint32_t>(args.get_int("path-sample-n", 0));
  if (out.path_sample_every == 0 && (!out.paths_path.empty() || out.audit)) {
    out.path_sample_every = 8;
  }
  out.link_sample_s = args.get_double("link-sample-us", 256.0) * 1e-6;
  out.audit_bucket_s = args.get_double("audit-bucket-ms", 5.0) * 1e-3;
  out.manifest = make_manifest(args, sc);

  try {
    scenario::run(sc);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  return 0;
}
