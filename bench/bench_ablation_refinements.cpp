// Ablations of the §5 refinements — why each mechanism exists:
//   (1) versioned probes (§5.1): without them, stale good news is adopted
//       and packets loop;
//   (2) policy-aware flowlet switching (§5.3): a naive flowlet table pins
//       next hops across policy constraints, forcing policy-violation drops;
//   (3) probe period (§5.2): shorter periods react faster but cost probe
//       bandwidth; the 0.5xRTT rule marks the safe floor;
//   (4) loop-detection threshold (§5.5): lower thresholds break transient
//       loops sooner at the price of false-positive flowlet flushes.
#include "common.h"

namespace {

using namespace contra;
using namespace contra::bench;

// (1) + (4): fat-tree under bursty load with deliberately slow probes makes
// stale adoptions (and hence transient loops) observable.
scenario::Result run_loops(bool versioned, uint8_t loop_threshold) {
  scenario::Scenario sc =
      fat_tree_scenario(Plane::kContra, workload::web_search_flow_sizes(), 0.5, 21);
  sc.policy = "minimize(path.util)";  // any-path MU: loop-prone shape
  sc.workload.duration = 15e-3;
  sc.drain_s = 40e-3;                 // unversioned runs loop; keep the tail short
  sc.contra.probe_period_s = 512e-6;  // slower probes widen inconsistency windows
  sc.sim.util_tau_s = 2 * sc.contra.probe_period_s;
  sc.contra.versioned_probes = versioned;
  sc.contra.loop_ttl_threshold = loop_threshold;
  return scenario::run(sc);
}

void ablate_versioning() {
  std::printf("(1) versioned probes (§5.1) — MU policy, 50%% load, slow probes\n");
  metrics::Table table(
      {"probes", "looped pkts", "loops broken", "mean FCT (ms)", "unfinished"});
  for (bool versioned : {true, false}) {
    const scenario::Result result = run_loops(versioned, 6);
    table.add_row({versioned ? "versioned" : "unversioned",
                   std::to_string(result.contra.looped_packets_seen),
                   std::to_string(result.contra.loops_broken),
                   metrics::Table::num(result.fct.mean_s * 1e3),
                   std::to_string(result.fct.incomplete)});
  }
  std::printf("%s\n", table.to_string().c_str());
}

// (2) policy-aware flowlets: waypoint policy with shifting preferences.
void ablate_flowlets() {
  std::printf("(2) policy-aware flowlet switching (§5.3) — waypoint policy\n");
  // With a dot-star waypoint regex most naive-mode violations manifest as
  // detours (wrong pinned next hops), i.e. FCT inflation, rather than
  // invalid-transition drops; both columns are shown.
  metrics::Table table({"flowlet keying", "invalid-transition drops", "completed",
                        "mean FCT (ms)"});
  for (bool aware : {true, false}) {
    scenario::Scenario sc =
        fat_tree_scenario(Plane::kContra, workload::web_search_flow_sizes(), 0.4, 22);
    sc.hosts_per_edge = 2;
    // lang::policies::waypoint("c0", "c1"):
    sc.policy = "minimize(if .* (c0 + c1) .* then path.util else inf)";
    sc.contra.policy_aware_flowlets = aware;
    sc.workload.sender_capacity_bps = 2.5e9;
    const scenario::Result result = scenario::run(sc);
    table.add_row({aware ? "(tag,pid,fid) — paper" : "fid only — naive",
                   std::to_string(result.contra.data_dropped_no_route),
                   std::to_string(result.fct.completed),
                   metrics::Table::num(result.fct.mean_s * 1e3)});
  }
  std::printf("%s\n", table.to_string().c_str());
}

// (3) probe period sweep.
void ablate_probe_period() {
  std::printf("(3) probe period (§5.2) — responsiveness vs probe bandwidth, 60%% load\n");
  metrics::Table table({"period (us)", "mean FCT (ms)", "probe traffic %", "unfinished"});
  for (double period_us : {64.0, 128.0, 256.0, 512.0, 1024.0}) {
    scenario::Scenario sc =
        fat_tree_scenario(Plane::kContra, workload::web_search_flow_sizes(), 0.6, 23);
    sc.contra.probe_period_s = period_us * 1e-6;
    sc.sim.util_tau_s = 2 * sc.contra.probe_period_s;
    const scenario::Result result = scenario::run(sc);
    table.add_row({metrics::Table::num(period_us, "%.0f"),
                   metrics::Table::num(result.fct.mean_s * 1e3),
                   metrics::Table::num(result.overhead.probe_fraction() * 100, "%.2f"),
                   std::to_string(result.fct.incomplete)});
  }
  std::printf("%s\n", table.to_string().c_str());
}

// (5) flowlet switching and packet ordering: with the flowlet gap at zero,
// every packet re-rates against the live FwdT — path flips mid-burst cause
// out-of-order delivery (the "Ordered" objective, §5.3).
void ablate_ordering() {
  std::printf("(5) flowlet gap vs packet ordering (§5.3 'Ordered') — 70%% load\n");
  metrics::Table table({"flowlet gap (us)", "reordered pkts", "mean FCT (ms)"});
  for (double gap_us : {0.0, 50.0, 200.0, 1000.0}) {
    scenario::Scenario sc =
        fat_tree_scenario(Plane::kContra, workload::web_search_flow_sizes(), 0.7, 24);
    sc.contra.flowlet_timeout_s = gap_us * 1e-6;
    sc.workload.duration = 25e-3;
    sc.drain_s = 0.2;
    const scenario::Result result = scenario::run(sc);
    table.add_row({metrics::Table::num(gap_us, "%.0f"), std::to_string(result.reordered_packets),
                   metrics::Table::num(result.fct.mean_s * 1e3)});
  }
  std::printf("%s\n", table.to_string().c_str());
}

// (4) loop-detection threshold sweep.
void ablate_loop_threshold() {
  std::printf("(4) loop-detection TTL-spread threshold (§5.5) — unversioned probes\n");
  metrics::Table table({"threshold", "loops broken", "looped pkts", "mean FCT (ms)"});
  for (uint8_t threshold : {2, 4, 8, 16}) {
    const scenario::Result result = run_loops(/*versioned=*/false, threshold);
    table.add_row({std::to_string(threshold), std::to_string(result.contra.loops_broken),
                   std::to_string(result.contra.looped_packets_seen),
                   metrics::Table::num(result.fct.mean_s * 1e3)});
  }
  std::printf("%s\n", table.to_string().c_str());
}

}  // namespace

int main() {
  std::printf("Ablations of Contra's §5 refinements\n\n");
  ablate_versioning();
  ablate_flowlets();
  ablate_probe_period();
  ablate_loop_threshold();
  ablate_ordering();
  std::printf(
      "Expected shapes: unversioned probes loop more; naive flowlets detour\n"
      "waypoint traffic (FCT inflation); shorter probe periods trade probe\n"
      "bandwidth for (mild) FCT gains; lower loop thresholds break loops\n"
      "earlier; zero flowlet gap (per-packet re-rating) causes order-of-\n"
      "magnitude more reordering than any real gap.\n");
  return 0;
}
