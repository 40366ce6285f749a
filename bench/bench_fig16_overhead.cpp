// Fig. 16 — traffic overhead of Contra (probes + per-packet tags),
// normalized to ECMP, at 10% and 60% load for both workloads; plus the §6.5
// transient-loop traffic fractions.
//
// Expected shape (paper): all ratios within ~1% of 1.0 (Contra +0.79% over
// ECMP, +0.44% over Hula); loop traffic fractions ~1e-4.
#include "common.h"

namespace {

using namespace contra;
using namespace contra::bench;

scenario::Result run(Plane plane, const workload::EmpiricalCdf& sizes, double load) {
  scenario::Scenario sc = fat_tree_scenario(plane, sizes, load, 16);
  sc.workload.duration = 40e-3;
  sc.workload.size_scale = 1.0;  // unscaled flows: overhead ratios need real volume
  return scenario::run(sc);
}

}  // namespace

int main() {
  std::printf(
      "Fig. 16 — fabric traffic normalized to ECMP (same workload), k=4\n"
      "fat-tree, probe period 256us\n\n");

  metrics::Table table({"workload", "load %", "ECMP", "Hula", "Contra", "Contra probe %"});
  for (const char* wl_name : {"web search", "cache"}) {
    const workload::EmpiricalCdf& sizes = std::string(wl_name) == "web search"
                                              ? workload::web_search_flow_sizes()
                                              : workload::cache_flow_sizes();
    for (double load : {0.1, 0.6}) {
      const scenario::Result ecmp = run(Plane::kEcmp, sizes, load);
      const scenario::Result hula = run(Plane::kHula, sizes, load);
      const scenario::Result contra = run(Plane::kContra, sizes, load);
      table.add_row({wl_name, metrics::Table::num(load * 100, "%.0f"),
                     metrics::Table::num(1.0, "%.4f"),
                     metrics::Table::num(hula.overhead.normalized_to(ecmp.overhead), "%.4f"),
                     metrics::Table::num(contra.overhead.normalized_to(ecmp.overhead), "%.4f"),
                     metrics::Table::num(contra.overhead.probe_fraction() * 100, "%.2f")});
    }
  }
  std::printf("%s\n", table.to_string().c_str());

  // §6.5 — transient-loop traffic under the MU policy at 60% load.
  std::printf("Transient-loop traffic (fraction of forwarded data packets):\n");
  {
    scenario::Scenario sc =
        fat_tree_scenario(Plane::kContra, workload::web_search_flow_sizes(), 0.6, 17);
    sc.workload.duration = 40e-3;
    const dataplane::ContraSwitchStats stats = scenario::run(sc).contra;
    const double fraction =
        stats.data_forwarded
            ? static_cast<double>(stats.looped_packets_seen) / stats.data_forwarded
            : 0.0;
    std::printf("  fat-tree @60%%: %.5f%% looped (%llu packets), %llu loops broken\n",
                fraction * 100, static_cast<unsigned long long>(stats.looped_packets_seen),
                static_cast<unsigned long long>(stats.loops_broken));
  }
  std::printf(
      "\nExpected shape: Contra within a few %% of ECMP (paper: +0.79%%; our scaled\n"
      "fabric carries less data per probe window, so the ratio is modestly larger);\n"
      "loop traffic a vanishing fraction (paper: 0.026%% fat-tree, 0.007%% Abilene).\n");
  return 0;
}
