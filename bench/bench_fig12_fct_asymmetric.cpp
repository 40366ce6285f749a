// Fig. 12 — average FCT vs load on an ASYMMETRIC fat-tree (one agg-core
// link failed), ECMP / Contra / Hula, web-search and cache workloads.
//
// Expected shape (paper): ECMP suffers heavy loss beyond ~50% load (it keeps
// hashing onto the impaired pod paths); Contra and Hula route around the
// asymmetry and degrade gracefully.
#include "common.h"

namespace {

using namespace contra;
using namespace contra::bench;

void sweep(const workload::EmpiricalCdf& sizes, const char* title) {
  std::printf("(%s)\n", title);
  metrics::Table table({"load %", "ECMP (ms)", "Contra (ms)", "Hula (ms)", "ECMP unfinished",
                        "Contra unfinished", "Hula unfinished"});
  for (double load : {0.2, 0.4, 0.6, 0.8, 0.9}) {
    std::vector<std::string> row{metrics::Table::num(load * 100, "%.0f")};
    std::vector<std::string> unfinished;
    for (Plane plane : {Plane::kEcmp, Plane::kContra, Plane::kHula}) {
      scenario::Scenario sc = fat_tree_scenario(plane, sizes, load, 12);
      sc.fail_link = agg_core_link(sc.topo);
      const scenario::Result result = scenario::run(sc);
      row.push_back(metrics::Table::num(result.fct.mean_s * 1e3));
      unfinished.push_back(std::to_string(result.fct.incomplete));
    }
    for (auto& u : unfinished) row.push_back(std::move(u));
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.to_string().c_str());
}

}  // namespace

int main() {
  std::printf(
      "Fig. 12 — average FCT vs load, asymmetric k=4 fat-tree (link a0_0-c0 failed\n"
      "before traffic starts; otherwise the Fig. 11 setup)\n\n");
  sweep(workload::web_search_flow_sizes(), "a: web search workload");
  sweep(workload::cache_flow_sizes(), "b: cache workload");
  std::printf(
      "Expected shape: ECMP inflates sharply (paper: 3.2x / 8.7x mean FCT) and\n"
      "leaves flows unfinished at high load; Contra/Hula stay close to their\n"
      "symmetric-topology numbers (paper: ~1.7-1.8x).\n");
  return 0;
}
