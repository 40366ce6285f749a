// Fig. 11 — average FCT vs network load on a symmetric fat-tree, for ECMP /
// Contra / Hula under (a) the web-search workload and (b) the cache
// workload.
//
// Expected shape (paper): Contra ~= Hula, both well below ECMP at high load
// (ECMP's hash collisions build queues it never routes around).
#include "common.h"

namespace {

using namespace contra;
using namespace contra::bench;

void sweep(const workload::EmpiricalCdf& sizes, const char* title) {
  std::printf("(%s)\n", title);
  metrics::Table table(
      {"load %", "ECMP (ms)", "Contra (ms)", "Hula (ms)", "ECMP n", "Contra n", "Hula n"});
  for (double load : {0.2, 0.4, 0.6, 0.8, 0.9}) {
    std::vector<std::string> row{metrics::Table::num(load * 100, "%.0f")};
    std::vector<std::string> counts;
    for (Plane plane : {Plane::kEcmp, Plane::kContra, Plane::kHula}) {
      const scenario::Result result = scenario::run(fat_tree_scenario(plane, sizes, load, 11));
      row.push_back(metrics::Table::num(result.fct.mean_s * 1e3));
      counts.push_back(std::to_string(result.fct.completed) +
                       (result.fct.incomplete ? "(+" + std::to_string(result.fct.incomplete) +
                                                    " unfinished)"
                                              : ""));
    }
    for (auto& c : counts) row.push_back(std::move(c));
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.to_string().c_str());
}

}  // namespace

int main() {
  std::printf(
      "Fig. 11 — average FCT vs load, symmetric k=4 fat-tree (32 hosts, 10G links,\n"
      "probe period 256us, flowlet gap 200us; flow sizes scaled 0.1x)\n\n");
  sweep(workload::web_search_flow_sizes(), "a: web search workload");
  sweep(workload::cache_flow_sizes(), "b: cache workload");
  std::printf(
      "Expected shape: Contra ~= Hula; both beat ECMP increasingly with load\n"
      "(paper: ~30%% / ~47%% lower FCT at 90%% load for web-search / cache).\n");
  return 0;
}
