// Fig. 15 — average FCT vs load on the Abilene WAN topology: shortest-path
// routing (SP) vs SPAIN (static multipath) vs Contra with the MU policy.
//
// Expected shape (paper): SP worst (single path congests), SPAIN in between
// (static multipath), Contra best (utilization-aware spreading) — paper
// reports Contra ~31%/14% below SPAIN on web-search/cache.
#include "common.h"

namespace {

using namespace contra;
using namespace contra::bench;

void sweep(const workload::EmpiricalCdf& sizes, const char* title) {
  std::printf("(%s)\n", title);
  metrics::Table table({"load %", "SP (ms)", "SPAIN (ms)", "Contra MU (ms)", "SP unfinished",
                        "SPAIN unfinished", "Contra unfinished"});
  for (double load : {0.2, 0.4, 0.6, 0.8}) {
    std::vector<std::string> row{metrics::Table::num(load * 100, "%.0f")};
    std::vector<std::string> unfinished;
    for (Plane plane : {Plane::kShortestPath, Plane::kSpain, Plane::kContra}) {
      const scenario::Result result = scenario::run(abilene_scenario(plane, sizes, load, 15));
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
      "Fig. 15 — average FCT vs load on Abilene (11 PoPs, uniform links, four\n"
      "sender/receiver pairs across the continent; links scaled 40G -> 2G with\n"
      "flow sizes scaled to match)\n\n");
  sweep(workload::web_search_flow_sizes(), "a: web search workload");
  sweep(workload::cache_flow_sizes(), "b: cache workload");
  std::printf(
      "Expected shape: Contra(MU) < SPAIN < SP, gaps widening with load\n"
      "(paper: SPAIN ~27-33%% below SP; Contra ~14-31%% below SPAIN).\n");
  return 0;
}
