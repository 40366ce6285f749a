// End-to-end policy compliance (the paper's "Policy-compliant" objective):
// every data packet that reaches its destination host must have traversed a
// switch sequence matching the policy — audited from the simulator's packet
// traces across a matrix of (policy × topology) under live traffic and
// shifting preferences.
#include <gtest/gtest.h>

#include <functional>

#include "compiler/compiler.h"
#include "dataplane/contra_switch.h"
#include "lang/eval.h"
#include "lang/parser.h"
#include "sim/transport.h"
#include "topology/abilene.h"
#include "topology/generators.h"
#include "topology/zoo.h"

namespace contra {
namespace {

using topology::NodeId;
using topology::Topology;

struct ComplianceCase {
  const char* name;
  std::function<Topology()> topo;
  const char* policy;
  /// The regex all delivered DATA paths must match (usually the policy's
  /// own constraint); empty = no constraint beyond delivery.
  const char* must_match;
  const char* src_switch;
  const char* dst_switch;
};

std::ostream& operator<<(std::ostream& os, const ComplianceCase& c) { return os << c.name; }

class ComplianceSweep : public ::testing::TestWithParam<ComplianceCase> {};

TEST_P(ComplianceSweep, DeliveredPacketsMatchPolicyPaths) {
  const ComplianceCase& test_case = GetParam();
  const Topology topo = test_case.topo();
  const compiler::CompileResult compiled = compiler::compile(test_case.policy, topo);
  const pg::PolicyEvaluator evaluator(compiled.graph, compiled.decomposition);

  sim::SimConfig config;
  config.host_link_bps = 1e9;
  config.capture_traces = true;  // the audit below reads PathRecord::trace
  sim::Simulator sim(topo, config);
  dataplane::ContraSwitchOptions options;
  options.probe_period_s = 128e-6;
  dataplane::install_contra_network(sim, compiled, evaluator, options);

  sim::TransportManager transport(sim);
  const sim::HostId src = sim.add_host(topo.find(test_case.src_switch));
  const sim::HostId dst = sim.add_host(topo.find(test_case.dst_switch));

  const lang::RegexPtr constraint =
      *test_case.must_match ? lang::parse_regex(test_case.must_match) : nullptr;

  uint64_t audited = 0;
  uint64_t violations = 0;
  transport.set_data_inspector([&](const sim::Packet& packet) {
    if (packet.tuple.protocol != 6 || packet.dst_host != dst) return;  // forward data only
    ++audited;
    if (!constraint) return;
    std::vector<std::string> names;
    if (packet.path) {
      for (uint16_t n : packet.path->trace) names.push_back(topo.name(n));
    }
    if (!lang::regex_matches(constraint, names)) ++violations;
  });

  sim.start();
  sim.run_until(5e-3);
  // Several flows, spread in time so preferences can shift between them.
  for (int i = 0; i < 8; ++i) {
    transport.start_flow(src, dst, 60'000, sim.now() + i * 2e-3);
  }
  sim.run_until(sim.now() + 0.4);

  EXPECT_EQ(transport.completed_flows().size(), 8u) << test_case.name;
  EXPECT_GT(audited, 100u);
  EXPECT_EQ(violations, 0u) << test_case.name;
}

INSTANTIATE_TEST_SUITE_P(
    PolicyComplianceMatrix, ComplianceSweep,
    ::testing::Values(
        ComplianceCase{"waypoint_diamond", [] { return topology::running_example(); },
                       "minimize(if .* B .* then path.util else inf)", ".* B .*", "A", "D"},
        ComplianceCase{"waypoint_geant",
                       [] { return topology::geant(1e9, 0.001); },
                       "minimize(if .* Frankfurt .* then path.util else inf)",
                       ".* Frankfurt .*", "London", "Vienna"},
        ComplianceCase{"link_pref_grid", [] { return topology::grid(3, 3); },
                       "minimize(if .* g1_1 g1_2 .* then path.util else inf)",
                       ".* g1_1 g1_2 .*", "g0_0", "g2_2"},
        ComplianceCase{"forbidden_transit_ring", [] { return topology::ring(6); },
                       // never transit n3: allowed = any path avoiding n3
                       "minimize(if (. + n0 + n1 + n2 + n4 + n5)* then path.util else inf)",
                       "", "n1", "n5"},
        ComplianceCase{"unconstrained_abilene",
                       [] { return topology::abilene(1e9, 0.001); },
                       "minimize(path.util)", "", "Seattle", "NewYork"}),
    [](const ::testing::TestParamInfo<ComplianceCase>& info) { return info.param.name; });

// The ring case above has a vacuous regex (dot absorbs everything); check the
// real forbidden-transit behaviour explicitly: with n3 forbidden as transit,
// traffic n1 -> n5 must go the long way around (n1-n0-n5).
TEST(Compliance, ForbiddenTransitTakesTheLongWay) {
  const Topology topo = topology::ring(6);
  // Paths are sequences of switches; forbid any path containing n3.
  const compiler::CompileResult compiled = compiler::compile(
      "minimize(if .* n3 .* then inf else path.len)", topo);
  const pg::PolicyEvaluator evaluator(compiled.graph, compiled.decomposition);
  sim::Simulator sim(topo, sim::SimConfig{});
  auto switches = dataplane::install_contra_network(sim, compiled, evaluator);
  sim.start();
  sim.run_until(10e-3);

  // n2 -> n4: the short way is via n3 (2 hops), which is forbidden; the
  // policy-compliant route is the 4-hop way around.
  const auto best = switches[topo.find("n2")]->best_choice(topo.find("n4"), sim.now());
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->rank, lang::Rank::scalar(4.0));
  EXPECT_EQ(topo.name(topo.link(best->nhop).to), "n1");
}

}  // namespace
}  // namespace contra
