// P4 generation tests: the emitted text carries the right table entries,
// tag widths, metric fields, and per-switch specialization.
#include <gtest/gtest.h>

#include "compiler/compiler.h"
#include "lang/policies.h"
#include "p4gen/p4gen.h"
#include "topology/generators.h"

namespace contra::p4gen {
namespace {

compiler::CompileResult compile_example() {
  static const topology::Topology topo = topology::running_example();
  return compiler::compile(
      "minimize(if A B D then 0 else if B .* D then path.util else inf)", topo);
}

TEST(P4Gen, HeadersDeclareTagWidthAndMetrics) {
  const auto result = compile_example();
  const std::string header = generate_common_headers(result);
  EXPECT_NE(header.find("typedef bit<" + std::to_string(result.tag_bits()) + "> tag_t;"),
            std::string::npos);
  EXPECT_NE(header.find("mv_util"), std::string::npos);
  EXPECT_NE(header.find("mv_len"), std::string::npos);
  EXPECT_EQ(header.find("mv_lat"), std::string::npos);  // policy never uses lat
}

TEST(P4Gen, PerSwitchProgramsDiffer) {
  const auto result = compile_example();
  const topology::Topology& topo = result.graph.topo();
  const std::string pa = generate_p4(result, result.switches[topo.find("A")]);
  const std::string pb = generate_p4(result, result.switches[topo.find("B")]);
  EXPECT_NE(pa, pb);
  EXPECT_NE(pa.find("switch A"), std::string::npos);
  EXPECT_NE(pb.find("switch B"), std::string::npos);
}

TEST(P4Gen, TagStepEntriesMatchConfig) {
  const auto result = compile_example();
  const auto& cfg = result.switches[result.graph.topo().find("B")];
  const std::string p4 = generate_p4(result, cfg);
  for (const auto& entry : cfg.tag_step) {
    const std::string line = std::to_string(entry.in_tag) + " : set_local_tag(" +
                             std::to_string(entry.local_tag) + ");";
    EXPECT_NE(p4.find(line), std::string::npos) << line;
  }
}

TEST(P4Gen, ProbeOriginCommentOnlyAtDestinations) {
  const auto result = compile_example();
  const topology::Topology& topo = result.graph.topo();
  const std::string pd = generate_p4(result, result.switches[topo.find("D")]);
  const std::string pa = generate_p4(result, result.switches[topo.find("A")]);
  EXPECT_NE(pd.find("Probe origin"), std::string::npos);
  EXPECT_EQ(pa.find("Probe origin"), std::string::npos);
}

TEST(P4Gen, MentionsEveryPipelineStage) {
  const auto result = compile_example();
  const std::string p4 = generate_p4(result, result.switches[0]);
  for (const char* fragment :
       {"contra_probe_t", "contra_data_t", "fwdt_mv", "bestt_key", "flowlet_nhop",
        "loop_maxttl", "tag_step", "probe_multicast", "V1Switch", "parser ContraParser",
        "control ContraDeparser", "control ContraIngress", "state parse_probe",
        "struct metadata"}) {
    EXPECT_NE(p4.find(fragment), std::string::npos) << fragment;
  }
}

TEST(P4Gen, GenerateAllCoversEverySwitch) {
  const auto result = compile_example();
  const std::string all = generate_all(result);
  for (const auto& cfg : result.switches) {
    EXPECT_NE(all.find("switch " + cfg.name + " "), std::string::npos) << cfg.name;
  }
}

TEST(P4Gen, HeaderTypesDeclaredBeforeHeadersStruct) {
  // P4-16 requires declaration before use: every header type the `headers`
  // struct names must be declared above it, in every switch's program.
  const auto result = compile_example();
  for (const auto& cfg : result.switches) {
    const std::string p4 = generate_p4(result, cfg);
    const size_t use = p4.find("struct headers {");
    ASSERT_NE(use, std::string::npos) << cfg.name;
    for (const char* type : {"ethernet_t", "contra_probe_t", "contra_data_t"}) {
      const size_t decl = p4.find(std::string("header ") + type + " {");
      ASSERT_NE(decl, std::string::npos) << cfg.name << ": " << type;
      EXPECT_LT(decl, use) << cfg.name << ": " << type << " declared after use";
    }
  }
}

TEST(P4Gen, SubpoliciesAreDocumented) {
  const topology::Topology topo = topology::running_example();
  const auto result = compiler::compile(lang::policies::congestion_aware(), topo);
  const std::string header = generate_common_headers(result);
  EXPECT_NE(header.find("pid 0"), std::string::npos);
  EXPECT_NE(header.find("pid 1"), std::string::npos);
}

}  // namespace
}  // namespace contra::p4gen
