// Monotonicity analysis tests: the paper's catalog is monotonic; policies
// that reward longer paths (subtracting attributes, negative weights) are
// flagged, with counterexamples.
#include <gtest/gtest.h>

#include "analysis/monotonicity.h"
#include "lang/parser.h"
#include "lang/policies.h"

namespace contra::analysis {
namespace {

using lang::parse_expr;
using lang::parse_policy;

TEST(MonotonicityStructural, AttributesAreMonotone) {
  EXPECT_TRUE(metric_is_monotonic_structural(parse_expr("path.util")));
  EXPECT_TRUE(metric_is_monotonic_structural(parse_expr("path.lat")));
  EXPECT_TRUE(metric_is_monotonic_structural(parse_expr("path.len")));
}

TEST(MonotonicityStructural, SumsAndTuples) {
  EXPECT_TRUE(metric_is_monotonic_structural(parse_expr("path.lat + path.len")));
  EXPECT_TRUE(metric_is_monotonic_structural(parse_expr("(path.util, path.len)")));
  EXPECT_TRUE(metric_is_monotonic_structural(parse_expr("10 + path.len")));
  EXPECT_TRUE(metric_is_monotonic_structural(parse_expr("path.len - 5")));
}

TEST(MonotonicityStructural, MinMaxOfMonotone) {
  EXPECT_TRUE(metric_is_monotonic_structural(parse_expr("min(path.lat, path.len)")));
  EXPECT_TRUE(metric_is_monotonic_structural(parse_expr("max(path.util, path.len)")));
}

TEST(MonotonicityStructural, SubtractingAttributesIsNot) {
  EXPECT_FALSE(metric_is_monotonic_structural(parse_expr("10 - path.util")));
  EXPECT_FALSE(metric_is_monotonic_structural(parse_expr("path.lat - path.util")));
  EXPECT_FALSE(metric_is_monotonic_structural(parse_expr("(path.len, 1 - path.util)")));
}

TEST(MonotonicitySampled, FindsCounterexampleForNegatedUtil) {
  const auto violation = sample_monotonicity_violation(parse_expr("0 - path.util"), 1, 4000);
  ASSERT_TRUE(violation.has_value());
  // The counterexample's extension must have strictly raised the bottleneck
  // (that is what makes the negated rank drop).
  EXPECT_GT(violation->extension.util, violation->base.util);
}

TEST(MonotonicitySampled, NoCounterexampleForMonotone) {
  EXPECT_FALSE(
      sample_monotonicity_violation(parse_expr("(path.util, path.len)"), 1, 4000).has_value());
  EXPECT_FALSE(
      sample_monotonicity_violation(parse_expr("path.lat + path.len"), 1, 4000).has_value());
}

// Every Fig. 3 policy is monotonic (the paper compiles them all). Each policy
// carries its catalog name, which gtest prints as the parameter value: a bare
// Policy would print as its raw bytes (heap addresses), and the CTest name
// built from it would change with every build.
struct CatalogEntry {
  const char* name;
  lang::Policy policy;
};

void PrintTo(const CatalogEntry& e, std::ostream* os) { *os << e.name; }

class CatalogMonotone : public ::testing::TestWithParam<CatalogEntry> {};

TEST_P(CatalogMonotone, IsMonotonic) {
  const MonotonicityReport report = check_monotonicity(GetParam().policy);
  EXPECT_TRUE(report.monotonic) << report.to_string();
}

namespace policies = lang::policies;

INSTANTIATE_TEST_SUITE_P(
    Fig3, CatalogMonotone,
    ::testing::Values(CatalogEntry{"shortest_path", policies::shortest_path()},
                      CatalogEntry{"min_util", policies::min_util()},
                      CatalogEntry{"widest_shortest", policies::widest_shortest()},
                      CatalogEntry{"shortest_widest", policies::shortest_widest()},
                      CatalogEntry{"waypoint", policies::waypoint("F1", "F2")},
                      CatalogEntry{"link_preference", policies::link_preference("X", "Y")},
                      CatalogEntry{"weighted_link", policies::weighted_link("X", "Y", 10)},
                      CatalogEntry{"source_local", policies::source_local("X")},
                      CatalogEntry{"congestion_aware", policies::congestion_aware()},
                      CatalogEntry{"failover", policies::failover("A B D", "A C D")}));

TEST(Monotonicity, MaximizeUtilizationIsRejected) {
  const MonotonicityReport report =
      check_monotonicity(parse_policy("minimize(1 - path.util)"));
  EXPECT_FALSE(report.monotonic);
  EXPECT_TRUE(report.counterexample.has_value());
  EXPECT_NE(report.to_string().find("non-monotonic"), std::string::npos);
}

TEST(Monotonicity, NegativeWeightIsRejected) {
  const MonotonicityReport report =
      check_monotonicity(parse_policy("minimize(path.len - path.lat)"));
  EXPECT_FALSE(report.monotonic);
}

TEST(Monotonicity, ReportStringsAreInformative) {
  // Decomposition appends the path.len tie-break, so even the max-combine
  // policy ranks strictly at the propagation layer.
  const MonotonicityReport good = check_monotonicity(lang::policies::min_util());
  EXPECT_EQ(good.to_string(), "strictly monotonic");
}

TEST(StrictMonotonicityStructural, LenIsStrictUtilAndLatCanTie) {
  EXPECT_TRUE(metric_is_strictly_monotonic_structural(parse_expr("path.len")));
  // util is max-combined; lat can cross a zero-delay link.
  EXPECT_FALSE(metric_is_strictly_monotonic_structural(parse_expr("path.util")));
  EXPECT_FALSE(metric_is_strictly_monotonic_structural(parse_expr("path.lat")));
}

TEST(StrictMonotonicityStructural, TuplesAreStrictWithOneStrictElement) {
  // Lexicographic: the strict element breaks any tie in the weak ones.
  EXPECT_TRUE(metric_is_strictly_monotonic_structural(parse_expr("(path.util, path.len)")));
  EXPECT_TRUE(metric_is_strictly_monotonic_structural(parse_expr("(path.len, path.util)")));
  EXPECT_FALSE(metric_is_strictly_monotonic_structural(parse_expr("(path.util, path.lat)")));
}

TEST(StrictMonotonicityStructural, ArithmeticShapes) {
  EXPECT_TRUE(metric_is_strictly_monotonic_structural(parse_expr("path.lat + path.len")));
  EXPECT_TRUE(metric_is_strictly_monotonic_structural(parse_expr("10 + path.len")));
  EXPECT_FALSE(metric_is_strictly_monotonic_structural(parse_expr("path.util + path.lat")));
  EXPECT_TRUE(metric_is_strictly_monotonic_structural(parse_expr("min(path.len, 5 + path.len)")));
  EXPECT_FALSE(metric_is_strictly_monotonic_structural(parse_expr("min(path.lat, path.len)")));
  EXPECT_FALSE(metric_is_strictly_monotonic_structural(parse_expr("10 - path.util")));
}

TEST(StrictMonotonicitySampled, CatchesTies) {
  // util ties whenever the new link is not the bottleneck.
  EXPECT_TRUE(sample_strictness_violation(parse_expr("path.util"), 1, 4000).has_value());
  EXPECT_FALSE(sample_strictness_violation(parse_expr("path.len"), 1, 4000).has_value());
}

TEST(StrictMonotonicity, CatalogPoliciesRankStrictlyAfterDecomposition) {
  // The appended len tie-break makes every monotone catalog policy strict.
  for (const lang::Policy& p :
       {lang::policies::shortest_path(), lang::policies::min_util(),
        lang::policies::widest_shortest(), lang::policies::shortest_widest(),
        lang::policies::congestion_aware()}) {
    const MonotonicityReport report = check_monotonicity(p);
    EXPECT_TRUE(report.strictly_monotonic) << report.to_string();
  }
  // Non-monotone implies non-strict.
  EXPECT_FALSE(check_monotonicity(parse_policy("minimize(1 - path.util)")).strictly_monotonic);
}

}  // namespace
}  // namespace contra::analysis
