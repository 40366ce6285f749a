// Parser tests: every Fig. 2 production, the Fig. 3 policy catalog (P1-P9),
// disambiguation corner cases, round-tripping through the printer, and
// error reporting.
#include <gtest/gtest.h>

#include "lang/parser.h"
#include "lang/policies.h"
#include "lang/printer.h"

namespace contra::lang {
namespace {

Policy reparse(const Policy& p) { return parse_policy(to_string(p)); }

TEST(Parser, MinimalPolicy) {
  const Policy p = parse_policy("minimize(path.len)");
  ASSERT_EQ(p.objective->kind, Expr::Kind::kAttr);
  EXPECT_EQ(p.objective->attr, PathAttr::kLen);
}

TEST(Parser, AllAttributes) {
  EXPECT_EQ(parse_expr("path.util")->attr, PathAttr::kUtil);
  EXPECT_EQ(parse_expr("path.lat")->attr, PathAttr::kLat);
  EXPECT_EQ(parse_expr("path.len")->attr, PathAttr::kLen);
}

TEST(Parser, UnknownAttributeThrows) {
  EXPECT_THROW(parse_policy("minimize(path.jitter)"), ParseError);
}

TEST(Parser, Infinity) {
  EXPECT_EQ(parse_expr("inf")->kind, Expr::Kind::kInfinity);
}

TEST(Parser, TupleFlattensAtParse) {
  const ExprPtr e = parse_expr("(path.util, path.len)");
  ASSERT_EQ(e->kind, Expr::Kind::kTuple);
  ASSERT_EQ(e->elems.size(), 2u);
}

TEST(Parser, ParenthesizedScalarIsNotTuple) {
  const ExprPtr e = parse_expr("(path.util)");
  EXPECT_EQ(e->kind, Expr::Kind::kAttr);
}

TEST(Parser, ArithmeticLeftAssociative) {
  const ExprPtr e = parse_expr("1 + 2 - 3");
  ASSERT_EQ(e->kind, Expr::Kind::kBinOp);
  EXPECT_EQ(e->op, BinOp::kSub);
  EXPECT_EQ(e->lhs->op, BinOp::kAdd);
}

TEST(Parser, MinMaxFunctions) {
  const ExprPtr e = parse_expr("min(path.util, max(path.lat, 3))");
  EXPECT_EQ(e->op, BinOp::kMin);
  EXPECT_EQ(e->rhs->op, BinOp::kMax);
}

TEST(Parser, IfWithRegexTest) {
  const Policy p = parse_policy("minimize(if A .* D then path.util else inf)");
  ASSERT_EQ(p.objective->kind, Expr::Kind::kIf);
  EXPECT_EQ(p.objective->cond->kind, BoolTest::Kind::kRegex);
}

TEST(Parser, IfWithDynamicTest) {
  const Policy p = parse_policy("minimize(if path.util < .8 then 1 else 2)");
  ASSERT_EQ(p.objective->cond->kind, BoolTest::Kind::kCompare);
  EXPECT_EQ(p.objective->cond->cmp, BoolTest::CmpOp::kLt);
}

TEST(Parser, NestedIf) {
  const Policy p =
      parse_policy("minimize(if A then 0 else if B then 1 else inf)");
  EXPECT_EQ(p.objective->else_branch->kind, Expr::Kind::kIf);
}

TEST(Parser, BooleanConnectives) {
  const Policy p = parse_policy(
      "minimize(if not (path.util < .5) and (A .* or B .*) then 1 else 2)");
  ASSERT_EQ(p.objective->cond->kind, BoolTest::Kind::kAnd);
  EXPECT_EQ(p.objective->cond->left->kind, BoolTest::Kind::kNot);
  EXPECT_EQ(p.objective->cond->right->kind, BoolTest::Kind::kOr);
}

TEST(Parser, RegexUnionConcatStar) {
  const RegexPtr r = parse_regex("A (B + C)* D");
  ASSERT_EQ(r->kind, Regex::Kind::kConcat);
  // ((A (B+C)*) D): outer concat's right is D.
  EXPECT_EQ(r->right->kind, Regex::Kind::kNode);
  EXPECT_EQ(r->right->node, "D");
}

TEST(Parser, RegexDotStar) {
  const RegexPtr r = parse_regex(".*");
  EXPECT_EQ(r->kind, Regex::Kind::kStar);
  EXPECT_EQ(r->left->kind, Regex::Kind::kDot);
}

TEST(Parser, RegexStarBindsTighterThanConcat) {
  const RegexPtr r = parse_regex("A B*");
  ASSERT_EQ(r->kind, Regex::Kind::kConcat);
  EXPECT_EQ(r->right->kind, Regex::Kind::kStar);
}

TEST(Parser, ParenGroupedTestBacktracks) {
  // '(' here could open a test group, a regex group, or a comparison.
  const Policy grouped = parse_policy("minimize(if (A .* ) then 0 else 1)");
  EXPECT_EQ(grouped.objective->cond->kind, BoolTest::Kind::kRegex);
  const Policy cmp = parse_policy("minimize(if (path.len) < 3 then 0 else 1)");
  EXPECT_EQ(cmp.objective->cond->kind, BoolTest::Kind::kCompare);
}

TEST(Parser, WeightedLinkPolicyShape) {
  // P7: (if .*XY.* then 10 else 0) + path.len
  const Policy p =
      parse_policy("minimize((if .* X Y .* then 10 else 0) + path.len)");
  ASSERT_EQ(p.objective->kind, Expr::Kind::kBinOp);
  EXPECT_EQ(p.objective->op, BinOp::kAdd);
  EXPECT_EQ(p.objective->lhs->kind, Expr::Kind::kIf);
}

TEST(Parser, MissingMinimizeThrows) {
  EXPECT_THROW(parse_policy("path.util"), ParseError);
}

TEST(Parser, TrailingGarbageThrows) {
  EXPECT_THROW(parse_policy("minimize(path.util) extra"), ParseError);
}

TEST(Parser, UnbalancedParensThrow) {
  EXPECT_THROW(parse_policy("minimize((path.util)"), ParseError);
}

TEST(Parser, MissingElseThrows) {
  EXPECT_THROW(parse_policy("minimize(if A then 1)"), ParseError);
}

// ---- the full Fig. 3 catalog parses and round-trips -----------------------

// Each policy carries its catalog name, which gtest prints as the parameter
// value: a bare Policy would print as its raw bytes (heap addresses), and the
// CTest name built from it would change with every build.
struct CatalogEntry {
  const char* name;
  Policy policy;
};

void PrintTo(const CatalogEntry& e, std::ostream* os) { *os << e.name; }

class CatalogTest : public ::testing::TestWithParam<CatalogEntry> {};

TEST_P(CatalogTest, RoundTripsThroughPrinter) {
  const Policy p = GetParam().policy;
  const Policy again = reparse(p);
  EXPECT_EQ(to_string(p), to_string(again));
}

INSTANTIATE_TEST_SUITE_P(
    Fig3Policies, CatalogTest,
    ::testing::Values(CatalogEntry{"shortest_path", policies::shortest_path()},
                      CatalogEntry{"min_util", policies::min_util()},
                      CatalogEntry{"widest_shortest", policies::widest_shortest()},
                      CatalogEntry{"shortest_widest", policies::shortest_widest()},
                      CatalogEntry{"waypoint", policies::waypoint("F1", "F2")},
                      CatalogEntry{"waypoint_single", policies::waypoint_single("W")},
                      CatalogEntry{"link_preference", policies::link_preference("X", "Y")},
                      CatalogEntry{"weighted_link", policies::weighted_link("X", "Y", 10)},
                      CatalogEntry{"source_local", policies::source_local("X")},
                      CatalogEntry{"congestion_aware", policies::congestion_aware()},
                      CatalogEntry{"failover", policies::failover("A B D", "A C D")}));

TEST(Parser, CatalogHasExpectedRegexCounts) {
  EXPECT_EQ(collect_regexes(policies::min_util()).size(), 0u);
  EXPECT_EQ(collect_regexes(policies::waypoint("F1", "F2")).size(), 1u);
  EXPECT_EQ(collect_regexes(policies::congestion_aware()).size(), 0u);
  EXPECT_EQ(collect_regexes(policies::failover("A B D", "A C D")).size(), 2u);
}

TEST(Parser, DynamicTestDetection) {
  EXPECT_FALSE(has_dynamic_test(policies::min_util()));
  EXPECT_FALSE(has_dynamic_test(policies::waypoint("F1", "F2")));
  EXPECT_TRUE(has_dynamic_test(policies::congestion_aware()));
}

}  // namespace
}  // namespace contra::lang
