#include "lang/printer.h"

#include <cmath>
#include <cstdio>

namespace contra::lang {

namespace {

std::string number_to_string(util::Fixed v) {
  const double d = v.to_double();
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(d));
    return buf;
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "%g", d);
  return buf;
}

std::string print_regex(const RegexPtr& r, int parent_prec) {
  // precedence: union(0) < concat(1) < star(2)
  auto wrap = [&](std::string s, int prec) {
    if (prec < parent_prec) return "(" + s + ")";
    return s;
  };
  switch (r->kind) {
    case Regex::Kind::kEmpty: return wrap("<empty>", 2);
    case Regex::Kind::kEpsilon: return wrap("<eps>", 2);
    case Regex::Kind::kNode: return wrap(r->node, 2);
    case Regex::Kind::kDot: return wrap(".", 2);
    case Regex::Kind::kUnion:
      return wrap(print_regex(r->left, 0) + " + " + print_regex(r->right, 0), 0);
    case Regex::Kind::kConcat:
      return wrap(print_regex(r->left, 1) + " " + print_regex(r->right, 1), 1);
    case Regex::Kind::kStar:
      return wrap(print_regex(r->left, 2) + "*", 2);
  }
  return "?";
}

std::string print_expr(const ExprPtr& e);

std::string print_test(const TestPtr& t, int parent_prec) {
  // precedence: or(0) < and(1) < not(2) < atom(3)
  auto wrap = [&](std::string s, int prec) {
    if (prec < parent_prec) return "(" + s + ")";
    return s;
  };
  switch (t->kind) {
    case BoolTest::Kind::kRegex:
      return wrap(print_regex(t->regex, 0), 3);
    case BoolTest::Kind::kCompare:
      return wrap(print_expr(t->cmp_lhs) + " " + cmp_op_name(t->cmp) + " " +
                      print_expr(t->cmp_rhs),
                  3);
    case BoolTest::Kind::kNot:
      return wrap("not " + print_test(t->left, 2), 2);
    case BoolTest::Kind::kOr:
      return wrap(print_test(t->left, 0) + " or " + print_test(t->right, 0), 0);
    case BoolTest::Kind::kAnd:
      return wrap(print_test(t->left, 1) + " and " + print_test(t->right, 1), 1);
  }
  return "?";
}

std::string print_expr(const ExprPtr& e) {
  switch (e->kind) {
    case Expr::Kind::kConst:
      return number_to_string(e->value);
    case Expr::Kind::kInfinity:
      return "inf";
    case Expr::Kind::kAttr:
      return std::string("path.") + path_attr_name(e->attr);
    case Expr::Kind::kBinOp: {
      if (e->op == BinOp::kMin || e->op == BinOp::kMax) {
        return std::string(bin_op_name(e->op)) + "(" + print_expr(e->lhs) + ", " +
               print_expr(e->rhs) + ")";
      }
      // An `if` operand must be parenthesized: its else-branch would
      // otherwise greedily absorb the rest of the sum on reparse.
      // Appended piece by piece: GCC 12 flags `"(" + ...` chains with a
      // false -Wrestrict warning in optimized builds.
      auto operand = [](std::string* out, const ExprPtr& x) {
        const bool wrap = x->kind == Expr::Kind::kIf;
        if (wrap) *out += '(';
        *out += print_expr(x);
        if (wrap) *out += ')';
      };
      std::string out = "(";
      operand(&out, e->lhs);
      out += ' ';
      out += bin_op_name(e->op);
      out += ' ';
      operand(&out, e->rhs);
      out += ')';
      return out;
    }
    case Expr::Kind::kIf:
      return "if " + print_test(e->cond, 0) + " then " + print_expr(e->then_branch) + " else " +
             print_expr(e->else_branch);
    case Expr::Kind::kTuple: {
      std::string out = "(";
      for (size_t i = 0; i < e->elems.size(); ++i) {
        if (i) out += ", ";
        out += print_expr(e->elems[i]);
      }
      return out + ")";
    }
  }
  return "?";
}

}  // namespace

std::string to_string(const Policy& policy) {
  return "minimize(" + print_expr(policy.objective) + ")";
}

std::string to_string(const ExprPtr& expr) { return print_expr(expr); }

std::string to_string(const TestPtr& test) { return print_test(test, 0); }

std::string to_string(const RegexPtr& regex) { return print_regex(regex, 0); }

}  // namespace contra::lang
