#include "exec/expression_eval.h"

#include <gtest/gtest.h>

#include <cctype>
#include <ostream>
#include <string>

#include "sql/parser.h"

namespace imon::exec {
namespace {

/// Evaluate a constant SQL expression (no column refs).
Value EvalConst(const std::string& text) {
  auto expr = sql::ParseExpression(text);
  EXPECT_TRUE(expr.ok()) << text << " -> " << expr.status();
  optimizer::OutputLayout layout;
  Row row;
  auto v = Eval(**expr, layout, row);
  EXPECT_TRUE(v.ok()) << text << " -> " << v.status();
  return v.ok() ? v.TakeValue() : Value();
}

TEST(ExprEvalTest, Arithmetic) {
  EXPECT_EQ(EvalConst("1 + 2 * 3").AsInt(), 7);
  EXPECT_EQ(EvalConst("(1 + 2) * 3").AsInt(), 9);
  EXPECT_EQ(EvalConst("10 - 4 - 3").AsInt(), 3);
  EXPECT_EQ(EvalConst("7 % 3").AsInt(), 1);
  EXPECT_DOUBLE_EQ(EvalConst("1.5 * 2").AsDouble(), 3.0);
  // Integer division truncates; mixed division is exact.
  EXPECT_EQ(EvalConst("7 / 2").AsInt(), 3);
  EXPECT_DOUBLE_EQ(EvalConst("7.0 / 2").AsDouble(), 3.5);
}

TEST(ExprEvalTest, DivisionByZeroIsNull) {
  EXPECT_TRUE(EvalConst("1 / 0").is_null());
  EXPECT_TRUE(EvalConst("1.5 / 0").is_null());
  EXPECT_TRUE(EvalConst("5 % 0").is_null());
}

TEST(ExprEvalTest, Comparisons) {
  EXPECT_EQ(EvalConst("1 < 2").AsInt(), 1);
  EXPECT_EQ(EvalConst("2 <= 1").AsInt(), 0);
  EXPECT_EQ(EvalConst("'abc' = 'abc'").AsInt(), 1);
  EXPECT_EQ(EvalConst("'abc' < 'abd'").AsInt(), 1);
  EXPECT_EQ(EvalConst("3 <> 4").AsInt(), 1);
  EXPECT_EQ(EvalConst("2 = 2.0").AsInt(), 1);  // cross-numeric
}

TEST(ExprEvalTest, ThreeValuedLogic) {
  // Comparisons with NULL yield NULL.
  EXPECT_TRUE(EvalConst("1 = NULL").is_null());
  EXPECT_TRUE(EvalConst("NULL <> NULL").is_null());
  // Kleene AND/OR.
  EXPECT_EQ(EvalConst("FALSE AND NULL").AsInt(), 0);
  EXPECT_TRUE(EvalConst("TRUE AND NULL").is_null());
  EXPECT_EQ(EvalConst("TRUE OR NULL").AsInt(), 1);
  EXPECT_TRUE(EvalConst("FALSE OR NULL").is_null());
  EXPECT_TRUE(EvalConst("NOT NULL").is_null());
  EXPECT_TRUE(EvalConst("1 + NULL").is_null());
}

TEST(ExprEvalTest, BetweenAndIn) {
  EXPECT_EQ(EvalConst("5 BETWEEN 1 AND 10").AsInt(), 1);
  EXPECT_EQ(EvalConst("0 BETWEEN 1 AND 10").AsInt(), 0);
  EXPECT_EQ(EvalConst("5 NOT BETWEEN 1 AND 10").AsInt(), 0);
  EXPECT_EQ(EvalConst("3 IN (1, 2, 3)").AsInt(), 1);
  EXPECT_EQ(EvalConst("9 IN (1, 2, 3)").AsInt(), 0);
  EXPECT_EQ(EvalConst("9 NOT IN (1, 2, 3)").AsInt(), 1);
  // IN with NULLs: unknown unless matched.
  EXPECT_TRUE(EvalConst("9 IN (1, NULL)").is_null());
  EXPECT_EQ(EvalConst("1 IN (1, NULL)").AsInt(), 1);
}

TEST(ExprEvalTest, IsNull) {
  EXPECT_EQ(EvalConst("NULL IS NULL").AsInt(), 1);
  EXPECT_EQ(EvalConst("1 IS NULL").AsInt(), 0);
  EXPECT_EQ(EvalConst("1 IS NOT NULL").AsInt(), 1);
}

TEST(ExprEvalTest, ScalarFunctions) {
  EXPECT_EQ(EvalConst("abs(-5)").AsInt(), 5);
  EXPECT_DOUBLE_EQ(EvalConst("abs(-2.5)").AsDouble(), 2.5);
  EXPECT_EQ(EvalConst("length('hello')").AsInt(), 5);
  EXPECT_EQ(EvalConst("upper('aBc')").AsText(), "ABC");
  EXPECT_EQ(EvalConst("lower('aBc')").AsText(), "abc");
  EXPECT_TRUE(EvalConst("abs(NULL)").is_null());
}

TEST(ExprEvalTest, TextConcatenation) {
  EXPECT_EQ(EvalConst("'ab' + 'cd'").AsText(), "abcd");
}

TEST(ExprEvalTest, ColumnReferences) {
  auto expr = sql::ParseExpression("x + y");
  ASSERT_TRUE(expr.ok());
  (*expr)->lhs->bound_table = 0;
  (*expr)->lhs->bound_column = 0;
  (*expr)->rhs->bound_table = 0;
  (*expr)->rhs->bound_column = 1;
  auto layout = optimizer::OutputLayout::ForTable(0, 1, 2);
  Row row = {Value::Int(3), Value::Int(4)};
  auto v = Eval(**expr, layout, row);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsInt(), 7);
}

struct LikeCase {
  const char* text;
  const char* pattern;
  bool match;
};

/// Print the case, not its bytes (the default prints pointer values).
void PrintTo(const LikeCase& c, std::ostream* os) {
  *os << "'" << c.text << "' LIKE '" << c.pattern << "'";
}

class LikeTest : public ::testing::TestWithParam<LikeCase> {};

TEST_P(LikeTest, Matches) {
  const LikeCase& c = GetParam();
  EXPECT_EQ(LikeMatch(c.text, c.pattern), c.match)
      << "'" << c.text << "' LIKE '" << c.pattern << "'";
}

/// Stable test names: the case index plus the pattern, with '%' spelled
/// "pct" (gtest names allow only letters, digits and '_').
std::string LikeCaseName(const ::testing::TestParamInfo<LikeCase>& info) {
  std::string name = std::to_string(info.index) + "_";
  for (const char* p = info.param.pattern; *p != '\0'; ++p) {
    if (std::isalnum(static_cast<unsigned char>(*p)) || *p == '_') {
      name += *p;
    } else if (*p == '%') {
      name += "pct";
    } else {
      name += 'x';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, LikeTest,
    ::testing::Values(LikeCase{"hello", "hello", true},
                      LikeCase{"hello", "h%", true},
                      LikeCase{"hello", "%o", true},
                      LikeCase{"hello", "%ell%", true},
                      LikeCase{"hello", "h_llo", true},
                      LikeCase{"hello", "h__lo", true},
                      LikeCase{"hello", "x%", false},
                      LikeCase{"hello", "hello_", false},
                      LikeCase{"", "%", true}, LikeCase{"", "_", false},
                      LikeCase{"abc", "%%", true},
                      LikeCase{"abcabc", "%abc", true},
                      LikeCase{"aXbXc", "a%b%c", true},
                      LikeCase{"ab", "a%b%c", false}),
    LikeCaseName);

TEST(ExprEvalTest, PredicateSemantics) {
  optimizer::OutputLayout layout;
  Row row;
  auto t = sql::ParseExpression("1 < 2");
  auto p = EvalPredicate(**t, layout, row);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(*p);
  // NULL predicates are not satisfied.
  auto n = sql::ParseExpression("NULL = 1");
  p = EvalPredicate(**n, layout, row);
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(*p);
}

}  // namespace
}  // namespace imon::exec
