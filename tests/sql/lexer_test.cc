#include "sql/lexer.h"

#include <gtest/gtest.h>

namespace imon::sql {
namespace {

std::vector<Token> MustTokenize(const std::string& input) {
  auto r = Tokenize(input);
  EXPECT_TRUE(r.ok()) << input << " -> " << r.status();
  return r.ok() ? r.TakeValue() : std::vector<Token>{};
}

TEST(LexerTest, EmptyInputYieldsEnd) {
  auto tokens = MustTokenize("");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].type, TokenType::kEnd);
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  for (const char* text : {"select", "SELECT", "SeLeCt"}) {
    auto tokens = MustTokenize(text);
    ASSERT_EQ(tokens.size(), 2u);
    EXPECT_TRUE(tokens[0].IsKeyword("select")) << text;
  }
}

TEST(LexerTest, IdentifiersLowercased) {
  auto tokens = MustTokenize("MyTable my_col2 _x");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[0].text, "mytable");
  EXPECT_EQ(tokens[1].text, "my_col2");
  EXPECT_EQ(tokens[2].text, "_x");
}

TEST(LexerTest, IntegerAndFloatLiterals) {
  auto tokens = MustTokenize("42 3.25 1e3 2.5E-2 0.5");
  ASSERT_EQ(tokens.size(), 6u);
  EXPECT_EQ(tokens[0].type, TokenType::kInteger);
  EXPECT_EQ(tokens[0].int_value, 42);
  EXPECT_EQ(tokens[1].type, TokenType::kFloat);
  EXPECT_DOUBLE_EQ(tokens[1].double_value, 3.25);
  EXPECT_DOUBLE_EQ(tokens[2].double_value, 1000.0);
  EXPECT_DOUBLE_EQ(tokens[3].double_value, 0.025);
  EXPECT_DOUBLE_EQ(tokens[4].double_value, 0.5);
}

TEST(LexerTest, OutOfRangeFloatLiteralsFailInsteadOfThrowing) {
  // Overflow and underflow to zero are errors, like an out-of-range
  // integer, never an exception that escapes the lexer.
  for (const char* text : {"select 1e999", "select 1e-400", "1.5E+400",
                           "-2.5e-330"}) {
    auto r = Tokenize(text);
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(r.status().message().find("out of range"), std::string::npos)
        << r.status().ToString();
  }
  EXPECT_FALSE(Tokenize("select 99999999999999999999").ok());
  EXPECT_TRUE(Tokenize("select 1e308, 2.5e-300, 0e-400, 0.0").ok());
  // Subnormal values are representable, so they tokenize.
  auto subnormal = Tokenize("select 1e-310, 4.9e-324");
  ASSERT_TRUE(subnormal.ok()) << subnormal.status().ToString();
  EXPECT_GT((*subnormal)[1].double_value, 0.0);
  EXPECT_GT((*subnormal)[3].double_value, 0.0);
}

TEST(LexerTest, StringLiteralsWithEscapes) {
  auto tokens = MustTokenize("'hello' 'it''s' ''");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].str_value, "hello");
  EXPECT_EQ(tokens[1].str_value, "it's");
  EXPECT_EQ(tokens[2].str_value, "");
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Tokenize("'oops").ok());
}

TEST(LexerTest, MultiCharOperators) {
  auto tokens = MustTokenize("<= >= <> != < > =");
  ASSERT_EQ(tokens.size(), 8u);
  EXPECT_TRUE(tokens[0].IsSymbol("<="));
  EXPECT_TRUE(tokens[1].IsSymbol(">="));
  EXPECT_TRUE(tokens[2].IsSymbol("<>"));
  EXPECT_TRUE(tokens[3].IsSymbol("<>"));  // != normalizes to <>
  EXPECT_TRUE(tokens[4].IsSymbol("<"));
  EXPECT_TRUE(tokens[5].IsSymbol(">"));
  EXPECT_TRUE(tokens[6].IsSymbol("="));
}

TEST(LexerTest, LineCommentsSkipped) {
  auto tokens = MustTokenize("select -- everything here is ignored\n 1");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_TRUE(tokens[0].IsKeyword("select"));
  EXPECT_EQ(tokens[1].int_value, 1);
}

TEST(LexerTest, UnexpectedCharacterFails) {
  EXPECT_FALSE(Tokenize("select @foo").ok());
  EXPECT_FALSE(Tokenize("#").ok());
}

TEST(LexerTest, PositionsRecorded) {
  auto tokens = MustTokenize("select x");
  EXPECT_EQ(tokens[0].position, 0u);
  EXPECT_EQ(tokens[1].position, 7u);
}

}  // namespace
}  // namespace imon::sql
