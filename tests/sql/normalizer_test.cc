#include "sql/normalizer.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "common/hash.h"
#include "testing/workload_gen.h"
#include "workload/nref.h"

namespace imon::sql {
namespace {

// -- reference oracle ---------------------------------------------------------
//
// The original two-pass normalizer (literal rewrite into a token-string
// vector, then IN-list collapse over that vector, then a join). Kept here
// only as the oracle the single-pass NormalizeTokens is checked against:
// wl_templates persists fingerprints, so the template text must never
// change byte-wise.

bool RefIsLiteralToken(const Token& t) {
  if (t.type == TokenType::kInteger || t.type == TokenType::kFloat ||
      t.type == TokenType::kString) {
    return true;
  }
  return t.type == TokenType::kKeyword &&
         (t.text == "true" || t.text == "false");
}

bool RefEndsExpression(const std::string& emitted) {
  if (emitted.empty()) return false;
  if (emitted == "?" || emitted == ")") return true;
  char c = emitted.back();
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
}

NormalizedStatement ReferenceNormalize(const std::string& text) {
  NormalizedStatement out;
  auto tokens = Tokenize(text);
  if (!tokens.ok()) {
    out.template_text = text;
    out.fingerprint = Mix64(HashStatement(text));
    out.normalized = false;
    return out;
  }
  std::vector<std::string> emitted;
  std::vector<bool> is_keyword;
  const auto& toks = *tokens;
  auto push = [&](std::string s, bool kw) {
    emitted.push_back(std::move(s));
    is_keyword.push_back(kw);
  };
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.type == TokenType::kEnd) break;
    if (RefIsLiteralToken(t)) {
      ++out.literal_count;
      push("?", false);
      continue;
    }
    if (t.type == TokenType::kSymbol && (t.text == "-" || t.text == "+") &&
        i + 1 < toks.size() && RefIsLiteralToken(toks[i + 1]) &&
        toks[i + 1].type != TokenType::kString &&
        !(emitted.size() >= 1 && RefEndsExpression(emitted.back()) &&
          !is_keyword.back())) {
      ++out.literal_count;
      push("?", false);
      ++i;
      continue;
    }
    push(t.text, t.type == TokenType::kKeyword);
  }
  while (!emitted.empty() && emitted.back() == ";") {
    emitted.pop_back();
    is_keyword.pop_back();
  }
  std::vector<std::string> collapsed;
  for (size_t i = 0; i < emitted.size(); ++i) {
    if (is_keyword[i] && emitted[i] == "in" && i + 2 < emitted.size() &&
        emitted[i + 1] == "(") {
      size_t j = i + 2;
      bool all_placeholders = true;
      bool expect_value = true;
      while (j < emitted.size() && emitted[j] != ")") {
        if (expect_value ? emitted[j] != "?" : emitted[j] != ",") {
          all_placeholders = false;
          break;
        }
        expect_value = !expect_value;
        ++j;
      }
      if (all_placeholders && j < emitted.size() && j > i + 2 &&
          !expect_value) {
        collapsed.insert(collapsed.end(), {"in", "(", "?", ")"});
        i = j;
        continue;
      }
    }
    collapsed.push_back(emitted[i]);
  }
  std::string tmpl;
  for (size_t i = 0; i < collapsed.size(); ++i) {
    if (i) tmpl.push_back(' ');
    tmpl += collapsed[i];
  }
  out.template_text = std::move(tmpl);
  out.fingerprint = Mix64(HashStatement(out.template_text));
  out.normalized = true;
  return out;
}

/// Asserts NormalizeStatement matches the oracle byte for byte; returns
/// false (after reporting) on the first difference.
bool MatchesReference(const std::string& text) {
  NormalizedStatement got = NormalizeStatement(text);
  NormalizedStatement want = ReferenceNormalize(text);
  EXPECT_EQ(got.template_text, want.template_text) << "input: " << text;
  EXPECT_EQ(got.fingerprint, want.fingerprint) << "input: " << text;
  EXPECT_EQ(got.literal_count, want.literal_count) << "input: " << text;
  EXPECT_EQ(got.normalized, want.normalized) << "input: " << text;
  return got.template_text == want.template_text &&
         got.fingerprint == want.fingerprint &&
         got.literal_count == want.literal_count &&
         got.normalized == want.normalized;
}

TEST(NormalizerTest, ReplacesLiteralsWithPlaceholders) {
  auto n = NormalizeStatement("SELECT name FROM item WHERE id = 42");
  EXPECT_TRUE(n.normalized);
  EXPECT_EQ(n.template_text, "select name from item where id = ?");
  EXPECT_EQ(n.literal_count, 1u);
  EXPECT_NE(n.fingerprint, 0u);
}

TEST(NormalizerTest, SameTemplateForDifferentLiterals) {
  auto a = NormalizeStatement("SELECT * FROM item WHERE id = 1");
  auto b = NormalizeStatement("select *  from ITEM\nwhere id=99999");
  EXPECT_EQ(a.template_text, b.template_text);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

TEST(NormalizerTest, DistinctShapesGetDistinctFingerprints) {
  auto a = NormalizeStatement("SELECT * FROM item WHERE id = 1");
  auto b = NormalizeStatement("SELECT * FROM item WHERE id > 1");
  auto c = NormalizeStatement("SELECT * FROM sale WHERE id = 1");
  EXPECT_NE(a.fingerprint, b.fingerprint);
  EXPECT_NE(a.fingerprint, c.fingerprint);
  EXPECT_NE(b.fingerprint, c.fingerprint);
}

TEST(NormalizerTest, StringAndFloatLiterals) {
  auto n = NormalizeStatement(
      "SELECT * FROM item WHERE name = 'abc''d' AND price > 1.5e3");
  EXPECT_EQ(n.template_text,
            "select * from item where name = ? and price > ?");
  EXPECT_EQ(n.literal_count, 2u);
}

TEST(NormalizerTest, BooleanLiteralsNormalizedNullKept) {
  auto a = NormalizeStatement("SELECT * FROM t WHERE live = true");
  auto b = NormalizeStatement("SELECT * FROM t WHERE live = FALSE");
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  auto c = NormalizeStatement("SELECT * FROM t WHERE x IS NULL");
  EXPECT_EQ(c.template_text, "select * from t where x is null");
  EXPECT_EQ(c.literal_count, 0u);
}

TEST(NormalizerTest, CollapsesInLists) {
  auto a = NormalizeStatement("SELECT * FROM item WHERE id IN (1, 2, 3)");
  auto b = NormalizeStatement("SELECT * FROM item WHERE id IN (7)");
  auto c =
      NormalizeStatement("SELECT * FROM item WHERE id IN (4, 5, 6, 7, 8)");
  EXPECT_EQ(a.template_text, "select * from item where id in ( ? )");
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.fingerprint, c.fingerprint);
}

TEST(NormalizerTest, DoesNotCollapseNonLiteralInLists) {
  auto n = NormalizeStatement("SELECT * FROM item WHERE id IN (1, x)");
  EXPECT_EQ(n.template_text, "select * from item where id in ( ? , x )");
}

TEST(NormalizerTest, ValuesListKeepsArity) {
  auto a = NormalizeStatement("INSERT INTO t VALUES (1, 'a')");
  auto b = NormalizeStatement("INSERT INTO t VALUES (1, 'a', 2)");
  EXPECT_EQ(a.template_text, "insert into t values ( ? , ? )");
  EXPECT_NE(a.fingerprint, b.fingerprint);
}

TEST(NormalizerTest, UnarySignFoldedBinaryKept) {
  auto a = NormalizeStatement("SELECT * FROM t WHERE x = -5");
  auto b = NormalizeStatement("SELECT * FROM t WHERE x = 5");
  EXPECT_EQ(a.template_text, b.template_text);
  auto c = NormalizeStatement("SELECT * FROM t WHERE x - 5 > 2");
  EXPECT_EQ(c.template_text, "select * from t where x - ? > ?");
  auto d = NormalizeStatement("SELECT * FROM t WHERE x = 5 - 3");
  EXPECT_EQ(d.template_text, "select * from t where x = ? - ?");
}

TEST(NormalizerTest, TrailingSemicolonAndCommentsDropped) {
  auto a = NormalizeStatement("SELECT * FROM t; -- trailing comment");
  auto b = NormalizeStatement("SELECT * FROM t");
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

TEST(NormalizerTest, MalformedTextFallsBackToRawHash) {
  std::string bad = "SELECT 'unterminated";
  auto n = NormalizeStatement(bad);
  EXPECT_FALSE(n.normalized);
  EXPECT_EQ(n.template_text, bad);
  EXPECT_EQ(n.fingerprint, Mix64(HashStatement(bad)));
}

TEST(NormalizerTest, FingerprintIsMixedTemplateHash) {
  auto n = NormalizeStatement("SELECT * FROM t WHERE id = 3");
  EXPECT_EQ(n.fingerprint, Mix64(HashStatement(n.template_text)));
}

TEST(NormalizerDifferentialTest, GeneratedWorkloadsMatchReference) {
  size_t checked = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    testing::GenConfig config;
    config.seed = seed;
    testing::Workload w = testing::GenerateWorkload(config);
    for (const auto* group : {&w.schema, &w.data, &w.index_ddl, &w.queries}) {
      for (const std::string& sql : *group) {
        ASSERT_TRUE(MatchesReference(sql)) << "seed " << seed;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 3000u);
}

TEST(NormalizerDifferentialTest, NrefQueriesMatchReference) {
  workload::NrefConfig nref;
  std::vector<std::string> queries = workload::ComplexQuerySet(nref, 50);
  ASSERT_EQ(queries.size(), 50u);
  for (int64_t id : {0, 1, 42, 7999}) {
    queries.push_back(workload::PointQuery(id));
    queries.push_back(workload::SimpleJoinQuery(id));
  }
  for (const std::string& sql : workload::ManualOptimizationScript()) {
    queries.push_back(sql);
  }
  for (const std::string& sql : queries) ASSERT_TRUE(MatchesReference(sql));
}

TEST(NormalizerDifferentialTest, EdgeCasesMatchReference) {
  const char* cases[] = {
      // signed literals in and out of IN-lists
      "SELECT * FROM t WHERE id IN (-1, +2, 3)",
      "SELECT * FROM t WHERE id IN (- 1, -2.5, +true)",
      "SELECT * FROM t WHERE id IN (1 - 2)",
      "SELECT * FROM t WHERE id IN (1, -x)",
      "SELECT * FROM t WHERE id IN (-'a')",
      "SELECT * FROM t WHERE id IN ('a', 'b') AND v IN (1)",
      "SELECT * FROM t WHERE id IN ()",
      "SELECT * FROM t WHERE id IN (1,)",
      "SELECT * FROM t WHERE id IN ((1))",
      "SELECT * FROM t WHERE id IN (1",
      "SELECT * FROM t WHERE id IN",
      "SELECT * FROM t WHERE id NOT IN (1, 2) OR id IN (3)",
      "x in in (1) in (2",
      // binary minus vs unary sign
      "SELECT a - 1, a -1, a-1, -1, - 1, (a) - 1, (a) -1 FROM t",
      "SELECT 1 - 1, b - 1, 2 -- 1\n - -1 FROM t",
      "SELECT * FROM t WHERE x = - - 1 AND y = + - 2",
      "SELECT count(*) - 1 FROM t",
      "SELECT * - 1 FROM t",
      "SELECT hash - 1, text + 2, null - 3 FROM t",
      "SELECT a_1 - 1, b9 - 2 FROM t",
      "SELECT * FROM t WHERE x = -",
      "SELECT * FROM t WHERE x = 1 -",
      // boolean keyword literals
      "SELECT * FROM t WHERE live = true AND dead = FALSE",
      "SELECT * FROM t WHERE live = -true OR x = true - 1",
      "SELECT * FROM t WHERE live IN (true, false)",
      // terminators and comments
      "SELECT * FROM t;",
      "SELECT * FROM t ; ; ;",
      "; SELECT 1",
      ";",
      "",
      "   ",
      "SELECT 1; SELECT 2;",
      "SELECT 1 ; ; SELECT -2",
      "SELECT * FROM t -- trailing comment",
      "-- only a comment",
      "SELECT * -- inner\n FROM t WHERE id = 1 -- c\n;",
      // text that does not tokenize
      "SELECT 'unterminated",
      "SELECT @foo FROM t",
      "SELECT 1e999",
      "SELECT 99999999999999999999",
      "SELECT 1e",
      // misc shapes
      "INSERT INTO t VALUES (1, 'a', -2.5, true, NULL)",
      "UPDATE t SET v = v - 1, w = -1 WHERE id BETWEEN -5 AND +5",
      "DELETE FROM t WHERE name LIKE 'a%' AND x <> -1 AND y != +2",
      "select 1.5e3, .5, 2.5E-2 from t where a >= -0.25",
  };
  for (const char* text : cases) EXPECT_TRUE(MatchesReference(text));
}

TEST(NormalizerDifferentialTest, RandomTokenSoupMatchesReference) {
  // Statements assembled from the tokens the normalizer treats specially,
  // in any order, so sign folding, IN-lists and `;` meet every neighbour.
  const std::vector<std::string> alphabet = {
      "select", "in", "IN", "(", ")", ",", ";", "-", "+", "1", "2.5",
      "'s'", "true", "false", "null", "x", "y_2", "*", "=", "<>", "and",
      "values", "--c\n", "hash", "1e3"};
  std::mt19937_64 rng(20090329);
  for (int n = 0; n < 5000; ++n) {
    std::string text;
    int len = 1 + static_cast<int>(rng() % 14);
    for (int k = 0; k < len; ++k) {
      text += alphabet[rng() % alphabet.size()];
      if (rng() % 3 != 0) text.push_back(' ');
    }
    ASSERT_TRUE(MatchesReference(text));
  }
}

TEST(NormalizerTest, FingerprintsArePinned) {
  // wl_templates persists these keys across restarts and upgrades; a
  // change here strands every stored template row.
  struct Pin {
    const char* sql;
    const char* template_text;
    uint64_t fingerprint;
  };
  const Pin pins[] = {
      {"SELECT * FROM protein WHERE nref_id = 42",
       "select * from protein where nref_id = ?", 0xb58999b421e3136aULL},
      {"SELECT * FROM item WHERE id IN (1, -2, 3);",
       "select * from item where id in ( ? )", 0xa4a60323a9531153ULL},
      {"UPDATE t SET v = v - 1 WHERE live = true",
       "update t set v = v - ? where live = ?", 0xc368503e91dad0acULL},
  };
  for (const Pin& pin : pins) {
    NormalizedStatement n = NormalizeStatement(pin.sql);
    EXPECT_EQ(n.template_text, pin.template_text);
    EXPECT_EQ(n.fingerprint, pin.fingerprint) << pin.sql;
  }
}

TEST(NormalizerTest, NormalizeTokensReusesTemplateBuffer) {
  auto long_tokens = Tokenize(
      "SELECT a, b, c, d FROM some_table WHERE id = 1 AND name = 'x'");
  auto short_tokens = Tokenize("SELECT a FROM t WHERE id = 2");
  ASSERT_TRUE(long_tokens.ok() && short_tokens.ok());
  NormalizedStatement out;
  NormalizeTokens(*long_tokens, &out);
  const char* buffer = out.template_text.data();
  NormalizeTokens(*short_tokens, &out);
  EXPECT_EQ(out.template_text, "select a from t where id = ?");
  EXPECT_EQ(out.template_text.data(), buffer);  // no reallocation
  EXPECT_EQ(out.literal_count, 1u);
  EXPECT_TRUE(out.normalized);
  EXPECT_EQ(out.fingerprint, Mix64(HashStatement(out.template_text)));
}

TEST(NormalizerTest, TemplateMemoNormalizesOnceFromTokensOrText) {
  const std::string text = "SELECT a FROM t WHERE id IN (1, -2) ;";
  const NormalizedStatement want = NormalizeStatement(text);
  auto tokens = Tokenize(text);
  ASSERT_TRUE(tokens.ok());

  TemplateMemo from_tokens;
  const NormalizedStatement& first = from_tokens.Get(text, &*tokens);
  EXPECT_EQ(first.template_text, want.template_text);
  EXPECT_EQ(first.fingerprint, want.fingerprint);
  EXPECT_EQ(first.literal_count, want.literal_count);
  // Later calls return the memo as it is, whatever they pass.
  EXPECT_EQ(&from_tokens.Get("SELECT other FROM u", nullptr), &first);
  EXPECT_EQ(from_tokens.Get("SELECT other FROM u", nullptr).fingerprint,
            want.fingerprint);

  // Without tokens the first Get lexes the text, to the same template.
  TemplateMemo from_text;
  EXPECT_EQ(from_text.Get(text, nullptr).template_text, want.template_text);
  EXPECT_EQ(from_text.Get(text, nullptr).fingerprint, want.fingerprint);
}

TEST(NormalizerTest, Mix64Avalanches) {
  // Adjacent inputs must not produce adjacent outputs (the raw FNV/combine
  // values feeding sampling decisions are weak in the low bits).
  EXPECT_NE(Mix64(1) ^ Mix64(2), 3u);
  EXPECT_NE(Mix64(0), 0u);
}

}  // namespace
}  // namespace imon::sql
