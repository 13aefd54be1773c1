#include "sql/normalizer.h"

#include <string_view>

#include "common/hash.h"

namespace imon::sql {

namespace {

bool IsLiteral(const Token& t) {
  switch (t.type) {
    case TokenType::kInteger:
    case TokenType::kFloat:
    case TokenType::kString:
      return true;
    case TokenType::kKeyword:
      return t.text == "true" || t.text == "false";
    default:
      return false;
  }
}

/// Tokens taken by the literal at tokens[i]: 1 for a literal, 2 for a
/// `-`/`+` folded into a following non-string literal, 0 otherwise. A
/// sign is unary, and folded, unless the previous emitted token can end
/// an expression (`after_operand`): an identifier, `)` or a placeholder.
size_t LiteralWidth(const std::vector<Token>& tokens, size_t i,
                    bool after_operand) {
  const Token& t = tokens[i];
  if (IsLiteral(t)) return 1;
  if (!after_operand && (t.IsSymbol("-") || t.IsSymbol("+")) &&
      i + 1 < tokens.size() && IsLiteral(tokens[i + 1]) &&
      tokens[i + 1].type != TokenType::kString) {
    return 2;
  }
  return 0;
}

/// Tokens taken by `( lit , lit ... )` starting at tokens[open] when every
/// element is a (possibly signed) literal, else 0; `*count` gets the
/// number of elements. VALUES lists never reach here: only IN-lists
/// collapse, because a VALUES arity is part of the statement's shape.
size_t LiteralListWidth(const std::vector<Token>& tokens, size_t open,
                        size_t* count) {
  size_t i = open + 1;
  for (size_t n = 1; i < tokens.size(); ++n) {
    size_t width = LiteralWidth(tokens, i, /*after_operand=*/false);
    if (width == 0 || i + width >= tokens.size()) return 0;
    i += width;
    if (tokens[i].IsSymbol(")")) {
      *count = n;
      return i + 1 - open;
    }
    if (!tokens[i].IsSymbol(",")) return 0;
    ++i;
  }
  return 0;
}

}  // namespace

void NormalizeTokens(const std::vector<Token>& tokens,
                     NormalizedStatement* out) {
  std::string& tmpl = out->template_text;
  tmpl.clear();
  out->literal_count = 0;
  // `;` tokens are held back until something follows them, so trailing
  // terminators never reach the template.
  size_t pending_semicolons = 0;
  auto emit = [&](std::string_view piece) {
    for (; pending_semicolons > 0; --pending_semicolons) {
      if (!tmpl.empty()) tmpl.push_back(' ');
      tmpl.push_back(';');
    }
    if (!tmpl.empty()) tmpl.push_back(' ');
    tmpl.append(piece);
  };
  bool after_operand = false;
  size_t i = 0;
  while (i < tokens.size() && tokens[i].type != TokenType::kEnd) {
    const Token& t = tokens[i];
    if (size_t width = LiteralWidth(tokens, i, after_operand)) {
      ++out->literal_count;
      emit("?");
      after_operand = true;
      i += width;
      continue;
    }
    ++i;
    if (t.IsSymbol(";")) {
      ++pending_semicolons;
      after_operand = false;
      continue;
    }
    emit(t.text);
    after_operand = t.type == TokenType::kIdentifier || t.IsSymbol(")");
    // `in ( ?, ?, ... )` with only literal elements -> `in ( ? )`.
    if (t.IsKeyword("in") && i < tokens.size() && tokens[i].IsSymbol("(")) {
      size_t count = 0;
      if (size_t width = LiteralListWidth(tokens, i, &count)) {
        out->literal_count += count;
        emit("( ? )");
        after_operand = true;
        i += width;
      }
    }
  }
  out->fingerprint = Mix64(HashStatement(tmpl));
  out->normalized = true;
}

NormalizedStatement NormalizeStatement(const std::string& text) {
  NormalizedStatement out;
  auto tokens = Tokenize(text);
  if (!tokens.ok()) {
    out.template_text = text;
    out.fingerprint = Mix64(HashStatement(text));
    return out;
  }
  NormalizeTokens(*tokens, &out);
  return out;
}

const NormalizedStatement& TemplateMemo::Get(
    const std::string& text, const std::vector<Token>* tokens) const {
  std::call_once(once_, [&] {
    if (tokens != nullptr) {
      NormalizeTokens(*tokens, &value_);
    } else {
      value_ = NormalizeStatement(text);
    }
  });
  return value_;
}

}  // namespace imon::sql
