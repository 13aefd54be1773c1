#include "sql/lexer.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <unordered_set>

namespace imon::sql {

namespace {

const std::unordered_set<std::string>& Keywords() {
  static const std::unordered_set<std::string> kw = {
      "select", "from",    "where",   "join",     "inner",    "on",
      "and",    "or",      "not",     "group",    "by",       "order",
      "having", "limit",   "asc",     "desc",     "distinct", "as",
      "insert", "into",    "values",  "update",   "set",      "delete",
      "create", "drop",    "table",   "index",    "unique",   "primary",
      "key",    "null",    "is",      "in",       "between",  "like",
      "int",    "integer", "bigint",  "double",   "float",    "real",
      "text",   "varchar", "char",    "modify",   "to",       "btree",
      "heap",   "hash",    "isam",    "analyze", "trigger", "after",    "when",     "raise",
      "explain","with",    "main_pages", "if",    "exists",   "true",
      "false",  "begin",   "commit",  "rollback",
  };
  return kw;
}

}  // namespace

Result<std::vector<Token>> Tokenize(const std::string& input) {
  std::vector<Token> tokens;
  // A token averages well over four bytes of input; one allocation up
  // front instead of regrowing the vector (and moving every token).
  tokens.reserve(input.size() / 4 + 2);
  size_t i = 0;
  const size_t n = input.size();
  while (i < n) {
    char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // -- comments: -- to end of line
    if (c == '-' && i + 1 < n && input[i + 1] == '-') {
      while (i < n && input[i] != '\n') ++i;
      continue;
    }
    Token tok;
    tok.position = i;
    // -- identifiers / keywords
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(input[i])) ||
                       input[i] == '_')) {
        ++i;
      }
      tok.text.assign(input, start, i - start);
      for (char& ch : tok.text) ch = static_cast<char>(std::tolower(ch));
      tok.type = Keywords().count(tok.text) ? TokenType::kKeyword
                                            : TokenType::kIdentifier;
      tokens.push_back(std::move(tok));
      continue;
    }
    // -- numbers
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(input[i + 1])))) {
      size_t start = i;
      bool is_float = false;
      while (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) ++i;
      if (i < n && input[i] == '.') {
        is_float = true;
        ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(input[i])))
          ++i;
      }
      if (i < n && (input[i] == 'e' || input[i] == 'E')) {
        is_float = true;
        ++i;
        if (i < n && (input[i] == '+' || input[i] == '-')) ++i;
        if (i >= n || !std::isdigit(static_cast<unsigned char>(input[i])))
          return Status::InvalidArgument("malformed exponent at position " +
                                         std::to_string(start));
        while (i < n && std::isdigit(static_cast<unsigned char>(input[i])))
          ++i;
      }
      std::string num = input.substr(start, i - start);
      if (is_float) {
        tok.type = TokenType::kFloat;
        // strtod flags subnormal results as ERANGE too, though a double
        // holds them; out of range is overflow to infinity, or a nonzero
        // mantissa that underflows to zero.
        tok.double_value = std::strtod(num.c_str(), nullptr);
        if (std::isinf(tok.double_value) ||
            (tok.double_value == 0 &&
             num.find_first_of("123456789") < num.find_first_of("eE"))) {
          return Status::InvalidArgument("float literal out of range: " +
                                         num);
        }
      } else {
        tok.type = TokenType::kInteger;
        try {
          tok.int_value = std::stoll(num);
        } catch (...) {
          return Status::InvalidArgument("integer literal out of range: " +
                                         num);
        }
      }
      tok.text = std::move(num);
      tokens.push_back(std::move(tok));
      continue;
    }
    // -- string literals
    if (c == '\'') {
      ++i;
      std::string payload;
      bool closed = false;
      while (i < n) {
        if (input[i] == '\'') {
          if (i + 1 < n && input[i + 1] == '\'') {
            payload.push_back('\'');
            i += 2;
            continue;
          }
          closed = true;
          ++i;
          break;
        }
        payload.push_back(input[i]);
        ++i;
      }
      if (!closed)
        return Status::InvalidArgument("unterminated string literal");
      tok.type = TokenType::kString;
      tok.str_value = std::move(payload);
      tokens.push_back(std::move(tok));
      continue;
    }
    // -- multi-char symbols
    auto two = [&](const char* sym) {
      tok.type = TokenType::kSymbol;
      tok.text = sym;
      tokens.push_back(std::move(tok));
      i += 2;
    };
    if (c == '<' && i + 1 < n && input[i + 1] == '=') {
      two("<=");
      continue;
    }
    if (c == '>' && i + 1 < n && input[i + 1] == '=') {
      two(">=");
      continue;
    }
    if (c == '<' && i + 1 < n && input[i + 1] == '>') {
      two("<>");
      continue;
    }
    if (c == '!' && i + 1 < n && input[i + 1] == '=') {
      two("<>");
      continue;
    }
    // -- single-char symbols
    static const std::string kSingles = "()*,.;=<>+-/%";
    if (kSingles.find(c) != std::string::npos) {
      tok.type = TokenType::kSymbol;
      tok.text = std::string(1, c);
      tokens.push_back(std::move(tok));
      ++i;
      continue;
    }
    return Status::InvalidArgument("unexpected character '" +
                                   std::string(1, c) + "' at position " +
                                   std::to_string(i));
  }
  Token end;
  end.type = TokenType::kEnd;
  end.position = n;
  tokens.push_back(std::move(end));
  return tokens;
}

}  // namespace imon::sql
