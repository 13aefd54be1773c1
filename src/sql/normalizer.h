// Statement normalizer: rewrites a SQL text into a canonical template by
// replacing literals with `?` placeholders, collapsing IN-lists, and
// canonicalizing whitespace/case, then derives a stable 64-bit fingerprint.
// Statements that differ only in literal values share one template, which is
// the unit of workload compression (per-template rolling aggregates replace
// raw per-execution rows past the monitor's ring window).
//
// Canonicalization rules (documented in DESIGN.md §12):
//   - integer / float / string literals -> `?` (sign folded in when unary)
//   - `true` / `false` keyword literals -> `?`
//   - `IN ( ?, ?, ... )` with only literal elements -> `IN ( ? )`
//   - keywords and identifiers lower-cased (the lexer already does this)
//   - tokens joined by single spaces; comments and trailing `;` dropped
//   - `NULL` is kept verbatim: `IS NULL` is a predicate shape, not a literal

#ifndef IMON_SQL_NORMALIZER_H_
#define IMON_SQL_NORMALIZER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "sql/lexer.h"

namespace imon::sql {

struct NormalizedStatement {
  std::string template_text;  // canonical template, `?` for literals
  uint64_t fingerprint = 0;   // Mix64-finalized hash of template_text
  size_t literal_count = 0;   // literals replaced (before IN-list collapse)
  bool normalized = false;    // false: tokenize failed, raw text hashed as-is
};

/// Normalize tokens as Tokenize returns them (kEnd last) in one pass,
/// overwriting `*out`. The template is built in out->template_text, whose
/// capacity is reused: normalizing into the same NormalizedStatement again
/// allocates only when a template outgrows every earlier one.
void NormalizeTokens(const std::vector<Token>& tokens,
                     NormalizedStatement* out);

/// Normalize `text`: Tokenize + NormalizeTokens. Never fails: if the text
/// does not tokenize, the raw text becomes its own template
/// (normalized=false) so malformed statements still aggregate under a
/// stable fingerprint.
NormalizedStatement NormalizeStatement(const std::string& text);

/// A statement's template, normalized at most once and then shared by
/// every thread that executes the statement (a cached plan carries one).
/// The first Get normalizes `tokens` when the caller has them, else lexes
/// `text` (NormalizeStatement); every later Get returns that same value.
/// Thread-safe; an unused memo costs no normalization.
class TemplateMemo {
 public:
  const NormalizedStatement& Get(const std::string& text,
                                 const std::vector<Token>* tokens) const;

 private:
  mutable std::once_flag once_;
  mutable NormalizedStatement value_;
};

}  // namespace imon::sql

#endif  // IMON_SQL_NORMALIZER_H_
