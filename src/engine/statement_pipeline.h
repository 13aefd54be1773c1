// The explicit statement path: one StatementPipeline instance drives a
// single SQL statement through
//
//   Parse -> Bind -> Optimize -> Execute -> Commit
//
// owning the per-call monitor::QueryTrace, so every stage's sensor state
// is local to the call — no shared trace, no locks until the final
// Commit publishes into the monitor's shard for this session.
//
// A SELECT takes one path. With the plan cache on, a hit replays the
// cached PreparedSelect's bind and optimize sensors (optimizer time and
// I/O 0) and executes it. Otherwise Database::PrepareSelect binds, plans
// and summarizes the statement, firing those sensors with measured
// optimizer time and I/O; Run compiles its expression programs (the only
// compile site), stores it when the cache is on, and executes it through
// Database::RunPlannedSelect. EXPLAIN and what-if planning call the same
// PrepareSelect without a trace and without compiling, so they report
// exactly the plan an execution would run. Every other statement kind
// goes through Database::Dispatch.
//
// Each execution tokenizes its text at most once. The pipeline keeps the
// tokens until Commit: sql::ParseTokens reads them in place, and the
// trace points the monitor at them, so Commit normalizes the statement's
// template from the same vector, inside its own span. A SELECT whose plan
// goes into the cache hands the monitor the PreparedSelect's template
// memo, which that Commit fills from the tokens; a plan-cache hit commits
// with the memo and tokenizes nothing. An unmonitored execution never
// normalizes.
//
// Database::Execute is a thin wrapper that constructs a pipeline.

#ifndef IMON_ENGINE_STATEMENT_PIPELINE_H_
#define IMON_ENGINE_STATEMENT_PIPELINE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "monitor/monitor.h"
#include "sql/lexer.h"

namespace imon::engine {

class Database;
class Session;
struct QueryResult;

class StatementPipeline {
 public:
  /// Binds the pipeline to one engine + session. The session must
  /// outlive the pipeline; a pipeline runs exactly one statement.
  StatementPipeline(Database* db, Session* session);

  /// Run one statement end to end. On success the trace is committed to
  /// the monitor and the periodic statistics sampler is consulted.
  Result<QueryResult> Run(const std::string& sql);

  /// The per-call trace (for tests; populated after Run).
  const monitor::QueryTrace& trace() const { return trace_; }

 private:
  /// Publish the trace on success (shared tail of every path).
  Result<QueryResult> Finish(Result<QueryResult> result);

  Database* db_;
  Session* session_;
  /// The statement's tokens; trace_ points at them until Commit.
  std::vector<sql::Token> tokens_;
  monitor::QueryTrace trace_;
};

}  // namespace imon::engine

#endif  // IMON_ENGINE_STATEMENT_PIPELINE_H_
