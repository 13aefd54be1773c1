#include "engine/statement_pipeline.h"

#include <memory>
#include <utility>

#include "engine/database.h"
#include "exec/expr_program.h"
#include "sql/parser.h"

namespace imon::engine {

StatementPipeline::StatementPipeline(Database* db, Session* session)
    : db_(db), session_(session) {}

Result<QueryResult> StatementPipeline::Run(const std::string& sql) {
  // Internal sessions (the daemon's IMA polling) bypass the monitor so
  // self-observation does not flood the statement history.
  if (!session_->internal()) {
    db_->monitor_->OnQueryStart(&trace_, session_->id());
  }

  // Plan-cache fast path: a previously prepared SELECT is reused verbatim
  // while the catalog version is unchanged, template memo included, so a
  // hit neither parses nor lexes.
  const bool cache = db_->options_.plan_cache_capacity > 0;
  const uint64_t hash = cache ? HashStatement(sql) : 0;
  std::shared_ptr<const PreparedSelect> hit =
      cache ? db_->LookupPlanCache(hash) : nullptr;
  if (hit != nullptr) {
    db_->monitor_->OnParseComplete(&trace_, sql, hit->template_memo);
    db_->ReplayPlanSensors(*hit, &trace_);
    return Finish(db_->RunPlannedSelect(*hit, session_, &trace_));
  }

  // The one tokenization of this execution: the parser reads the tokens
  // in place and the monitor normalizes the same vector at Commit.
  IMON_ASSIGN_OR_RETURN(tokens_, sql::Tokenize(sql));
  IMON_ASSIGN_OR_RETURN(sql::StatementPtr stmt, sql::ParseTokens(tokens_));
  db_->monitor_->OnParseComplete(&trace_, sql, tokens_);
  if (stmt->kind() != sql::StatementKind::kSelect) {
    return Finish(db_->Dispatch(stmt.get(), session_, &trace_));
  }

  IMON_ASSIGN_OR_RETURN(std::shared_ptr<PreparedSelect> prepared,
                        db_->PrepareSelect(std::move(stmt), &trace_));
  // Compile expressions into flat programs once, here, so every
  // plan-cache hit replays them. The executor runs nothing else.
  IMON_ASSIGN_OR_RETURN(
      prepared->compiled,
      exec::CompiledSelect::Compile(prepared->bound, *prepared->plan));
  if (cache) {
    // Commit normalizes this execution's tokens into the plan's memo,
    // which every later hit commits with.
    db_->monitor_->OnPlanCached(&trace_, prepared->template_memo);
    db_->StorePlanCache(hash, prepared);
  }
  return Finish(db_->RunPlannedSelect(*prepared, session_, &trace_));
}

Result<QueryResult> StatementPipeline::Finish(Result<QueryResult> result) {
  if (result.ok()) {
    db_->monitor_->Commit(&trace_);
    db_->MaybeSampleStats();
  }
  return result;
}

}  // namespace imon::engine
