// The TQL interpreter: parses, type-checks and executes statements against
// a Database, returning a printable result. Drives the REPL example, the
// script-based tests and the query benchmarks.
#ifndef TCHIMERA_QUERY_INTERPRETER_H_
#define TCHIMERA_QUERY_INTERPRETER_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "core/db/database.h"
#include "query/ast.h"
#include "query/evaluator.h"

namespace tchimera {

// Renders SELECT rows the way the REPL prints them: one row per line,
// columns " | "-joined, a bare oid when there are no projections,
// "(no results)" for an empty set. Shared by the interpreter and the
// compiled read path (query/session.cc) so both render identically.
std::string FormatSelectRows(const std::vector<SelectRow>& rows);

// Executes a read statement (TraitsOf(stmt->kind).read) against `db`,
// which it cannot mutate: this is what makes running reads on a pinned,
// published snapshot sound. A non-read statement is InvalidArgument.
Result<std::string> ExecuteReadStatement(Statement* stmt, const Database& db);

class Interpreter {
 public:
  // Does not take ownership; `db` must outlive the interpreter.
  explicit Interpreter(Database* db) : db_(db) {}

  // Parses and executes one statement; returns its printable outcome
  // (e.g. "i7" for CREATE, a table for SELECT, "ok" for updates).
  Result<std::string> Execute(std::string_view statement);

  // Executes a whole script (';'-separated); returns the concatenated
  // outputs, one line per statement. Stops at the first error.
  Result<std::string> ExecuteScript(std::string_view script);

  // Executes an already-parsed statement. Read kinds delegate to
  // ExecuteReadStatement; the trigger / constraint definition kinds need
  // the ActiveDatabase facade and are rejected here.
  Result<std::string> ExecuteStatement(Statement* stmt);

 private:
  Database* db_;
};

}  // namespace tchimera

#endif  // TCHIMERA_QUERY_INTERPRETER_H_
