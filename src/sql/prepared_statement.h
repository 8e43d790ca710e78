// Session-scoped prepared statements (PREPARE / EXECUTE / DEALLOCATE).
//
// PREPARE parses, binds and plans once, keeping the generic plan with kParam
// placeholders in its expressions. EXECUTE substitutes the argument values
// into a cloned plan tree (BindPlanParams) and runs it, skipping the
// parse/analyze/plan pipeline — the per-statement overhead the Greenplum
// paper's OLTP path (Section 6) pays only once per connection.
#ifndef GPHTAP_SQL_PREPARED_STATEMENT_H_
#define GPHTAP_SQL_PREPARED_STATEMENT_H_

#include <memory>
#include <string>

#include "plan/plan_cache.h"
#include "sql/analyzer.h"
#include "sql/ast.h"

namespace gphtap {

struct PreparedStatement {
  std::string name;
  // The parsed parameterized statement, bound and planned again when the
  // catalog version moves past plan->catalog_version.
  std::shared_ptr<const sql_ast::Statement> stmt;
  int num_params = 0;  // highest $N seen across the statement

  // Normalized fingerprint of the prepared text (FingerprintSql of the inner
  // statement): every EXECUTE is attributed to this in gp_stat_statements, so
  // prepared and literal forms of a statement aggregate onto one row.
  std::string fingerprint;

  // SELECT, UPDATE, DELETE: the generic plan. INSERT: the plan of its SELECT,
  // or for VALUES a plan with no root that carries only the catalog stamp.
  std::shared_ptr<const CachedPlan> plan;
  BoundInsert insert;  // INSERT: table, column positions, bound VALUES
};

}  // namespace gphtap

#endif  // GPHTAP_SQL_PREPARED_STATEMENT_H_
