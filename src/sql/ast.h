// Raw parse tree (unbound names), produced by the parser, consumed by the
// analyzer.
#ifndef GPHTAP_SQL_AST_H_
#define GPHTAP_SQL_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/datum.h"
#include "lock/lock_defs.h"

namespace gphtap {
namespace sql_ast {

// ---------- expressions ----------

enum class ExprNodeKind : uint8_t {
  kLiteral,
  kColumnRef,  // [table.]column
  kBinary,
  kNot,
  kIsNull,
  kIsNotNull,
  kFuncCall,   // aggregates and generate_series
  kStar,       // inside COUNT(*)
  kParam,      // $N positional parameter (PREPARE/EXECUTE)
};

struct ExprNode;
using ExprNodePtr = std::shared_ptr<ExprNode>;

struct ExprNode {
  ExprNodeKind kind = ExprNodeKind::kLiteral;
  Datum literal;
  std::string table;   // kColumnRef qualifier (may be empty)
  std::string column;  // kColumnRef name
  std::string op;      // kBinary: "+", "=", "and", ...
  std::string func;    // kFuncCall name (lowercased)
  std::vector<ExprNodePtr> args;  // binary: [l, r]; not/isnull: [x]; func: args
  int param = 0;       // kParam: 1-based position ($1, $2, ...)
};

// ---------- SELECT ----------

struct SelectItemNode {
  ExprNodePtr expr;
  std::string alias;  // may be empty
};

struct TableRefNode {
  std::string name;   // table name, or function name for function scans
  std::string alias;  // may be empty
  bool is_function = false;
  std::vector<ExprNodePtr> func_args;  // generate_series bounds
};

struct OrderItemNode {
  ExprNodePtr expr;  // column ref or integer position
  bool ascending = true;
};

struct SelectNode {
  bool distinct = false;
  std::vector<SelectItemNode> items;
  std::vector<TableRefNode> from;
  std::vector<ExprNodePtr> join_quals;  // from JOIN ... ON
  ExprNodePtr where;
  std::vector<ExprNodePtr> group_by;
  ExprNodePtr having;
  std::vector<OrderItemNode> order_by;
  int64_t limit = -1;
};

// ---------- DML ----------

struct InsertNode {
  std::string table;
  std::vector<std::string> columns;            // optional explicit column list
  std::vector<std::vector<ExprNodePtr>> rows;  // VALUES
  std::shared_ptr<SelectNode> select;          // INSERT ... SELECT
};

struct UpdateNode {
  std::string table;
  std::vector<std::pair<std::string, ExprNodePtr>> sets;
  ExprNodePtr where;
};

struct DeleteNode {
  std::string table;
  ExprNodePtr where;
};

// ---------- DDL ----------

struct ColumnDefNode {
  std::string name;
  std::string type;  // raw type word
};

struct PartitionDefNode {
  std::string name;
  std::optional<Datum> start;  // inclusive
  std::optional<Datum> end;    // exclusive
  std::vector<std::pair<std::string, std::string>> with_options;
  std::string external_path;  // EXTERNAL 'path'
};

struct CreateTableNode {
  std::string name;
  std::vector<ColumnDefNode> columns;
  std::vector<std::pair<std::string, std::string>> with_options;
  // distribution
  bool distributed_replicated = false;
  bool distributed_randomly = false;
  std::vector<std::string> distributed_by;
  // partitioning
  std::string partition_col;
  std::vector<PartitionDefNode> partitions;
};

struct CreateIndexNode {
  std::string index_name;
  std::string table;
  std::string column;
};

struct DropTableNode {
  std::string name;
  bool if_exists = false;
};

struct LockTableNode {
  std::string table;
  LockMode mode = LockMode::kAccessExclusive;
};

struct VacuumNode {
  std::string table;
};

struct ClusterNode {  // CLUSTER t [USING col]: transactional reorg rewrite
  std::string table;
  std::string using_col;  // empty = keep storage order, just rewrite live rows
};

struct RebalanceNode {  // REBALANCE TABLE t: migrate onto all serving segments
  std::string table;
};

struct TruncateNode {
  std::string table;
};

// ---------- resource groups / roles / settings ----------

struct CreateResourceGroupNode {
  std::string name;
  std::vector<std::pair<std::string, std::string>> options;  // raw key/value
};

struct DropResourceGroupNode {
  std::string name;
};

struct RoleResourceGroupNode {  // CREATE ROLE r RESOURCE GROUP g / ALTER ROLE ...
  std::string role;
  std::string group;
};

struct SetNode {
  std::string name;   // "role" or a GUC-ish name
  std::string value;
};

// ---------- prepared statements ----------

struct Statement;

struct PrepareNode {  // PREPARE name AS <statement>
  std::string name;
  std::shared_ptr<Statement> stmt;  // the parameterized inner statement
};

struct ExecuteStmtNode {  // EXECUTE name [( arg, ... )]
  std::string name;
  std::vector<ExprNodePtr> args;  // constant expressions
};

struct DeallocateNode {  // DEALLOCATE name
  std::string name;
};

// ---------- statement ----------

enum class StatementKind : uint8_t {
  kSelect,
  kInsert,
  kUpdate,
  kDelete,
  kCreateTable,
  kCreateIndex,
  kDropTable,
  kBegin,
  kCommit,
  kRollback,
  kLockTable,
  kVacuum,
  kCluster,
  kRebalance,
  kCreateResourceGroup,
  kDropResourceGroup,
  kCreateRole,
  kAlterRole,
  kSet,
  kShowTables,
  kExplain,  // EXPLAIN [ANALYZE] SELECT | UPDATE | DELETE (select, update or del)
  kTruncate,
  kPrepare,          // PREPARE name AS <stmt>
  kExecutePrepared,  // EXECUTE name(args)
  kDeallocate,       // DEALLOCATE name
};

struct Statement {
  StatementKind kind = StatementKind::kSelect;
  bool explain_analyze = false;  // EXPLAIN ANALYZE (kExplain only)
  std::shared_ptr<SelectNode> select;
  std::shared_ptr<InsertNode> insert;
  std::shared_ptr<UpdateNode> update;
  std::shared_ptr<DeleteNode> del;
  std::shared_ptr<CreateTableNode> create_table;
  std::shared_ptr<CreateIndexNode> create_index;
  std::shared_ptr<DropTableNode> drop_table;
  std::shared_ptr<LockTableNode> lock_table;
  std::shared_ptr<VacuumNode> vacuum;
  std::shared_ptr<ClusterNode> cluster;
  std::shared_ptr<RebalanceNode> rebalance;
  std::shared_ptr<TruncateNode> truncate;
  std::shared_ptr<CreateResourceGroupNode> create_resource_group;
  std::shared_ptr<DropResourceGroupNode> drop_resource_group;
  std::shared_ptr<RoleResourceGroupNode> role_resource_group;
  std::shared_ptr<SetNode> set;
  std::shared_ptr<PrepareNode> prepare;
  std::shared_ptr<ExecuteStmtNode> execute;
  std::shared_ptr<DeallocateNode> deallocate;
};

}  // namespace sql_ast
}  // namespace gphtap

#endif  // GPHTAP_SQL_AST_H_
