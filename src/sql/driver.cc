#include "sql/driver.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <optional>

#include "cluster/session.h"
#include "sql/analyzer.h"
#include "sql/parser.h"
#include "sql/prepared_statement.h"
#include "stats/fingerprint.h"

namespace gphtap {
namespace sql_driver {

namespace {

using sql_ast::ExprNode;
using sql_ast::ExprNodeKind;
using sql_ast::Statement;
using sql_ast::StatementKind;

StatusOr<TypeId> BindType(const std::string& t) {
  if (t == "int" || t == "integer" || t == "bigint" || t == "smallint" || t == "int4" ||
      t == "int8" || t == "int2" || t == "serial" || t == "bigserial") {
    return TypeId::kInt64;
  }
  if (t == "double" || t == "float" || t == "float4" || t == "float8" || t == "real" ||
      t == "numeric" || t == "decimal") {
    return TypeId::kDouble;
  }
  if (t == "text" || t == "varchar" || t == "char" || t == "string" || t == "character") {
    return TypeId::kString;
  }
  return Status::NotSupported("type " + t);
}

StatusOr<CompressionKind> BindCompression(const std::string& name) {
  if (name == "none") return CompressionKind::kNone;
  if (name == "rle" || name == "rle_type") return CompressionKind::kRle;
  if (name == "delta") return CompressionKind::kDelta;
  if (name == "dict" || name == "dictionary") return CompressionKind::kDict;
  // The paper's codecs map onto our from-scratch LZ byte codec.
  if (name == "lz" || name == "zlib" || name == "zstd" || name == "quicklz") {
    return CompressionKind::kLz;
  }
  return Status::NotSupported("compression " + name);
}

StatusOr<StorageKind> BindStorageOptions(
    const std::vector<std::pair<std::string, std::string>>& options,
    CompressionKind* compression) {
  StorageKind storage = StorageKind::kHeap;
  bool appendonly = false;
  bool column_oriented = false;
  for (const auto& [key, value] : options) {
    if (key == "storage") {
      if (value == "heap") {
        storage = StorageKind::kHeap;
      } else if (value == "ao_row" || value == "appendonly_row") {
        storage = StorageKind::kAoRow;
      } else if (value == "ao_column" || value == "ao_col" || value == "column") {
        storage = StorageKind::kAoColumn;
      } else if (value == "external") {
        storage = StorageKind::kExternal;
      } else {
        return Status::NotSupported("storage " + value);
      }
    } else if (key == "appendonly" || key == "appendoptimized") {
      appendonly = value == "true";
    } else if (key == "orientation") {
      column_oriented = value == "column";
    } else if (key == "compresstype" || key == "compress") {
      GPHTAP_ASSIGN_OR_RETURN(*compression, BindCompression(value));
    } else {
      return Status::NotSupported("table option " + key);
    }
  }
  if (appendonly) storage = column_oriented ? StorageKind::kAoColumn : StorageKind::kAoRow;
  return storage;
}

// `sql`: the statement text, used as the plan-cache key for top-level SELECTs;
// null for embedded selects (INSERT ... SELECT) which skip the cache.
StatusOr<QueryResult> RunSelect(Session* session, const sql_ast::SelectNode& node,
                                const std::string* sql = nullptr) {
  Cluster* cluster = session->cluster();
  if (sql != nullptr && session->PlanCacheEligible()) {
    auto hit = cluster->plan_cache().Lookup(*sql, cluster->catalog_version());
    if (hit != nullptr) {
      session->NoteStmtPlanCacheHit();
      return session->ExecuteCachedPlan(std::move(hit));
    }
  }
  Analyzer analyzer(cluster);
  GPHTAP_ASSIGN_OR_RETURN(SelectQuery q, analyzer.BindSelect(node));
  return session->ExecuteSelect(q, sql);
}

StatusOr<QueryResult> RunCreateTable(Session* session,
                                     const sql_ast::CreateTableNode& ct) {
  TableDef def;
  def.name = ct.name;
  std::vector<Column> cols;
  for (const auto& c : ct.columns) {
    GPHTAP_ASSIGN_OR_RETURN(TypeId type, BindType(c.type));
    cols.push_back({c.name, type});
  }
  def.schema = Schema(std::move(cols));

  GPHTAP_ASSIGN_OR_RETURN(def.storage, BindStorageOptions(ct.with_options,
                                                          &def.compression));

  if (ct.distributed_replicated) {
    def.distribution = DistributionPolicy::Replicated();
  } else if (ct.distributed_randomly) {
    def.distribution = DistributionPolicy::Random();
  } else if (!ct.distributed_by.empty()) {
    std::vector<int> key;
    for (const std::string& c : ct.distributed_by) {
      int idx = def.schema.FindColumn(c);
      if (idx < 0) return Status::NotFound("distribution column " + c);
      key.push_back(idx);
    }
    def.distribution = DistributionPolicy::Hash(std::move(key));
  } else {
    def.distribution = DistributionPolicy::Hash({0});  // Greenplum default
  }

  if (!ct.partitions.empty()) {
    PartitionSpec spec;
    spec.partition_col = def.schema.FindColumn(ct.partition_col);
    if (spec.partition_col < 0) {
      return Status::NotFound("partition column " + ct.partition_col);
    }
    for (const auto& p : ct.partitions) {
      RangePartitionSpec r;
      r.name = p.name;
      r.lower = p.start.value_or(Datum::Null());
      r.upper = p.end.value_or(Datum::Null());
      CompressionKind comp = def.compression;
      GPHTAP_ASSIGN_OR_RETURN(r.storage, BindStorageOptions(p.with_options, &comp));
      if (!p.external_path.empty()) {
        r.storage = StorageKind::kExternal;
        r.external_path = p.external_path;
      }
      spec.ranges.push_back(std::move(r));
    }
    def.partitions = std::move(spec);
  }

  GPHTAP_RETURN_IF_ERROR(session->cluster()->CreateTable(std::move(def)));
  return QueryResult{};
}

StatusOr<QueryResult> RunResourceGroup(Session* session,
                                       const sql_ast::CreateResourceGroupNode& node) {
  ResourceGroupConfig config;
  config.name = node.name;
  for (const auto& [key, value] : node.options) {
    if (key == "concurrency") {
      config.concurrency = std::atoi(value.c_str());
    } else if (key == "cpu_rate_limit") {
      config.cpu_rate_limit = std::atof(value.c_str());
    } else if (key == "cpu_set") {
      size_t dash = value.find('-');
      if (dash == std::string::npos) {
        config.cpuset_begin = config.cpuset_end = std::atoi(value.c_str());
      } else {
        config.cpuset_begin = std::atoi(value.substr(0, dash).c_str());
        config.cpuset_end = std::atoi(value.substr(dash + 1).c_str());
      }
    } else if (key == "memory_limit") {
      config.memory_limit_mb = std::atoll(value.c_str());
    } else if (key == "memory_shared_quota") {
      config.memory_shared_quota = std::atoi(value.c_str());
    } else {
      return Status::NotSupported("resource group option " + key);
    }
  }
  GPHTAP_RETURN_IF_ERROR(session->cluster()->resgroups().CreateGroup(config));
  return QueryResult{};
}

// ---------- PREPARE / EXECUTE parameter machinery ----------

// Highest $N appearing in an (unbound) expression tree.
int MaxParam(const sql_ast::ExprNodePtr& e) {
  if (e == nullptr) return 0;
  int m = e->kind == ExprNodeKind::kParam ? e->param : 0;
  for (const auto& a : e->args) m = std::max(m, MaxParam(a));
  return m;
}

int MaxParamInSelect(const sql_ast::SelectNode& s) {
  int m = 0;
  for (const auto& item : s.items) m = std::max(m, MaxParam(item.expr));
  for (const auto& t : s.from) {
    for (const auto& a : t.func_args) m = std::max(m, MaxParam(a));
  }
  for (const auto& q : s.join_quals) m = std::max(m, MaxParam(q));
  m = std::max(m, MaxParam(s.where));
  for (const auto& g : s.group_by) m = std::max(m, MaxParam(g));
  m = std::max(m, MaxParam(s.having));
  for (const auto& o : s.order_by) m = std::max(m, MaxParam(o.expr));
  return m;
}

int MaxParamInStatement(const Statement& stmt) {
  switch (stmt.kind) {
    case StatementKind::kSelect:
      return MaxParamInSelect(*stmt.select);
    case StatementKind::kInsert: {
      int m = 0;
      for (const auto& row : stmt.insert->rows) {
        for (const auto& e : row) m = std::max(m, MaxParam(e));
      }
      if (stmt.insert->select != nullptr) {
        m = std::max(m, MaxParamInSelect(*stmt.insert->select));
      }
      return m;
    }
    case StatementKind::kUpdate: {
      int m = MaxParam(stmt.update->where);
      for (const auto& [col, e] : stmt.update->sets) m = std::max(m, MaxParam(e));
      return m;
    }
    case StatementKind::kDelete:
      return MaxParam(stmt.del->where);
    default:
      return 0;
  }
}

// Clones an unbound expression with every $N replaced by its literal value.
// Param-free subtrees are shared (the analyzer never mutates parse nodes).
sql_ast::ExprNodePtr SubstParams(const sql_ast::ExprNodePtr& e,
                                 const std::vector<Datum>& params) {
  if (e == nullptr) return nullptr;
  if (MaxParam(e) == 0) return e;
  auto c = std::make_shared<ExprNode>(*e);
  if (e->kind == ExprNodeKind::kParam) {
    c->kind = ExprNodeKind::kLiteral;
    c->literal = params[static_cast<size_t>(e->param - 1)];
    c->param = 0;
    return c;
  }
  for (auto& a : c->args) a = SubstParams(a, params);
  return c;
}

std::shared_ptr<sql_ast::SelectNode> SubstParamsInSelect(
    const sql_ast::SelectNode& s, const std::vector<Datum>& params) {
  auto c = std::make_shared<sql_ast::SelectNode>(s);
  for (auto& item : c->items) item.expr = SubstParams(item.expr, params);
  for (auto& t : c->from) {
    for (auto& a : t.func_args) a = SubstParams(a, params);
  }
  for (auto& q : c->join_quals) q = SubstParams(q, params);
  c->where = SubstParams(c->where, params);
  for (auto& g : c->group_by) g = SubstParams(g, params);
  c->having = SubstParams(c->having, params);
  for (auto& o : c->order_by) o.expr = SubstParams(o.expr, params);
  return c;
}

// Clones the prepared statement with EXECUTE's argument values substituted.
Statement SubstParamsInStatement(const Statement& stmt,
                                 const std::vector<Datum>& params) {
  Statement out = stmt;
  switch (stmt.kind) {
    case StatementKind::kSelect:
      out.select = SubstParamsInSelect(*stmt.select, params);
      break;
    case StatementKind::kInsert: {
      out.insert = std::make_shared<sql_ast::InsertNode>(*stmt.insert);
      for (auto& row : out.insert->rows) {
        for (auto& e : row) e = SubstParams(e, params);
      }
      if (out.insert->select != nullptr) {
        out.insert->select = SubstParamsInSelect(*out.insert->select, params);
      }
      break;
    }
    case StatementKind::kUpdate: {
      out.update = std::make_shared<sql_ast::UpdateNode>(*stmt.update);
      for (auto& [col, e] : out.update->sets) e = SubstParams(e, params);
      out.update->where = SubstParams(out.update->where, params);
      break;
    }
    case StatementKind::kDelete: {
      out.del = std::make_shared<sql_ast::DeleteNode>(*stmt.del);
      out.del->where = SubstParams(out.del->where, params);
      break;
    }
    default:
      break;
  }
  return out;
}

StatusOr<QueryResult> RunPrepare(Session* session, const sql_ast::PrepareNode& node,
                                 const std::string* sql);
StatusOr<QueryResult> RunExecutePrepared(Session* session,
                                         const sql_ast::ExecuteStmtNode& node);

StatusOr<QueryResult> DispatchStatement(Session* session, const Statement& stmt,
                                        const std::string* sql) {
  Analyzer analyzer(session->cluster());

  switch (stmt.kind) {
    case StatementKind::kSelect:
      return RunSelect(session, *stmt.select, sql);

    case StatementKind::kPrepare:
      return RunPrepare(session, *stmt.prepare, sql);

    case StatementKind::kExecutePrepared:
      return RunExecutePrepared(session, *stmt.execute);

    case StatementKind::kDeallocate: {
      if (stmt.deallocate->name == "*") {
        session->ClearPrepared();
        return QueryResult{};
      }
      if (!session->RemovePrepared(stmt.deallocate->name)) {
        return Status::NotFound("prepared statement " + stmt.deallocate->name +
                                " does not exist");
      }
      return QueryResult{};
    }

    case StatementKind::kExplain: {
      if (stmt.update != nullptr) {
        GPHTAP_ASSIGN_OR_RETURN(BoundUpdate bound, analyzer.BindUpdate(*stmt.update));
        return session->ExplainModify(bound.table, &bound.sets, bound.where,
                                      stmt.explain_analyze);
      }
      if (stmt.del != nullptr) {
        GPHTAP_ASSIGN_OR_RETURN(BoundDelete bound, analyzer.BindDelete(*stmt.del));
        return session->ExplainModify(bound.table, nullptr, bound.where,
                                      stmt.explain_analyze);
      }
      GPHTAP_ASSIGN_OR_RETURN(SelectQuery q, analyzer.BindSelect(*stmt.select));
      return session->ExplainSelect(q, stmt.explain_analyze);
    }

    case StatementKind::kInsert: {
      GPHTAP_ASSIGN_OR_RETURN(BoundInsert bound, analyzer.BindInsert(*stmt.insert));
      if (bound.select != nullptr) {
        GPHTAP_ASSIGN_OR_RETURN(QueryResult sel, RunSelect(session, *bound.select));
        // Re-shape the selected rows through the optional column list.
        std::vector<int> positions;
        const Schema& schema = bound.table.schema;
        if (!stmt.insert->columns.empty()) {
          for (const std::string& col : stmt.insert->columns) {
            positions.push_back(schema.FindColumn(col));
          }
        } else {
          for (size_t i = 0; i < schema.num_columns(); ++i) {
            positions.push_back(static_cast<int>(i));
          }
        }
        std::vector<Row> rows;
        rows.reserve(sel.rows.size());
        for (Row& r : sel.rows) {
          if (r.size() != positions.size()) {
            return Status::InvalidArgument("INSERT SELECT arity mismatch");
          }
          Row full(schema.num_columns(), Datum::Null());
          for (size_t i = 0; i < positions.size(); ++i) {
            full[static_cast<size_t>(positions[i])] = std::move(r[i]);
          }
          rows.push_back(std::move(full));
        }
        return session->ExecuteInsert(bound.table, rows);
      }
      return session->ExecuteInsert(bound.table, bound.rows);
    }

    case StatementKind::kUpdate: {
      GPHTAP_ASSIGN_OR_RETURN(BoundUpdate bound, analyzer.BindUpdate(*stmt.update));
      return session->ExecuteUpdate(bound.table, bound.sets, bound.where);
    }

    case StatementKind::kDelete: {
      GPHTAP_ASSIGN_OR_RETURN(BoundDelete bound, analyzer.BindDelete(*stmt.del));
      return session->ExecuteDelete(bound.table, bound.where);
    }

    case StatementKind::kCreateTable:
      return RunCreateTable(session, *stmt.create_table);

    case StatementKind::kCreateIndex:
      GPHTAP_RETURN_IF_ERROR(session->cluster()->CreateIndex(
          stmt.create_index->table, stmt.create_index->column));
      return QueryResult{};

    case StatementKind::kDropTable: {
      Status s = session->cluster()->DropTable(stmt.drop_table->name);
      if (!s.ok() && !(stmt.drop_table->if_exists && s.code() == StatusCode::kNotFound)) {
        return s;
      }
      return QueryResult{};
    }

    case StatementKind::kBegin:
      GPHTAP_RETURN_IF_ERROR(session->Begin());
      return QueryResult{};
    case StatementKind::kCommit:
      GPHTAP_RETURN_IF_ERROR(session->Commit());
      return QueryResult{};
    case StatementKind::kRollback:
      GPHTAP_RETURN_IF_ERROR(session->Rollback());
      return QueryResult{};

    case StatementKind::kLockTable: {
      GPHTAP_ASSIGN_OR_RETURN(TableDef def,
                              session->cluster()->LookupTable(stmt.lock_table->table));
      GPHTAP_RETURN_IF_ERROR(session->LockTable(def, stmt.lock_table->mode));
      return QueryResult{};
    }

    case StatementKind::kTruncate: {
      GPHTAP_ASSIGN_OR_RETURN(TableDef def,
                              session->cluster()->LookupTable(stmt.truncate->table));
      return session->ExecuteTruncate(def);
    }

    case StatementKind::kVacuum: {
      GPHTAP_ASSIGN_OR_RETURN(TableDef def,
                              session->cluster()->LookupTable(stmt.vacuum->table));
      return session->ExecuteVacuum(def);
    }

    case StatementKind::kCluster: {
      GPHTAP_ASSIGN_OR_RETURN(TableDef def,
                              session->cluster()->LookupTable(stmt.cluster->table));
      int order_col = -1;
      if (!stmt.cluster->using_col.empty()) {
        order_col = def.schema.FindColumn(stmt.cluster->using_col);
        if (order_col < 0) {
          return Status::InvalidArgument("CLUSTER: no such column: " +
                                         stmt.cluster->using_col);
        }
      }
      return session->ExecuteCluster(def, order_col);
    }

    case StatementKind::kRebalance:
      return session->ExecuteRebalance(stmt.rebalance->table);

    case StatementKind::kCreateResourceGroup:
      return RunResourceGroup(session, *stmt.create_resource_group);

    case StatementKind::kDropResourceGroup:
      GPHTAP_RETURN_IF_ERROR(
          session->cluster()->resgroups().DropGroup(stmt.drop_resource_group->name));
      return QueryResult{};

    case StatementKind::kCreateRole:
    case StatementKind::kAlterRole:
      if (!stmt.role_resource_group->group.empty()) {
        GPHTAP_RETURN_IF_ERROR(session->cluster()->resgroups().AssignRole(
            stmt.role_resource_group->role, stmt.role_resource_group->group));
      }
      return QueryResult{};

    case StatementKind::kSet: {
      if (stmt.set->name == "role") {
        session->SetRole(stmt.set->value);
        return QueryResult{};
      }
      // Timeout GUCs take a millisecond count (PostgreSQL's default unit for
      // statement_timeout / lock_timeout); 0 disables.
      auto parse_timeout_ms = [&]() -> StatusOr<int64_t> {
        const std::string& v = stmt.set->value;
        if (v.empty()) return Status::InvalidArgument("SET " + stmt.set->name +
                                                      " requires a value");
        char* end = nullptr;
        long long ms = std::strtoll(v.c_str(), &end, 10);
        if (end == v.c_str() || *end != '\0' || ms < 0) {
          return Status::InvalidArgument("invalid value for " + stmt.set->name +
                                         ": " + v);
        }
        return static_cast<int64_t>(ms) * 1000;
      };
      if (stmt.set->name == "statement_timeout") {
        GPHTAP_ASSIGN_OR_RETURN(int64_t us, parse_timeout_ms());
        session->set_statement_timeout_us(us);
      } else if (stmt.set->name == "lock_timeout") {
        GPHTAP_ASSIGN_OR_RETURN(int64_t us, parse_timeout_ms());
        session->set_lock_timeout_us(us);
      } else if (stmt.set->name == "admission_timeout") {
        GPHTAP_ASSIGN_OR_RETURN(int64_t us, parse_timeout_ms());
        session->set_admission_timeout_us(us);
      } else if (stmt.set->name == "vectorized_execution") {
        // Engine-choice override for A/B comparisons (differential tests,
        // bench baselines). "default" reverts to the cluster option.
        std::string v = stmt.set->value;
        for (char& c : v) c = static_cast<char>(std::tolower(c));
        if (v == "on" || v == "true" || v == "1") {
          session->set_vectorize_override(true);
        } else if (v == "off" || v == "false" || v == "0") {
          session->set_vectorize_override(false);
        } else if (v == "default" || v.empty()) {
          session->set_vectorize_override(std::nullopt);
        } else {
          return Status::InvalidArgument(
              "invalid value for vectorized_execution: " + stmt.set->value);
        }
      }
      // Other settings are accepted and ignored (GUC compatibility).
      return QueryResult{};
    }

    case StatementKind::kShowTables: {
      QueryResult r;
      r.columns = {"table_name", "storage", "distribution"};
      for (const TableDef& def : session->cluster()->ListTables()) {
        const char* dist = def.distribution.kind == DistributionKind::kHash ? "hash"
                           : def.distribution.kind == DistributionKind::kReplicated
                               ? "replicated"
                               : "random";
        r.rows.push_back(Row{Datum(def.name), Datum(std::string(StorageKindName(def.storage))),
                             Datum(std::string(dist))});
      }
      r.affected = static_cast<int64_t>(r.rows.size());
      return r;
    }
  }
  return Status::Internal("unhandled statement kind");
}

// Does any conjunct pin a combined-layout column to a parameter? Collects the
// pinned columns (the same shape ExtractEqualityConst matches for constants).
void CollectParamEqCols(const Expr& e, std::vector<int>* cols) {
  if (e.kind == ExprKind::kBinary && e.op == BinOp::kAnd) {
    CollectParamEqCols(*e.left, cols);
    CollectParamEqCols(*e.right, cols);
    return;
  }
  if (e.kind != ExprKind::kBinary || e.op != BinOp::kEq) return;
  const Expr& l = *e.left;
  const Expr& r = *e.right;
  if (l.kind == ExprKind::kColumn && r.kind == ExprKind::kParam) {
    cols->push_back(l.column);
  } else if (r.kind == ExprKind::kColumn && l.kind == ExprKind::kParam) {
    cols->push_back(r.column);
  }
}

// Postgres keeps re-planning per EXECUTE ("custom plans") when the generic
// plan is structurally worse. Here that is exactly when a parameter pins an
// indexed column or a hash-distribution key: planned as an opaque parameter
// the scan forfeits the index lookup and direct dispatch a constant would
// get, turning a one-segment point read into a full-cluster seq scan.
bool GenericPlanForfeitsKeyLookup(const SelectQuery& q) {
  std::vector<int> cols;
  for (const ExprPtr& qual : q.quals) {
    if (qual != nullptr) CollectParamEqCols(*qual, &cols);
  }
  if (cols.empty()) return false;
  for (int col : cols) {
    int offset = 0;
    for (const TableDef& t : q.tables) {
      int n = static_cast<int>(t.schema.num_columns());
      if (col < offset + n) {
        int local = col - offset;
        for (int ic : t.indexed_cols) {
          if (ic == local) return true;
        }
        if (t.distribution.kind == DistributionKind::kHash) {
          for (int kc : t.distribution.key_cols) {
            if (kc == local) return true;
          }
        }
        break;
      }
      offset += n;
    }
  }
  return false;
}

StatusOr<QueryResult> RunPrepare(Session* session, const sql_ast::PrepareNode& node,
                                 const std::string* sql) {
  const Statement& inner = *node.stmt;
  switch (inner.kind) {
    case StatementKind::kSelect:
    case StatementKind::kInsert:
    case StatementKind::kUpdate:
    case StatementKind::kDelete:
      break;
    default:
      return Status::NotSupported("PREPARE supports SELECT/INSERT/UPDATE/DELETE");
  }
  auto ps = std::make_shared<PreparedStatement>();
  ps->name = node.name;
  ps->stmt = node.stmt;
  ps->num_params = MaxParamInStatement(inner);
  // FingerprintSql strips the PREPARE..AS wrapper, so this equals the inner
  // statement's fingerprint and EXECUTEs aggregate with the literal form.
  if (sql != nullptr) ps->fingerprint = FingerprintSql(*sql);
  // SELECTs get their generic plan now; EXECUTE only substitutes values into
  // a clone. DML re-binds per EXECUTE (still skipping the parse).
  if (inner.kind == StatementKind::kSelect) {
    Analyzer analyzer(session->cluster());
    GPHTAP_ASSIGN_OR_RETURN(SelectQuery q, analyzer.BindSelect(*inner.select));
    if (!GenericPlanForfeitsKeyLookup(q)) {
      GPHTAP_RETURN_IF_ERROR(session->PlanForPrepare(q, ps.get()));
    }
    // else: custom-plan mode — EXECUTE substitutes values into the parse
    // tree and plans fresh, keeping index scans / direct dispatch.
  }
  session->PutPrepared(node.name, std::move(ps));
  return QueryResult{};
}

StatusOr<QueryResult> RunExecutePrepared(Session* session,
                                         const sql_ast::ExecuteStmtNode& node) {
  std::shared_ptr<PreparedStatement> ps = session->GetPrepared(node.name);
  if (ps == nullptr) {
    return Status::NotFound("prepared statement " + node.name + " does not exist");
  }
  if (static_cast<int>(node.args.size()) != ps->num_params) {
    return Status::InvalidArgument(
        "wrong number of parameters for " + node.name + ": expected " +
        std::to_string(ps->num_params) + ", got " +
        std::to_string(node.args.size()));
  }
  std::vector<Datum> params;
  params.reserve(node.args.size());
  for (const auto& arg : node.args) {
    GPHTAP_ASSIGN_OR_RETURN(Datum d, Analyzer::EvalConst(*arg));
    params.push_back(std::move(d));
  }
  // Attribute this EXECUTE to the prepared text's fingerprint, not to
  // "execute name($1)".
  if (!ps->fingerprint.empty()) session->SetStmtFingerprint(ps->fingerprint);

  if (ps->has_plan) {
    // Generic-plan reuse is the prepared-statement analogue of a plan-cache
    // hit; a catalog-version miss below replans and is counted as a miss.
    if (ps->catalog_version == session->cluster()->catalog_version()) {
      session->NoteStmtPlanCacheHit();
    }
    // Generic-plan fast path: no parse, no analyze, no planning. Replan only
    // when DDL/expansion/rebalance moved the catalog version.
    Cluster* cluster = session->cluster();
    if (ps->catalog_version != cluster->catalog_version()) {
      Analyzer analyzer(cluster);
      GPHTAP_ASSIGN_OR_RETURN(SelectQuery q, analyzer.BindSelect(*ps->stmt->select));
      GPHTAP_RETURN_IF_ERROR(session->PlanForPrepare(q, ps.get()));
    }
    auto plan = std::make_shared<CachedPlan>();
    if (params.empty()) {
      plan->root = ps->plan_root;  // no substitution needed: share the tree
    } else {
      GPHTAP_ASSIGN_OR_RETURN(PlanPtr root,
                              ClonePlanWithParams(*ps->plan_root, params));
      plan->root = std::move(root);
    }
    plan->gang = ps->gang;
    plan->columns = ps->columns;
    plan->tables = ps->tables;
    plan->catalog_version = ps->catalog_version;
    return session->ExecuteCachedPlan(std::move(plan));
  }

  // DML and custom-plan selects: substitute values into the parse tree and
  // dispatch, skipping only the parse. (Row-DML binding is cheap; the win is the
  // SELECT path above.)
  Statement substituted = SubstParamsInStatement(*ps->stmt, params);
  return DispatchStatement(session, substituted, nullptr);
}

}  // namespace

StatusOr<QueryResult> ExecuteSql(Session* session, const std::string& sql) {
  GPHTAP_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  return DispatchStatement(session, stmt, &sql);
}

}  // namespace sql_driver
}  // namespace gphtap
