#include "sql/driver.h"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <optional>
#include <string_view>

#include "cluster/session.h"
#include "sql/analyzer.h"
#include "sql/parser.h"
#include "sql/prepared_statement.h"
#include "stats/fingerprint.h"

namespace gphtap {
namespace sql_driver {

namespace {

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
    // Option values are numbers; anything else is an error, never a 0. The
    // registry checks the ranges.
    auto number = [&](std::string_view text, auto* out) -> Status {
      auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), *out);
      if (ec != std::errc() || end != text.data() + text.size()) {
        return Status::InvalidArgument("invalid value for resource group option " + key +
                                       ": " + value);
      }
      return Status::OK();
    };
    if (key == "concurrency") {
      GPHTAP_RETURN_IF_ERROR(number(value, &config.concurrency));
    } else if (key == "cpu_rate_limit") {
      GPHTAP_RETURN_IF_ERROR(number(value, &config.cpu_rate_limit));
    } else if (key == "cpu_set") {
      std::string_view range = value;
      size_t dash = range.find('-');
      GPHTAP_RETURN_IF_ERROR(number(range.substr(0, dash), &config.cpuset_begin));
      config.cpuset_end = config.cpuset_begin;
      if (dash != std::string_view::npos) {
        GPHTAP_RETURN_IF_ERROR(number(range.substr(dash + 1), &config.cpuset_end));
      }
    } else if (key == "memory_limit") {
      GPHTAP_RETURN_IF_ERROR(number(value, &config.memory_limit_mb));
    } else if (key == "memory_shared_quota") {
      GPHTAP_RETURN_IF_ERROR(number(value, &config.memory_shared_quota));
    } else {
      return Status::NotSupported("resource group option " + key);
    }
  }
  GPHTAP_RETURN_IF_ERROR(session->cluster()->resgroups().CreateGroup(config));
  return QueryResult{};
}

// INSERT of a bound statement with `params` substituted: VALUES rows, or
// the SELECT `select` supplies run inside the INSERT's own statement.
StatusOr<QueryResult> RunInsert(Session* session, const BoundInsert& bound,
                                const std::vector<Datum>& params,
                                const Session::PlanSupplier& select) {
  if (bound.select.has_value()) {
    return session->ExecuteInsertSelect(bound.table, bound.positions, select);
  }
  if (bound.values.empty()) return session->ExecuteInsert(bound.table, bound.rows);
  GPHTAP_ASSIGN_OR_RETURN(std::vector<Row> rows, InsertValuesRows(bound, params));
  return session->ExecuteInsert(bound.table, rows);
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
      return RunInsert(session, bound, {}, [&] { return session->PlanQuery(*bound.select); });
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

// Binds and plans a prepared statement against the current catalog: at
// PREPARE, and again at an EXECUTE that finds the catalog version moved.
Status BindPrepared(Session* session, PreparedStatement* ps) {
  Cluster* cluster = session->cluster();
  const uint64_t catalog_version = cluster->catalog_version();
  Analyzer analyzer(cluster);
  const Statement& stmt = *ps->stmt;
  std::shared_ptr<const CachedPlan> plan;
  switch (stmt.kind) {
    case StatementKind::kSelect: {
      GPHTAP_ASSIGN_OR_RETURN(SelectQuery q, analyzer.BindSelect(*stmt.select));
      GPHTAP_ASSIGN_OR_RETURN(plan, session->PlanQuery(q));
      break;
    }
    case StatementKind::kUpdate: {
      GPHTAP_ASSIGN_OR_RETURN(BoundUpdate bound, analyzer.BindUpdate(*stmt.update));
      GPHTAP_ASSIGN_OR_RETURN(plan, session->PlanDml(bound.table, &bound.sets, bound.where));
      break;
    }
    case StatementKind::kDelete: {
      GPHTAP_ASSIGN_OR_RETURN(BoundDelete bound, analyzer.BindDelete(*stmt.del));
      GPHTAP_ASSIGN_OR_RETURN(plan, session->PlanDml(bound.table, nullptr, bound.where));
      break;
    }
    case StatementKind::kInsert: {
      GPHTAP_ASSIGN_OR_RETURN(ps->insert, analyzer.BindInsert(*stmt.insert));
      if (ps->insert.select.has_value()) {
        GPHTAP_ASSIGN_OR_RETURN(plan, session->PlanQuery(*ps->insert.select));
      } else {
        // VALUES has no plan; the root-less one carries the catalog stamp.
        auto stamp = std::make_shared<CachedPlan>();
        stamp->catalog_version = catalog_version;
        plan = std::move(stamp);
      }
      break;
    }
    default:
      return Status::NotSupported("PREPARE supports SELECT/INSERT/UPDATE/DELETE");
  }
  ps->num_params = analyzer.max_param();
  ps->plan = std::move(plan);
  return Status::OK();
}

StatusOr<QueryResult> RunPrepare(Session* session, const sql_ast::PrepareNode& node,
                                 const std::string* sql) {
  auto ps = std::make_shared<PreparedStatement>();
  ps->name = node.name;
  ps->stmt = node.stmt;
  // FingerprintSql strips the PREPARE..AS wrapper, so this equals the inner
  // statement's fingerprint and EXECUTEs aggregate with the literal form.
  if (sql != nullptr) ps->fingerprint = FingerprintSql(*sql);
  GPHTAP_RETURN_IF_ERROR(BindPrepared(session, ps.get()));
  session->PutPrepared(node.name, std::move(ps));
  return QueryResult{};
}

// EXECUTE parses nothing: it substitutes the argument values into PREPARE's
// plan (or bound VALUES) and runs it, binding and planning again only when
// the catalog version has moved since.
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

  // Reusing PREPARE's plan is the prepared-statement analogue of a plan-cache
  // hit; a moved catalog version re-binds and re-plans, counted as a miss.
  auto current = [&]() -> Status {
    if (ps->plan->catalog_version == session->cluster()->catalog_version()) {
      session->NoteStmtPlanCacheHit();
      return Status::OK();
    }
    return BindPrepared(session, ps.get());
  };
  auto bound_plan = [&]() -> StatusOr<std::shared_ptr<const CachedPlan>> {
    GPHTAP_RETURN_IF_ERROR(current());
    return BindPlanParams(ps->plan, params);
  };
  switch (ps->stmt->kind) {
    case StatementKind::kUpdate:
    case StatementKind::kDelete: {
      // The version check runs once the coordinator lock is held: a rebalance
      // cutover that committed while this EXECUTE queued has moved it, and
      // the re-plan dispatches to the rows' new homes. `generic` keeps the
      // locked table's definition alive across that re-plan.
      std::shared_ptr<const CachedPlan> generic = ps->plan;
      return session->ExecuteDml(generic->tables[0], bound_plan);
    }
    case StatementKind::kInsert:
      GPHTAP_RETURN_IF_ERROR(current());
      return RunInsert(session, ps->insert, params,
                       [&] { return BindPlanParams(ps->plan, params); });
    default: {
      GPHTAP_ASSIGN_OR_RETURN(std::shared_ptr<const CachedPlan> plan, bound_plan());
      return session->ExecuteCachedPlan(std::move(plan));
    }
  }
}

}  // namespace

StatusOr<QueryResult> ExecuteSql(Session* session, const std::string& sql) {
  GPHTAP_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  return DispatchStatement(session, stmt, &sql);
}

}  // namespace sql_driver
}  // namespace gphtap
