// The three workloads (tpcb, ch_olap, ch_htap) and the client that runs
// their statements. Sizes and the reasons for them are recorded per workload
// in spec.json.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>

#include "bench.h"
#include "common/rng.h"
#include "plan/plan_cache.h"
#include "plan/planner.h"
#include "sql/analyzer.h"
#include "sql/parser.h"
#include "workload/chbench.h"
#include "workload/tpcb.h"

namespace htapbench {

using gphtap::ChBenchConfig;
using gphtap::Rng;
using gphtap::Row;
using gphtap::TpcbConfig;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* SpanNameString(SpanName name) {
  switch (name) {
    case kSpanOp: return "op";
    case kSpanParse: return "parse";
    case kSpanBind: return "bind";
    case kSpanPlan: return "plan";
    case kSpanStmt: return "stmt";
    case kSpanQuery: return "query";
    case kSpanCommit: return "commit";
    case kSpanDecode: return "decode";
    case kNumSpanNames: break;
  }
  return "?";
}

int32_t SpanLog::Open(SpanName name, int64_t op) {
  Span s;
  s.op = op;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = NowNs();
  spans_.push_back(s);
  open_.push_back(static_cast<int32_t>(spans_.size() - 1));
  return open_.back();
}

void SpanLog::Close(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  open_.pop_back();
}

uint64_t OpSeed(uint64_t seed, int stream, int64_t i) {
  // SplitMix64 finalizer over (seed, stream, i).
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL +
               static_cast<uint64_t>(stream) * 0xbf58476d1ce4e5b9ULL + static_cast<uint64_t>(i);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (size_t c = 0; c < a[r].size(); ++c) {
      const gphtap::Datum& x = a[r][c];
      const gphtap::Datum& y = b[r][c];
      if (x.is_double() || y.is_double()) {
        if (x.is_null() || y.is_null() || x.is_string() || y.is_string()) return false;
        double u = x.AsDouble(), v = y.AsDouble();
        if (std::fabs(u - v) > 1e-9 * std::max({1.0, std::fabs(u), std::fabs(v)})) return false;
      } else if (!(x == y) || x.is_null() != y.is_null()) {
        return false;
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Client

Client::Client(Cluster* cluster) : cluster_(cluster), session_(cluster->Connect()) {}

gphtap::PlannerOptions Client::PlannerOptions() const {
  // The same inputs Session::ExecuteSelect gives the planner.
  Cluster* c = cluster_;
  gphtap::PlannerOptions p;
  p.num_segments = c->num_segments();
  p.use_orca = c->options().use_orca;
  p.direct_dispatch = c->options().direct_dispatch_enabled;
  p.vectorize = c->options().vectorized_execution_enabled;
  p.delta_store = c->options().delta_store_enabled && p.vectorize;
  p.next_motion_id = [c] { return c->NextMotionId(); };
  p.table_dist = [c](gphtap::TableId id) {
    Cluster::TableDistInfo d = c->TableDist(id);
    return std::make_pair(d.dist_segments, d.rebalancing);
  };
  p.row_estimate = [c](gphtap::TableId id) -> uint64_t {
    gphtap::Segment* seg0 = c->segment(0);
    auto pin = seg0->Pin();
    if (!pin.ok()) return 1000;
    gphtap::Table* t = seg0->GetTable(id);
    if (t == nullptr) return 1000;
    return t->StoredVersionCount() * static_cast<uint64_t>(c->num_segments()) + 1;
  };
  return p;
}

StatusOr<QueryResult> Client::Sql(const std::string& sql, bool olap, bool plan_cache) {
  if (log_ == nullptr) return session_->Execute(sql);
  namespace ast = gphtap::sql_ast;
  StatusOr<ast::Statement> parsed = [&] {
    SpanScope span(log_, kSpanParse, op_);
    return gphtap::ParseStatement(sql);
  }();
  if (!parsed.ok()) return parsed.status();
  const ast::Statement& stmt = *parsed;
  gphtap::Analyzer analyzer(cluster_);
  const SpanName exec = olap ? kSpanQuery : kSpanStmt;
  switch (stmt.kind) {
    case ast::StatementKind::kSelect: {
      if (plan_cache) {
        auto hit = cluster_->plan_cache().Lookup(sql, cluster_->catalog_version());
        if (hit != nullptr) {
          SpanScope span(log_, exec, op_);
          return session_->ExecuteCachedPlan(std::move(hit));
        }
      }
      StatusOr<gphtap::SelectQuery> query = [&] {
        SpanScope span(log_, kSpanBind, op_);
        return analyzer.BindSelect(*stmt.select);
      }();
      if (!query.ok()) return query.status();
      auto plan = std::make_shared<gphtap::CachedPlan>();
      plan->catalog_version = cluster_->catalog_version();
      StatusOr<gphtap::PlannedSelect> planned = [&] {
        SpanScope span(log_, kSpanPlan, op_);
        return gphtap::PlanSelect(*query, PlannerOptions());
      }();
      if (!planned.ok()) return planned.status();
      plan->root = std::move(planned->root);
      plan->gang = std::move(planned->gang);
      plan->columns = std::move(planned->columns);
      plan->tables = query->tables;
      if (plan_cache) cluster_->plan_cache().Insert(sql, plan);
      SpanScope span(log_, exec, op_);
      return session_->ExecuteCachedPlan(std::move(plan));
    }
    case ast::StatementKind::kInsert: {
      StatusOr<gphtap::BoundInsert> bound = [&] {
        SpanScope span(log_, kSpanBind, op_);
        return analyzer.BindInsert(*stmt.insert);
      }();
      if (!bound.ok()) return bound.status();
      SpanScope span(log_, exec, op_);
      return session_->ExecuteInsert(bound->table, bound->rows);
    }
    case ast::StatementKind::kUpdate: {
      StatusOr<gphtap::BoundUpdate> bound = [&] {
        SpanScope span(log_, kSpanBind, op_);
        return analyzer.BindUpdate(*stmt.update);
      }();
      if (!bound.ok()) return bound.status();
      SpanScope span(log_, exec, op_);
      return session_->ExecuteUpdate(bound->table, bound->sets, bound->where);
    }
    default:
      return Status::NotSupported("traced client runs SELECT/INSERT/UPDATE only: " + sql);
  }
}

Status Client::Begin() {
  if (log_ == nullptr) return session_->Execute("BEGIN").status();
  return session_->Begin();
}

Status Client::Commit() {
  if (log_ == nullptr) return session_->Execute("COMMIT").status();
  SpanScope span(log_, kSpanCommit, op_);
  return session_->Commit();
}

void Client::Rollback() {
  if (session_->in_txn()) (void)session_->Rollback();
}

namespace {

// Runs `sql` inside an open transaction; rolls back on error, as the
// library's transaction functions do.
Status TxnStmt(Client& c, const std::string& sql, QueryResult* out = nullptr) {
  auto r = c.Sql(sql, /*olap=*/false, /*plan_cache=*/true);
  if (!r.ok()) {
    c.Rollback();
    return r.status();
  }
  if (out != nullptr) *out = std::move(*r);
  return Status::OK();
}

Status Exec(Session* s, const std::string& sql) { return s->Execute(sql).status(); }

StatusOr<int64_t> ScalarInt(Session* s, const std::string& sql) {
  GPHTAP_ASSIGN_OR_RETURN(QueryResult r, s->Execute(sql));
  if (r.rows.empty() || r.rows[0].empty() || r.rows[0][0].is_null()) return int64_t{0};
  return r.rows[0][0].int_val();
}

StatusOr<double> ScalarDouble(Session* s, const std::string& sql) {
  GPHTAP_ASSIGN_OR_RETURN(QueryResult r, s->Execute(sql));
  if (r.rows.empty() || r.rows[0].empty() || r.rows[0][0].is_null()) return 0.0;
  return r.rows[0][0].AsDouble();
}

// Stored versions per row over `tables`, summed across segments.
double StoredVersionsPerRow(Cluster* cluster, const std::vector<std::string>& tables,
                            int64_t rows) {
  uint64_t versions = 0;
  for (const std::string& name : tables) {
    auto def = cluster->LookupTable(name);
    if (!def.ok()) return 0;
    for (int i = 0; i < cluster->num_segments(); ++i) {
      gphtap::Segment* seg = cluster->segment(i);
      auto pin = seg->Pin();
      if (!pin.ok()) continue;
      if (gphtap::Table* t = seg->GetTable(def->id)) versions += t->StoredVersionCount();
    }
  }
  return rows > 0 ? static_cast<double>(versions) / static_cast<double>(rows) : 0;
}

Status VacuumTables(Cluster* cluster, const std::vector<std::string>& tables) {
  auto s = cluster->Connect();
  for (const std::string& t : tables) GPHTAP_RETURN_IF_ERROR(Exec(s.get(), "VACUUM " + t));
  return Status::OK();
}

int64_t Scaled(double scale, int64_t n) {
  return std::max<int64_t>(1, std::llround(scale * static_cast<double>(n)));
}

// ---------------------------------------------------------------------------
// tpcb: pgbench TPC-B through prepared statements on indexed heap tables, with
// every 20th operation the TPC-B balance audit over the hot branch rows.

class TpcbWorkload : public Workload {
 public:
  TpcbWorkload(uint64_t seed, double scale, bool tiny) : seed_(seed) {
    config_.scale = 100;
    config_.tellers_per_branch = 10;
    config_.accounts_per_branch = 200;
    config_.create_indexes = true;
    ops_per_window_ = tiny ? 200 : Scaled(scale, 4700);
  }

  ClusterOptions Options() const override {
    ClusterOptions o;
    o.num_segments = 4;
    return o;
  }
  Status Load(Cluster* cluster) override { return gphtap::LoadTpcb(cluster, config_); }

  Status WarmUp(std::vector<std::unique_ptr<Client>>& clients) override {
    for (auto& c : clients) {
      for (const std::string& p : gphtap::TpcbPrepareScript()) {
        GPHTAP_RETURN_IF_ERROR(Exec(c->session(), p));
      }
    }
    return Exec(clients[0]->session(), kAudit);
  }

  std::vector<Stream> Streams() const override { return {{4, ops_per_window_}}; }

  Status RunOp(int stream, int64_t i, Client& c, OpClass* cls) override {
    if (i % 20 == 19) {
      *cls = OpClass::kOlap;
      auto r = c.Sql(kAudit, /*olap=*/true, /*plan_cache=*/true);
      if (!r.ok()) return r.status();
      if (r->rows.size() != 1) return Status::Internal("audit returned no row");
      return Status::OK();
    }
    *cls = OpClass::kOltp;
    Rng rng(OpSeed(seed_, stream, i));
    if (!c.traced()) return gphtap::RunTpcbTransaction(c.session(), rng, config_);
    // The same inputs (in RunTpcbTransaction's draw order) and statements, in
    // literal form: EXECUTE's parameter substitution is internal to the SQL
    // driver, so the traced path parses what the prepared path skips.
    int64_t aid = rng.UniformRange(1, config_.num_accounts());
    int64_t tid = rng.UniformRange(1, config_.num_tellers());
    int64_t bid = rng.UniformRange(1, config_.scale);
    std::string d = std::to_string(rng.UniformRange(-5000, 5000));
    std::string a = std::to_string(aid), t = std::to_string(tid), b = std::to_string(bid);
    GPHTAP_RETURN_IF_ERROR(c.Begin());
    GPHTAP_RETURN_IF_ERROR(
        TxnStmt(c, "UPDATE pgbench_accounts SET abalance = abalance + " + d + " WHERE aid = " + a));
    auto sel = c.Sql("SELECT abalance FROM pgbench_accounts WHERE aid = " + a, false,
                     /*plan_cache=*/false);
    if (!sel.ok()) {
      c.Rollback();
      return sel.status();
    }
    GPHTAP_RETURN_IF_ERROR(
        TxnStmt(c, "UPDATE pgbench_tellers SET tbalance = tbalance + " + d + " WHERE tid = " + t));
    GPHTAP_RETURN_IF_ERROR(TxnStmt(
        c, "UPDATE pgbench_branches SET bbalance = bbalance + " + d + " WHERE bid = " + b));
    GPHTAP_RETURN_IF_ERROR(TxnStmt(c, "INSERT INTO pgbench_history (tid, bid, aid, delta) "
                                      "VALUES (" + t + ", " + b + ", " + a + ", " + d + ")"));
    return c.Commit();
  }

  Status BetweenWindows(Cluster* cluster) override {
    return VacuumTables(cluster, {"pgbench_branches", "pgbench_tellers", "pgbench_accounts"});
  }

  double VersionsPerRow(Cluster* cluster) override {
    return StoredVersionsPerRow(cluster, {"pgbench_branches", "pgbench_tellers"},
                                config_.scale + config_.num_tellers());
  }

  Status Check(Cluster* cluster, int64_t oltp_committed) override {
    GPHTAP_RETURN_IF_ERROR(gphtap::CheckTpcbInvariant(cluster));
    auto s = cluster->Connect();
    GPHTAP_ASSIGN_OR_RETURN(int64_t history,
                            ScalarInt(s.get(), "SELECT count(*) FROM pgbench_history"));
    if (history != oltp_committed) {
      return Status::Internal("pgbench_history has " + std::to_string(history) +
                              " rows for " + std::to_string(oltp_committed) +
                              " committed transactions");
    }
    return Status::OK();
  }

 private:
  static constexpr const char* kAudit = "SELECT sum(bbalance) FROM pgbench_branches";
  const uint64_t seed_;
  TpcbConfig config_;
  int64_t ops_per_window_ = 0;
};

// ---------------------------------------------------------------------------
// CH-benCHmark shared pieces.

ChBenchConfig ChConfig(bool column_storage) {
  ChBenchConfig c;
  c.warehouses = 8;
  c.districts_per_warehouse = 10;
  c.customers_per_district = 100;
  c.items = 2000;
  c.initial_orders_per_district = 250;
  c.lines_per_order = 4;  // 80k order lines
  c.column_storage = column_storage;
  return c;
}

// Hash indexes on the key columns NewOrder, Payment and Order-Status filter on
// (LoadChBench builds none).
Status IndexChTables(Cluster* cluster) {
  GPHTAP_RETURN_IF_ERROR(cluster->CreateIndex("warehouse", "w_id"));
  GPHTAP_RETURN_IF_ERROR(cluster->CreateIndex("district", "d_id"));
  GPHTAP_RETURN_IF_ERROR(cluster->CreateIndex("customer", "c_id"));
  return cluster->CreateIndex("stock", "s_i_id");
}

double ChVersionsPerRow(Cluster* cluster, const ChBenchConfig& c) {
  return StoredVersionsPerRow(cluster, {"warehouse", "district"},
                              c.warehouses + c.warehouses * c.districts_per_warehouse);
}

// Runs analytical query `q` and, when `reference` is given, compares its rows.
Status RunChQuery(Client& c, size_t q, const std::vector<std::vector<Row>>* reference) {
  const std::string& sql = gphtap::ChAnalyticalQueries()[q];
  auto r = c.Sql(sql, /*olap=*/true, /*plan_cache=*/true);
  if (!r.ok()) return r.status();
  if (reference != nullptr && !SameRows(r->rows, (*reference)[q])) {
    return Status::Internal("query " + std::to_string(q) +
                            " differs from the row-engine reference: " + sql);
  }
  return Status::OK();
}

// Each analytical query's rows from the row engine (SET vectorized_execution
// = off) on the current data.
StatusOr<std::vector<std::vector<Row>>> RowEngineResults(Cluster* cluster) {
  auto s = cluster->Connect();
  GPHTAP_RETURN_IF_ERROR(Exec(s.get(), "SET vectorized_execution = off"));
  std::vector<std::vector<Row>> out;
  for (const std::string& q : gphtap::ChAnalyticalQueries()) {
    GPHTAP_ASSIGN_OR_RETURN(QueryResult r, s->Execute(q));
    out.push_back(std::move(r.rows));
  }
  return out;
}

// ---------------------------------------------------------------------------
// ch_olap: the 11 analytical queries round-robin over AO-column fact tables
// from one session, each followed by one read-only TPC-C Order-Status
// transaction (prepared). Read-only, so the data stays fixed.

class ChOlapWorkload : public Workload {
 public:
  ChOlapWorkload(uint64_t seed, double scale, bool tiny) : seed_(seed), config_(ChConfig(true)) {
    ops_per_window_ = 2 * (tiny ? 11 : Scaled(scale, 36));
  }

  ClusterOptions Options() const override {
    ClusterOptions o;
    o.num_segments = 4;
    return o;
  }
  Status Load(Cluster* cluster) override {
    GPHTAP_RETURN_IF_ERROR(gphtap::LoadChBench(cluster, config_));
    return IndexChTables(cluster);
  }

  Status WarmUp(std::vector<std::unique_ptr<Client>>& clients) override {
    for (const Statement& st : kOrderStatus) {
      GPHTAP_RETURN_IF_ERROR(Exec(clients[0]->session(), std::string("PREPARE ") + st.name +
                                                             " AS " + st.text + "$3"));
    }
    GPHTAP_ASSIGN_OR_RETURN(reference_, RowEngineResults(clients[0]->cluster()));
    for (size_t q = 0; q < reference_.size(); ++q) {
      GPHTAP_RETURN_IF_ERROR(RunChQuery(*clients[0], q, &reference_));
    }
    return Status::OK();
  }

  std::vector<Stream> Streams() const override { return {{1, ops_per_window_}}; }

  Status RunOp(int stream, int64_t i, Client& c, OpClass* cls) override {
    if (i % 2 == 0) {
      *cls = OpClass::kOlap;
      return RunChQuery(c, static_cast<size_t>(i / 2) % reference_.size(), &reference_);
    }
    *cls = OpClass::kOltp;
    return OrderStatus(stream, i, c);
  }

  Status BetweenWindows(Cluster*) override { return Status::OK(); }
  double VersionsPerRow(Cluster* cluster) override { return ChVersionsPerRow(cluster, config_); }
  Status Check(Cluster*, int64_t) override { return Status::OK(); }

 private:
  // An Order-Status statement: prepared as `text` + "$3" (after $1, $2 in the
  // text), or run in literal form with the three values filled in.
  struct Statement {
    const char* name;
    const char* text;
  };
  static constexpr Statement kOrderStatus[] = {
      {"os_customer", "SELECT c_balance, c_ytd_payment FROM customer "
                      "WHERE c_w_id = $1 AND c_d_id = $2 AND c_id = "},
      {"os_last_order", "SELECT max(o_id) FROM orders "
                        "WHERE o_w_id = $1 AND o_d_id = $2 AND o_c_id = "},
      {"os_lines", "SELECT ol_i_id, ol_qty, ol_amount FROM order_line "
                   "WHERE ol_w_id = $1 AND ol_d_id = $2 AND ol_o_id = "},
  };

  // Untraced, EXECUTE of the prepared statement; traced, the same statement
  // in literal form, planned per call as a custom-plan EXECUTE is.
  StatusOr<QueryResult> OrderStatusStmt(Client& c, const Statement& st, const std::string& w,
                                        const std::string& d, const std::string& key) {
    std::string sql;
    if (c.traced()) {
      sql = st.text;
      sql.replace(sql.find("$1"), 2, w);
      sql.replace(sql.find("$2"), 2, d);
      sql += key;
    } else {
      sql = std::string("EXECUTE ") + st.name + "(" + w + ", " + d + ", " + key + ")";
    }
    auto r = c.Sql(sql, /*olap=*/false, /*plan_cache=*/false);
    if (!r.ok()) c.Rollback();
    return r;
  }

  // TPC-C Order-Status: a customer's balance, their latest order and its lines.
  Status OrderStatus(int stream, int64_t i, Client& c) {
    Rng rng(OpSeed(seed_, stream, i));
    std::string w = std::to_string(rng.UniformRange(1, config_.warehouses));
    std::string d = std::to_string(rng.UniformRange(1, config_.districts_per_warehouse));
    std::string cu = std::to_string(rng.UniformRange(1, config_.customers_per_district));
    GPHTAP_RETURN_IF_ERROR(c.Begin());
    GPHTAP_ASSIGN_OR_RETURN(QueryResult customer, OrderStatusStmt(c, kOrderStatus[0], w, d, cu));
    GPHTAP_ASSIGN_OR_RETURN(QueryResult last, OrderStatusStmt(c, kOrderStatus[1], w, d, cu));
    Status bad;
    if (customer.rows.size() != 1) {
      bad = Status::Internal("order-status: customer " + w + "/" + d + "/" + cu + " not found");
    } else if (!last.rows.empty() && !last.rows[0][0].is_null()) {
      std::string o = std::to_string(last.rows[0][0].int_val());
      GPHTAP_ASSIGN_OR_RETURN(QueryResult lines, OrderStatusStmt(c, kOrderStatus[2], w, d, o));
      if (lines.rows.size() != static_cast<size_t>(config_.lines_per_order)) {
        bad = Status::Internal("order-status: order " + o + " has " +
                               std::to_string(lines.rows.size()) + " lines");
      }
    }
    if (!bad.ok()) {
      c.Rollback();
      return bad;
    }
    return c.Commit();
  }

  const uint64_t seed_;
  const ChBenchConfig config_;
  int64_t ops_per_window_ = 0;
  std::vector<std::vector<Row>> reference_;
};

// ---------------------------------------------------------------------------
// ch_htap: NewOrder/Payment (literal SQL) from 2 sessions beside 1 session
// running the 11 analytical queries through delta-merged scans of heap tables.

class ChHtapWorkload : public Workload {
 public:
  ChHtapWorkload(uint64_t seed, double scale, bool tiny) : seed_(seed), config_(ChConfig(false)) {
    oltp_per_window_ = tiny ? 400 : Scaled(scale, 2700);
    olap_per_window_ = tiny ? 11 : Scaled(scale, 33);
  }

  ClusterOptions Options() const override {
    ClusterOptions o;
    o.num_segments = 4;
    o.delta_store_enabled = true;
    return o;
  }
  Status Load(Cluster* cluster) override {
    GPHTAP_RETURN_IF_ERROR(gphtap::LoadChBench(cluster, config_));
    GPHTAP_RETURN_IF_ERROR(IndexChTables(cluster));
    // Seal what the load left in the delta stores, so every run starts from
    // the same sealed state rather than wherever the seal daemon had got to.
    for (int i = 0; i < cluster->num_segments(); ++i) {
      GPHTAP_RETURN_IF_ERROR(cluster->SealDeltaNow(i));
    }
    return Status::OK();
  }

  Status WarmUp(std::vector<std::unique_ptr<Client>>& clients) override {
    for (size_t q = 0; q < gphtap::ChAnalyticalQueries().size(); ++q) {
      GPHTAP_RETURN_IF_ERROR(RunChQuery(*clients.back(), q, nullptr));
    }
    return Status::OK();
  }

  std::vector<Stream> Streams() const override {
    return {{2, oltp_per_window_}, {1, olap_per_window_}};
  }

  Status RunOp(int stream, int64_t i, Client& c, OpClass* cls) override {
    if (stream == 1) {
      *cls = OpClass::kOlap;
      return RunChQuery(c, static_cast<size_t>(i) % gphtap::ChAnalyticalQueries().size(), nullptr);
    }
    *cls = OpClass::kOltp;
    // One NewOrder to two Payments, fixed by the operation index: with a coin
    // per operation the p50 would sit on the boundary between the two
    // transactions' latency ranges and jump with the seed.
    Rng rng(OpSeed(seed_, stream, i));
    bool new_order = i % 3 == 0;
    if (!c.traced()) {
      return new_order ? gphtap::RunNewOrderTransaction(c.session(), rng, config_)
                       : gphtap::RunPaymentTransaction(c.session(), rng, config_);
    }
    return new_order ? TracedNewOrder(c, rng) : TracedPayment(c, rng);
  }

  // Only the hot rows: a window updates each customer and stock row about
  // once, but each warehouse row hundreds of times.
  Status BetweenWindows(Cluster* cluster) override {
    return VacuumTables(cluster, {"warehouse", "district"});
  }
  double VersionsPerRow(Cluster* cluster) override { return ChVersionsPerRow(cluster, config_); }

  Status Check(Cluster* cluster, int64_t) override {
    auto s = cluster->Connect();
    // Per district: d_next_o_id - 1 = count(orders).
    GPHTAP_ASSIGN_OR_RETURN(QueryResult next,
                            s->Execute("SELECT d_w_id, d_id, d_next_o_id FROM district"));
    GPHTAP_ASSIGN_OR_RETURN(
        QueryResult counts,
        s->Execute("SELECT o_w_id, o_d_id, count(*) FROM orders GROUP BY o_w_id, o_d_id"));
    std::map<std::pair<int64_t, int64_t>, int64_t> orders;
    for (const Row& r : counts.rows) orders[{r[0].int_val(), r[1].int_val()}] = r[2].int_val();
    const int districts = config_.warehouses * config_.districts_per_warehouse;
    if (next.rows.size() != static_cast<size_t>(districts)) {
      return Status::Internal("district row count changed");
    }
    for (const Row& r : next.rows) {
      int64_t n = orders[{r[0].int_val(), r[1].int_val()}];
      if (r[2].int_val() - 1 != n) {
        return Status::Internal("district " + r[0].ToString() + "/" + r[1].ToString() +
                                ": d_next_o_id " + r[2].ToString() + " but " +
                                std::to_string(n) + " orders");
      }
    }
    GPHTAP_ASSIGN_OR_RETURN(int64_t lines, ScalarInt(s.get(), "SELECT count(*) FROM order_line"));
    GPHTAP_ASSIGN_OR_RETURN(int64_t ol_cnt, ScalarInt(s.get(), "SELECT sum(o_ol_cnt) FROM orders"));
    if (lines != ol_cnt) {
      return Status::Internal("count(order_line) " + std::to_string(lines) + " != sum(o_ol_cnt) " +
                              std::to_string(ol_cnt));
    }
    // Payment amounts are whole numbers, so these double sums are exact.
    GPHTAP_ASSIGN_OR_RETURN(double w_ytd,
                            ScalarDouble(s.get(), "SELECT sum(w_ytd) FROM warehouse"));
    GPHTAP_ASSIGN_OR_RETURN(double d_ytd, ScalarDouble(s.get(), "SELECT sum(d_ytd) FROM district"));
    GPHTAP_ASSIGN_OR_RETURN(double c_ytd,
                            ScalarDouble(s.get(), "SELECT sum(c_ytd_payment) FROM customer"));
    GPHTAP_ASSIGN_OR_RETURN(double c_bal,
                            ScalarDouble(s.get(), "SELECT sum(c_balance) FROM customer"));
    if (w_ytd != d_ytd || d_ytd != c_ytd || c_ytd != -c_bal) {
      return Status::Internal("payment sums disagree: w_ytd=" + std::to_string(w_ytd) +
                              " d_ytd=" + std::to_string(d_ytd) + " c_ytd_payment=" +
                              std::to_string(c_ytd) + " c_balance=" + std::to_string(c_bal));
    }
    // Quiesced, the delta-merged engine and the row engine agree.
    GPHTAP_ASSIGN_OR_RETURN(auto reference, RowEngineResults(cluster));
    Client merged(cluster);
    for (size_t q = 0; q < reference.size(); ++q) {
      GPHTAP_RETURN_IF_ERROR(RunChQuery(merged, q, &reference));
    }
    return Status::OK();
  }

 private:
  // RunNewOrderTransaction's draws and statements, one traced call at a time.
  Status TracedNewOrder(Client& c, Rng& rng) {
    int64_t w = rng.UniformRange(1, config_.warehouses);
    int64_t d = rng.UniformRange(1, config_.districts_per_warehouse);
    int64_t cu = rng.UniformRange(1, config_.customers_per_district);
    std::string ws = std::to_string(w), ds = std::to_string(d);
    GPHTAP_RETURN_IF_ERROR(c.Begin());
    GPHTAP_RETURN_IF_ERROR(TxnStmt(c, "UPDATE district SET d_next_o_id = d_next_o_id + 1 "
                                      "WHERE d_w_id = " + ws + " AND d_id = " + ds));
    QueryResult next;
    GPHTAP_RETURN_IF_ERROR(TxnStmt(
        c, "SELECT d_next_o_id FROM district WHERE d_w_id = " + ws + " AND d_id = " + ds, &next));
    if (next.rows.empty()) {
      c.Rollback();
      return Status::Internal("district row missing");
    }
    std::string os = std::to_string(next.rows[0][0].int_val() - 1);
    GPHTAP_RETURN_IF_ERROR(
        TxnStmt(c, "INSERT INTO orders (o_w_id, o_d_id, o_id, o_c_id, o_ol_cnt, o_entry_d) "
                   "VALUES (" + ws + ", " + ds + ", " + os + ", " + std::to_string(cu) + ", " +
                   std::to_string(config_.lines_per_order) + ", " + os + ")"));
    for (int64_t l = 1; l <= config_.lines_per_order; ++l) {
      int64_t item = rng.UniformRange(1, config_.items);
      int64_t qty = rng.UniformRange(1, 10);
      double amount = static_cast<double>(qty) * (1.0 + static_cast<double>(item % 100));
      GPHTAP_RETURN_IF_ERROR(TxnStmt(
          c, "INSERT INTO order_line (ol_w_id, ol_d_id, ol_o_id, ol_number, ol_i_id, "
             "ol_qty, ol_amount) VALUES (" + ws + ", " + ds + ", " + os + ", " +
             std::to_string(l) + ", " + std::to_string(item) + ", " + std::to_string(qty) +
             ", " + std::to_string(amount) + ")"));
      GPHTAP_RETURN_IF_ERROR(TxnStmt(
          c, "UPDATE stock SET s_quantity = s_quantity - " + std::to_string(qty) +
             ", s_ytd = s_ytd + " + std::to_string(qty) + " WHERE s_w_id = " + ws +
             " AND s_i_id = " + std::to_string(item)));
    }
    return c.Commit();
  }

  // RunPaymentTransaction's draws and statements, one traced call at a time.
  Status TracedPayment(Client& c, Rng& rng) {
    int64_t w = rng.UniformRange(1, config_.warehouses);
    int64_t d = rng.UniformRange(1, config_.districts_per_warehouse);
    int64_t cu = rng.UniformRange(1, config_.customers_per_district);
    std::string as = std::to_string(static_cast<double>(rng.UniformRange(1, 5000)));
    std::string ws = std::to_string(w), ds = std::to_string(d), cs = std::to_string(cu);
    GPHTAP_RETURN_IF_ERROR(c.Begin());
    GPHTAP_RETURN_IF_ERROR(
        TxnStmt(c, "UPDATE warehouse SET w_ytd = w_ytd + " + as + " WHERE w_id = " + ws));
    GPHTAP_RETURN_IF_ERROR(TxnStmt(c, "UPDATE district SET d_ytd = d_ytd + " + as +
                                          " WHERE d_w_id = " + ws + " AND d_id = " + ds));
    GPHTAP_RETURN_IF_ERROR(TxnStmt(c, "UPDATE customer SET c_balance = c_balance - " + as +
                                          ", c_ytd_payment = c_ytd_payment + " + as +
                                          " WHERE c_w_id = " + ws + " AND c_d_id = " + ds +
                                          " AND c_id = " + cs));
    return c.Commit();
  }

  const uint64_t seed_;
  const ChBenchConfig config_;
  int64_t oltp_per_window_ = 0;
  int64_t olap_per_window_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed, double scale,
                                       bool tiny) {
  if (name == "tpcb") return std::make_unique<TpcbWorkload>(seed, scale, tiny);
  if (name == "ch_olap") return std::make_unique<ChOlapWorkload>(seed, scale, tiny);
  if (name == "ch_htap") return std::make_unique<ChHtapWorkload>(seed, scale, tiny);
  return nullptr;
}

}  // namespace htapbench
