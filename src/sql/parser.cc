#include "sql/parser.h"

#include <charconv>
#include <cstdlib>

#include "sql/lexer.h"

namespace gphtap {

namespace {

using namespace sql_ast;  // NOLINT(build/namespaces): private to this file

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  StatusOr<Statement> Parse() {
    GPHTAP_ASSIGN_OR_RETURN(Statement stmt, ParseStatementInner());
    AcceptSymbol(";");
    if (!Peek().Is(TokenType::kEnd)) {
      return Err("trailing input after statement");
    }
    return stmt;
  }

 private:
  // ---------- token helpers ----------
  const Token& Peek(size_t k = 0) const {
    size_t i = pos_ + k;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }
  bool AcceptWord(const char* w) {
    if (Peek().IsWord(w)) {
      Advance();
      return true;
    }
    return false;
  }
  bool AcceptSymbol(const char* s) {
    if (Peek().IsSymbol(s)) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectWord(const char* w) {
    if (!AcceptWord(w)) return Err(std::string("expected ") + w);
    return Status::OK();
  }
  Status ExpectSymbol(const char* s) {
    if (!AcceptSymbol(s)) return Err(std::string("expected '") + s + "'");
    return Status::OK();
  }
  StatusOr<std::string> ExpectIdent() {
    if (!Peek().Is(TokenType::kIdent)) return Err("expected identifier");
    return Advance().text;
  }
  // Consumes an integer literal, negated when a unary minus precedes it (so
  // -9223372036854775808 fits). Out of range is an error, not a saturation.
  StatusOr<int64_t> IntLiteral(bool negative) {
    const std::string text = (negative ? "-" : "") + Advance().text;
    int64_t v = 0;
    auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec != std::errc() || end != text.data() + text.size()) {
      return Status::InvalidArgument("integer literal " + text +
                                     " is out of range for type bigint");
    }
    return v;
  }
  static StatusOr<ExprNodePtr> Literal(Datum d) {
    auto e = std::make_shared<ExprNode>();
    e->kind = ExprNodeKind::kLiteral;
    e->literal = std::move(d);
    return StatusOr<ExprNodePtr>(std::move(e));
  }
  Status Err(const std::string& msg) const {
    return Status::InvalidArgument("syntax error: " + msg + " near offset " +
                                   std::to_string(Peek().pos) + " ('" + Peek().text +
                                   "')");
  }

  // ---------- expressions (precedence climbing) ----------
  // or < and < not < comparison < additive < multiplicative < unary < primary

  StatusOr<ExprNodePtr> ParseExpr() { return ParseOr(); }

  StatusOr<ExprNodePtr> ParseOr() {
    GPHTAP_ASSIGN_OR_RETURN(ExprNodePtr left, ParseAnd());
    while (Peek().IsWord("or")) {
      Advance();
      GPHTAP_ASSIGN_OR_RETURN(ExprNodePtr right, ParseAnd());
      left = MakeBinary("or", left, right);
    }
    return left;
  }

  StatusOr<ExprNodePtr> ParseAnd() {
    GPHTAP_ASSIGN_OR_RETURN(ExprNodePtr left, ParseNot());
    while (Peek().IsWord("and")) {
      Advance();
      GPHTAP_ASSIGN_OR_RETURN(ExprNodePtr right, ParseNot());
      left = MakeBinary("and", left, right);
    }
    return left;
  }

  StatusOr<ExprNodePtr> ParseNot() {
    if (AcceptWord("not")) {
      GPHTAP_ASSIGN_OR_RETURN(ExprNodePtr inner, ParseNot());
      auto e = std::make_shared<ExprNode>();
      e->kind = ExprNodeKind::kNot;
      e->args.push_back(inner);
      return e;
    }
    return ParseComparison();
  }

  StatusOr<ExprNodePtr> ParseComparison() {
    GPHTAP_ASSIGN_OR_RETURN(ExprNodePtr left, ParseAdditive());
    // IS [NOT] NULL
    if (Peek().IsWord("is")) {
      Advance();
      bool negated = AcceptWord("not");
      GPHTAP_RETURN_IF_ERROR(ExpectWord("null"));
      auto e = std::make_shared<ExprNode>();
      e->kind = negated ? ExprNodeKind::kIsNotNull : ExprNodeKind::kIsNull;
      e->args.push_back(left);
      return StatusOr<ExprNodePtr>(std::move(e));
    }
    static const char* ops[] = {"<=", ">=", "<>", "!=", "=", "<", ">"};
    for (const char* op : ops) {
      if (Peek().IsSymbol(op)) {
        Advance();
        GPHTAP_ASSIGN_OR_RETURN(ExprNodePtr right, ParseAdditive());
        return StatusOr<ExprNodePtr>(
            MakeBinary(op == std::string("!=") ? "<>" : op, left, right));
      }
    }
    return left;
  }

  StatusOr<ExprNodePtr> ParseAdditive() {
    GPHTAP_ASSIGN_OR_RETURN(ExprNodePtr left, ParseMultiplicative());
    while (Peek().IsSymbol("+") || Peek().IsSymbol("-")) {
      std::string op = Advance().text;
      GPHTAP_ASSIGN_OR_RETURN(ExprNodePtr right, ParseMultiplicative());
      left = MakeBinary(op, left, right);
    }
    return left;
  }

  StatusOr<ExprNodePtr> ParseMultiplicative() {
    GPHTAP_ASSIGN_OR_RETURN(ExprNodePtr left, ParseUnary());
    while (Peek().IsSymbol("*") || Peek().IsSymbol("/") || Peek().IsSymbol("%")) {
      std::string op = Advance().text;
      GPHTAP_ASSIGN_OR_RETURN(ExprNodePtr right, ParseUnary());
      left = MakeBinary(op, left, right);
    }
    return left;
  }

  StatusOr<ExprNodePtr> ParseUnary() {
    if (AcceptSymbol("-")) {
      if (Peek().Is(TokenType::kInt)) {
        GPHTAP_ASSIGN_OR_RETURN(int64_t v, IntLiteral(/*negative=*/true));
        return Literal(Datum(v));
      }
      GPHTAP_ASSIGN_OR_RETURN(ExprNodePtr inner, ParseUnary());
      GPHTAP_ASSIGN_OR_RETURN(ExprNodePtr zero, Literal(Datum(int64_t{0})));
      return StatusOr<ExprNodePtr>(MakeBinary("-", zero, inner));
    }
    AcceptSymbol("+");
    return ParsePrimary();
  }

  StatusOr<ExprNodePtr> ParsePrimary() {
    const Token& t = Peek();
    if (t.Is(TokenType::kInt)) {
      GPHTAP_ASSIGN_OR_RETURN(int64_t v, IntLiteral(/*negative=*/false));
      return Literal(Datum(v));
    }
    if (t.Is(TokenType::kFloat)) {
      return Literal(Datum(std::strtod(Advance().text.c_str(), nullptr)));
    }
    if (t.Is(TokenType::kString)) return Literal(Datum(Advance().text));
    if (t.IsWord("null")) {
      Advance();
      return Literal(Datum::Null());
    }
    if (t.IsWord("true") || t.IsWord("false")) {
      return Literal(Datum(static_cast<int64_t>(Advance().IsWord("true") ? 1 : 0)));
    }
    if (t.IsSymbol("(")) {
      Advance();
      GPHTAP_ASSIGN_OR_RETURN(ExprNodePtr inner, ParseExpr());
      GPHTAP_RETURN_IF_ERROR(ExpectSymbol(")"));
      return StatusOr<ExprNodePtr>(std::move(inner));
    }
    auto e = std::make_shared<ExprNode>();
    if (t.IsSymbol("*")) {
      Advance();
      e->kind = ExprNodeKind::kStar;
      return StatusOr<ExprNodePtr>(std::move(e));
    }
    if (t.Is(TokenType::kParam)) {
      Advance();
      int pos = 0;
      auto [end, ec] = std::from_chars(t.text.data(), t.text.data() + t.text.size(), pos);
      if (ec != std::errc() || end != t.text.data() + t.text.size() || pos < 1) {
        return Err("parameter positions run from $1 to $2147483647");
      }
      e->kind = ExprNodeKind::kParam;
      e->param = pos;
      return StatusOr<ExprNodePtr>(std::move(e));
    }
    if (t.Is(TokenType::kIdent)) {
      std::string first = Advance().text;
      // Function call?
      if (Peek().IsSymbol("(")) {
        Advance();
        e->kind = ExprNodeKind::kFuncCall;
        e->func = first;
        if (!Peek().IsSymbol(")")) {
          while (true) {
            GPHTAP_ASSIGN_OR_RETURN(ExprNodePtr arg, ParseExpr());
            e->args.push_back(arg);
            if (!AcceptSymbol(",")) break;
          }
        }
        GPHTAP_RETURN_IF_ERROR(ExpectSymbol(")"));
        return StatusOr<ExprNodePtr>(std::move(e));
      }
      // Qualified column?
      e->kind = ExprNodeKind::kColumnRef;
      if (AcceptSymbol(".")) {
        GPHTAP_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
        e->table = first;
        e->column = col;
      } else {
        e->column = first;
      }
      return StatusOr<ExprNodePtr>(std::move(e));
    }
    return Err("expected expression");
  }

  static ExprNodePtr MakeBinary(const std::string& op, ExprNodePtr l, ExprNodePtr r) {
    auto e = std::make_shared<ExprNode>();
    e->kind = ExprNodeKind::kBinary;
    e->op = op;
    e->args = {std::move(l), std::move(r)};
    return e;
  }

  // ---------- statements ----------

  StatusOr<Statement> ParseStatementInner() {
    Statement stmt;
    if (Peek().IsWord("select")) {
      stmt.kind = StatementKind::kSelect;
      GPHTAP_ASSIGN_OR_RETURN(auto sel, ParseSelect());
      stmt.select = std::move(sel);
      return stmt;
    }
    if (AcceptWord("explain")) {
      const bool analyze = AcceptWord("analyze");
      if (AcceptWord("update")) {
        GPHTAP_ASSIGN_OR_RETURN(stmt, ParseUpdate());
      } else if (AcceptWord("delete")) {
        GPHTAP_ASSIGN_OR_RETURN(stmt, ParseDelete());
      } else {
        GPHTAP_ASSIGN_OR_RETURN(stmt.select, ParseSelect());
      }
      stmt.kind = StatementKind::kExplain;
      stmt.explain_analyze = analyze;
      return stmt;
    }
    if (AcceptWord("insert")) return ParseInsert();
    if (AcceptWord("update")) return ParseUpdate();
    if (AcceptWord("delete")) return ParseDelete();
    if (Peek().IsWord("create")) return ParseCreate();
    if (AcceptWord("drop")) return ParseDrop();
    if (AcceptWord("alter")) return ParseAlter();
    if (AcceptWord("begin") || (Peek().IsWord("start") && Peek(1).IsWord("transaction"))) {
      if (Peek().IsWord("start")) {
        Advance();
        Advance();
      } else {
        AcceptWord("transaction");
        AcceptWord("work");
      }
      Statement s;
      s.kind = StatementKind::kBegin;
      return s;
    }
    if (AcceptWord("commit")) {
      AcceptWord("work");
      AcceptWord("transaction");
      Statement s;
      s.kind = StatementKind::kCommit;
      return s;
    }
    if (AcceptWord("rollback") || AcceptWord("abort")) {
      AcceptWord("work");
      AcceptWord("transaction");
      Statement s;
      s.kind = StatementKind::kRollback;
      return s;
    }
    if (AcceptWord("prepare")) {
      Statement s;
      s.kind = StatementKind::kPrepare;
      s.prepare = std::make_shared<PrepareNode>();
      GPHTAP_ASSIGN_OR_RETURN(s.prepare->name, ExpectIdent());
      GPHTAP_RETURN_IF_ERROR(ExpectWord("as"));
      GPHTAP_ASSIGN_OR_RETURN(Statement inner, ParseStatementInner());
      s.prepare->stmt = std::make_shared<Statement>(std::move(inner));
      return s;
    }
    if (AcceptWord("execute")) {
      Statement s;
      s.kind = StatementKind::kExecutePrepared;
      s.execute = std::make_shared<ExecuteStmtNode>();
      GPHTAP_ASSIGN_OR_RETURN(s.execute->name, ExpectIdent());
      if (AcceptSymbol("(")) {
        if (!Peek().IsSymbol(")")) {
          while (true) {
            GPHTAP_ASSIGN_OR_RETURN(ExprNodePtr arg, ParseExpr());
            s.execute->args.push_back(std::move(arg));
            if (!AcceptSymbol(",")) break;
          }
        }
        GPHTAP_RETURN_IF_ERROR(ExpectSymbol(")"));
      }
      return s;
    }
    if (AcceptWord("deallocate")) {
      AcceptWord("prepare");
      Statement s;
      s.kind = StatementKind::kDeallocate;
      s.deallocate = std::make_shared<DeallocateNode>();
      if (AcceptWord("all")) {
        s.deallocate->name = "*";
      } else {
        GPHTAP_ASSIGN_OR_RETURN(s.deallocate->name, ExpectIdent());
      }
      return s;
    }
    if (AcceptWord("lock")) return ParseLock();
    if (AcceptWord("truncate")) {
      AcceptWord("table");
      Statement s;
      s.kind = StatementKind::kTruncate;
      s.truncate = std::make_shared<TruncateNode>();
      GPHTAP_ASSIGN_OR_RETURN(s.truncate->table, ExpectIdent());
      return s;
    }
    if (AcceptWord("vacuum")) {
      AcceptWord("full");
      Statement s;
      s.kind = StatementKind::kVacuum;
      s.vacuum = std::make_shared<VacuumNode>();
      GPHTAP_ASSIGN_OR_RETURN(s.vacuum->table, ExpectIdent());
      return s;
    }
    if (AcceptWord("cluster")) {
      Statement s;
      s.kind = StatementKind::kCluster;
      s.cluster = std::make_shared<ClusterNode>();
      GPHTAP_ASSIGN_OR_RETURN(s.cluster->table, ExpectIdent());
      if (AcceptWord("using")) {
        GPHTAP_ASSIGN_OR_RETURN(s.cluster->using_col, ExpectIdent());
      }
      return s;
    }
    if (AcceptWord("rebalance")) {
      GPHTAP_RETURN_IF_ERROR(ExpectWord("table"));
      Statement s;
      s.kind = StatementKind::kRebalance;
      s.rebalance = std::make_shared<RebalanceNode>();
      GPHTAP_ASSIGN_OR_RETURN(s.rebalance->table, ExpectIdent());
      return s;
    }
    if (AcceptWord("set")) {
      Statement s;
      s.kind = StatementKind::kSet;
      s.set = std::make_shared<SetNode>();
      GPHTAP_ASSIGN_OR_RETURN(s.set->name, ExpectIdent());
      if (s.set->name == "role") {
        GPHTAP_ASSIGN_OR_RETURN(s.set->value, ExpectIdent());
        return s;
      }
      if (!AcceptSymbol("=")) AcceptWord("to");
      if (Peek().Is(TokenType::kIdent) || Peek().Is(TokenType::kInt) ||
          Peek().Is(TokenType::kString) || Peek().Is(TokenType::kFloat)) {
        s.set->value = Advance().text;
      }
      return s;
    }
    if (AcceptWord("show")) {
      GPHTAP_RETURN_IF_ERROR(ExpectWord("tables"));
      Statement s;
      s.kind = StatementKind::kShowTables;
      return s;
    }
    return Err("unknown statement");
  }

  StatusOr<std::shared_ptr<SelectNode>> ParseSelect() {
    GPHTAP_RETURN_IF_ERROR(ExpectWord("select"));
    auto sel = std::make_shared<SelectNode>();
    if (AcceptWord("distinct")) sel->distinct = true;
    // select list
    while (true) {
      SelectItemNode item;
      GPHTAP_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (AcceptWord("as")) {
        GPHTAP_ASSIGN_OR_RETURN(item.alias, ExpectIdent());
      } else if (Peek().Is(TokenType::kIdent) && !IsClauseKeyword(Peek())) {
        item.alias = Advance().text;
      }
      sel->items.push_back(std::move(item));
      if (!AcceptSymbol(",")) break;
    }
    if (AcceptWord("from")) {
      GPHTAP_ASSIGN_OR_RETURN(TableRefNode first, ParseTableRef());
      sel->from.push_back(std::move(first));
      GPHTAP_RETURN_IF_ERROR(ParseFromTail(sel.get()));
    }
    if (AcceptWord("where")) {
      GPHTAP_ASSIGN_OR_RETURN(sel->where, ParseExpr());
    }
    if (AcceptWord("group")) {
      GPHTAP_RETURN_IF_ERROR(ExpectWord("by"));
      while (true) {
        GPHTAP_ASSIGN_OR_RETURN(ExprNodePtr g, ParseExpr());
        sel->group_by.push_back(g);
        if (!AcceptSymbol(",")) break;
      }
    }
    if (AcceptWord("having")) {
      GPHTAP_ASSIGN_OR_RETURN(sel->having, ParseExpr());
    }
    if (AcceptWord("order")) {
      GPHTAP_RETURN_IF_ERROR(ExpectWord("by"));
      while (true) {
        OrderItemNode o;
        GPHTAP_ASSIGN_OR_RETURN(o.expr, ParseExpr());
        if (AcceptWord("desc")) {
          o.ascending = false;
        } else {
          AcceptWord("asc");
        }
        sel->order_by.push_back(std::move(o));
        if (!AcceptSymbol(",")) break;
      }
    }
    if (AcceptWord("limit")) {
      if (!Peek().Is(TokenType::kInt)) return Err("LIMIT expects an integer");
      GPHTAP_ASSIGN_OR_RETURN(sel->limit, IntLiteral(/*negative=*/false));
    }
    return sel;
  }

  Status ParseFromTail(SelectNode* sel) {
    while (true) {
      if (AcceptSymbol(",")) {
        GPHTAP_ASSIGN_OR_RETURN(TableRefNode t, ParseTableRef());
        sel->from.push_back(std::move(t));
        continue;
      }
      if (Peek().IsWord("join") || (Peek().IsWord("inner") && Peek(1).IsWord("join"))) {
        AcceptWord("inner");
        GPHTAP_RETURN_IF_ERROR(ExpectWord("join"));
        GPHTAP_ASSIGN_OR_RETURN(TableRefNode t, ParseTableRef());
        sel->from.push_back(std::move(t));
        GPHTAP_RETURN_IF_ERROR(ExpectWord("on"));
        GPHTAP_ASSIGN_OR_RETURN(ExprNodePtr on, ParseExpr());
        sel->join_quals.push_back(on);
        continue;
      }
      break;
    }
    return Status::OK();
  }

  static bool IsClauseKeyword(const Token& t) {
    static const char* kws[] = {"from",   "where", "group", "order", "limit",
                                "join",   "on",    "inner", "as",    "asc",
                                "desc",   "and",   "or",    "is",    "having"};
    for (const char* k : kws) {
      if (t.IsWord(k)) return true;
    }
    return false;
  }

  StatusOr<TableRefNode> ParseTableRef() {
    TableRefNode t;
    GPHTAP_ASSIGN_OR_RETURN(t.name, ExpectIdent());
    if (Peek().IsSymbol("(")) {
      Advance();
      t.is_function = true;
      if (!Peek().IsSymbol(")")) {
        while (true) {
          GPHTAP_ASSIGN_OR_RETURN(ExprNodePtr arg, ParseExpr());
          t.func_args.push_back(arg);
          if (!AcceptSymbol(",")) break;
        }
      }
      GPHTAP_RETURN_IF_ERROR(ExpectSymbol(")"));
    }
    if (AcceptWord("as")) {
      GPHTAP_ASSIGN_OR_RETURN(t.alias, ExpectIdent());
    } else if (Peek().Is(TokenType::kIdent) && !IsClauseKeyword(Peek()) &&
               !Peek().IsWord("set")) {
      t.alias = Advance().text;
    }
    return t;
  }

  StatusOr<Statement> ParseInsert() {
    GPHTAP_RETURN_IF_ERROR(ExpectWord("into"));
    Statement stmt;
    stmt.kind = StatementKind::kInsert;
    stmt.insert = std::make_shared<InsertNode>();
    GPHTAP_ASSIGN_OR_RETURN(stmt.insert->table, ExpectIdent());
    if (AcceptSymbol("(")) {
      while (true) {
        GPHTAP_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
        stmt.insert->columns.push_back(col);
        if (!AcceptSymbol(",")) break;
      }
      GPHTAP_RETURN_IF_ERROR(ExpectSymbol(")"));
    }
    if (AcceptWord("values")) {
      while (true) {
        GPHTAP_RETURN_IF_ERROR(ExpectSymbol("("));
        std::vector<ExprNodePtr> row;
        while (true) {
          GPHTAP_ASSIGN_OR_RETURN(ExprNodePtr e, ParseExpr());
          row.push_back(e);
          if (!AcceptSymbol(",")) break;
        }
        GPHTAP_RETURN_IF_ERROR(ExpectSymbol(")"));
        stmt.insert->rows.push_back(std::move(row));
        if (!AcceptSymbol(",")) break;
      }
      return stmt;
    }
    if (Peek().IsWord("select")) {
      GPHTAP_ASSIGN_OR_RETURN(stmt.insert->select, ParseSelect());
      return stmt;
    }
    return Err("expected VALUES or SELECT in INSERT");
  }

  StatusOr<Statement> ParseUpdate() {
    Statement stmt;
    stmt.kind = StatementKind::kUpdate;
    stmt.update = std::make_shared<UpdateNode>();
    GPHTAP_ASSIGN_OR_RETURN(stmt.update->table, ExpectIdent());
    GPHTAP_RETURN_IF_ERROR(ExpectWord("set"));
    while (true) {
      GPHTAP_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
      GPHTAP_RETURN_IF_ERROR(ExpectSymbol("="));
      GPHTAP_ASSIGN_OR_RETURN(ExprNodePtr e, ParseExpr());
      stmt.update->sets.emplace_back(col, e);
      if (!AcceptSymbol(",")) break;
    }
    if (AcceptWord("where")) {
      GPHTAP_ASSIGN_OR_RETURN(stmt.update->where, ParseExpr());
    }
    return stmt;
  }

  StatusOr<Statement> ParseDelete() {
    GPHTAP_RETURN_IF_ERROR(ExpectWord("from"));
    Statement stmt;
    stmt.kind = StatementKind::kDelete;
    stmt.del = std::make_shared<DeleteNode>();
    GPHTAP_ASSIGN_OR_RETURN(stmt.del->table, ExpectIdent());
    if (AcceptWord("where")) {
      GPHTAP_ASSIGN_OR_RETURN(stmt.del->where, ParseExpr());
    }
    return stmt;
  }

  StatusOr<std::vector<std::pair<std::string, std::string>>> ParseWithOptions() {
    std::vector<std::pair<std::string, std::string>> options;
    GPHTAP_RETURN_IF_ERROR(ExpectSymbol("("));
    while (true) {
      GPHTAP_ASSIGN_OR_RETURN(std::string key, ExpectIdent());
      std::string value;
      if (AcceptSymbol("=")) {
        // Value forms: word, number, 'string', or N-M core ranges.
        if (Peek().Is(TokenType::kIdent) || Peek().Is(TokenType::kString)) {
          value = Advance().text;
        } else if (Peek().Is(TokenType::kInt) || Peek().Is(TokenType::kFloat)) {
          value = Advance().text;
          if (AcceptSymbol("-")) {
            if (!Peek().Is(TokenType::kInt)) return Err("expected core range end");
            value += "-" + Advance().text;
          }
        } else {
          return Err("expected option value");
        }
      } else {
        value = "true";
      }
      options.emplace_back(key, value);
      if (!AcceptSymbol(",")) break;
    }
    GPHTAP_RETURN_IF_ERROR(ExpectSymbol(")"));
    return options;
  }

  StatusOr<Datum> ParseLiteralDatum() {
    bool negative = AcceptSymbol("-");
    const Token& t = Peek();
    if (t.Is(TokenType::kInt)) {
      GPHTAP_ASSIGN_OR_RETURN(int64_t v, IntLiteral(negative));
      return Datum(v);
    }
    if (t.Is(TokenType::kFloat)) {
      Advance();
      double v = std::strtod(t.text.c_str(), nullptr);
      return Datum(negative ? -v : v);
    }
    if (t.Is(TokenType::kString)) {
      Advance();
      return Datum(t.text);
    }
    return Err("expected literal");
  }

  StatusOr<Statement> ParseCreate() {
    GPHTAP_RETURN_IF_ERROR(ExpectWord("create"));
    if (AcceptWord("table")) return ParseCreateTable();
    if (AcceptWord("index")) return ParseCreateIndex();
    if (AcceptWord("resource")) {
      GPHTAP_RETURN_IF_ERROR(ExpectWord("group"));
      Statement stmt;
      stmt.kind = StatementKind::kCreateResourceGroup;
      stmt.create_resource_group = std::make_shared<CreateResourceGroupNode>();
      GPHTAP_ASSIGN_OR_RETURN(stmt.create_resource_group->name, ExpectIdent());
      GPHTAP_RETURN_IF_ERROR(ExpectWord("with"));
      GPHTAP_ASSIGN_OR_RETURN(stmt.create_resource_group->options, ParseWithOptions());
      return stmt;
    }
    if (AcceptWord("role")) {
      Statement stmt;
      stmt.kind = StatementKind::kCreateRole;
      stmt.role_resource_group = std::make_shared<RoleResourceGroupNode>();
      GPHTAP_ASSIGN_OR_RETURN(stmt.role_resource_group->role, ExpectIdent());
      if (AcceptWord("resource")) {
        GPHTAP_RETURN_IF_ERROR(ExpectWord("group"));
        GPHTAP_ASSIGN_OR_RETURN(stmt.role_resource_group->group, ExpectIdent());
      }
      return stmt;
    }
    return Err("CREATE expects TABLE, INDEX, ROLE or RESOURCE GROUP");
  }

  StatusOr<Statement> ParseCreateTable() {
    Statement stmt;
    stmt.kind = StatementKind::kCreateTable;
    stmt.create_table = std::make_shared<CreateTableNode>();
    CreateTableNode& ct = *stmt.create_table;
    GPHTAP_ASSIGN_OR_RETURN(ct.name, ExpectIdent());
    GPHTAP_RETURN_IF_ERROR(ExpectSymbol("("));
    while (true) {
      ColumnDefNode col;
      GPHTAP_ASSIGN_OR_RETURN(col.name, ExpectIdent());
      GPHTAP_ASSIGN_OR_RETURN(col.type, ExpectIdent());
      // Swallow type decorations: varchar(80), double precision, not null.
      if (AcceptSymbol("(")) {
        while (!Peek().IsSymbol(")") && !Peek().Is(TokenType::kEnd)) Advance();
        GPHTAP_RETURN_IF_ERROR(ExpectSymbol(")"));
      }
      if (col.type == "double") AcceptWord("precision");
      if (AcceptWord("not")) GPHTAP_RETURN_IF_ERROR(ExpectWord("null"));
      AcceptWord("null");
      ct.columns.push_back(std::move(col));
      if (!AcceptSymbol(",")) break;
    }
    GPHTAP_RETURN_IF_ERROR(ExpectSymbol(")"));

    while (true) {
      if (AcceptWord("with")) {
        GPHTAP_ASSIGN_OR_RETURN(ct.with_options, ParseWithOptions());
        continue;
      }
      if (AcceptWord("distributed")) {
        if (AcceptWord("replicated")) {
          ct.distributed_replicated = true;
        } else if (AcceptWord("randomly")) {
          ct.distributed_randomly = true;
        } else {
          GPHTAP_RETURN_IF_ERROR(ExpectWord("by"));
          GPHTAP_RETURN_IF_ERROR(ExpectSymbol("("));
          while (true) {
            GPHTAP_ASSIGN_OR_RETURN(std::string c, ExpectIdent());
            ct.distributed_by.push_back(c);
            if (!AcceptSymbol(",")) break;
          }
          GPHTAP_RETURN_IF_ERROR(ExpectSymbol(")"));
        }
        continue;
      }
      if (AcceptWord("partition")) {
        GPHTAP_RETURN_IF_ERROR(ExpectWord("by"));
        GPHTAP_RETURN_IF_ERROR(ExpectWord("range"));
        GPHTAP_RETURN_IF_ERROR(ExpectSymbol("("));
        GPHTAP_ASSIGN_OR_RETURN(ct.partition_col, ExpectIdent());
        GPHTAP_RETURN_IF_ERROR(ExpectSymbol(")"));
        GPHTAP_RETURN_IF_ERROR(ExpectSymbol("("));
        while (true) {
          GPHTAP_RETURN_IF_ERROR(ExpectWord("partition"));
          PartitionDefNode part;
          GPHTAP_ASSIGN_OR_RETURN(part.name, ExpectIdent());
          if (AcceptWord("start")) {
            GPHTAP_ASSIGN_OR_RETURN(Datum d, ParseLiteralDatum());
            part.start = d;
          }
          if (AcceptWord("end")) {
            GPHTAP_ASSIGN_OR_RETURN(Datum d, ParseLiteralDatum());
            part.end = d;
          }
          if (AcceptWord("with")) {
            GPHTAP_ASSIGN_OR_RETURN(part.with_options, ParseWithOptions());
          }
          if (AcceptWord("external")) {
            if (!Peek().Is(TokenType::kString)) return Err("EXTERNAL expects 'path'");
            part.external_path = Advance().text;
          }
          ct.partitions.push_back(std::move(part));
          if (!AcceptSymbol(",")) break;
        }
        GPHTAP_RETURN_IF_ERROR(ExpectSymbol(")"));
        continue;
      }
      break;
    }
    return stmt;
  }

  StatusOr<Statement> ParseCreateIndex() {
    Statement stmt;
    stmt.kind = StatementKind::kCreateIndex;
    stmt.create_index = std::make_shared<CreateIndexNode>();
    if (Peek().Is(TokenType::kIdent) && !Peek().IsWord("on")) {
      stmt.create_index->index_name = Advance().text;
    }
    GPHTAP_RETURN_IF_ERROR(ExpectWord("on"));
    GPHTAP_ASSIGN_OR_RETURN(stmt.create_index->table, ExpectIdent());
    GPHTAP_RETURN_IF_ERROR(ExpectSymbol("("));
    GPHTAP_ASSIGN_OR_RETURN(stmt.create_index->column, ExpectIdent());
    GPHTAP_RETURN_IF_ERROR(ExpectSymbol(")"));
    return stmt;
  }

  StatusOr<Statement> ParseDrop() {
    if (AcceptWord("table")) {
      Statement stmt;
      stmt.kind = StatementKind::kDropTable;
      stmt.drop_table = std::make_shared<DropTableNode>();
      if (AcceptWord("if")) {
        GPHTAP_RETURN_IF_ERROR(ExpectWord("exists"));
        stmt.drop_table->if_exists = true;
      }
      GPHTAP_ASSIGN_OR_RETURN(stmt.drop_table->name, ExpectIdent());
      return stmt;
    }
    if (AcceptWord("resource")) {
      GPHTAP_RETURN_IF_ERROR(ExpectWord("group"));
      Statement stmt;
      stmt.kind = StatementKind::kDropResourceGroup;
      stmt.drop_resource_group = std::make_shared<DropResourceGroupNode>();
      GPHTAP_ASSIGN_OR_RETURN(stmt.drop_resource_group->name, ExpectIdent());
      return stmt;
    }
    return Err("DROP expects TABLE or RESOURCE GROUP");
  }

  StatusOr<Statement> ParseAlter() {
    GPHTAP_RETURN_IF_ERROR(ExpectWord("role"));
    Statement stmt;
    stmt.kind = StatementKind::kAlterRole;
    stmt.role_resource_group = std::make_shared<RoleResourceGroupNode>();
    GPHTAP_ASSIGN_OR_RETURN(stmt.role_resource_group->role, ExpectIdent());
    GPHTAP_RETURN_IF_ERROR(ExpectWord("resource"));
    GPHTAP_RETURN_IF_ERROR(ExpectWord("group"));
    GPHTAP_ASSIGN_OR_RETURN(stmt.role_resource_group->group, ExpectIdent());
    return stmt;
  }

  StatusOr<Statement> ParseLock() {
    AcceptWord("table");
    Statement stmt;
    stmt.kind = StatementKind::kLockTable;
    stmt.lock_table = std::make_shared<LockTableNode>();
    GPHTAP_ASSIGN_OR_RETURN(stmt.lock_table->table, ExpectIdent());
    if (AcceptWord("in")) {
      // Collect mode words until MODE.
      std::string mode_words;
      while (Peek().Is(TokenType::kIdent) && !Peek().IsWord("mode")) {
        if (!mode_words.empty()) mode_words += " ";
        mode_words += Advance().text;
      }
      GPHTAP_RETURN_IF_ERROR(ExpectWord("mode"));
      static const std::pair<const char*, LockMode> kModes[] = {
          {"access share", LockMode::kAccessShare},
          {"row share", LockMode::kRowShare},
          {"row exclusive", LockMode::kRowExclusive},
          {"share update exclusive", LockMode::kShareUpdateExclusive},
          {"share", LockMode::kShare},
          {"share row exclusive", LockMode::kShareRowExclusive},
          {"exclusive", LockMode::kExclusive},
          {"access exclusive", LockMode::kAccessExclusive},
      };
      bool found = false;
      for (const auto& [words, mode] : kModes) {
        if (mode_words == words) {
          stmt.lock_table->mode = mode;
          found = true;
          break;
        }
      }
      if (!found) return Err("unknown lock mode '" + mode_words + "'");
    }
    return stmt;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<sql_ast::Statement> ParseStatement(const std::string& sql) {
  GPHTAP_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace gphtap
