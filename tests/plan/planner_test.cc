#include "plan/planner.h"

#include <gtest/gtest.h>

namespace gphtap {
namespace {

TableDef MakeTable(TableId id, const std::string& name,
                   DistributionPolicy dist = DistributionPolicy::Hash({0})) {
  TableDef def;
  def.id = id;
  def.name = name;
  def.schema = Schema({{"k", TypeId::kInt64}, {"v", TypeId::kInt64}});
  def.distribution = std::move(dist);
  return def;
}

PlannerOptions Opts(int segments, bool orca = false) {
  PlannerOptions o;
  o.num_segments = segments;
  o.use_orca = orca;
  static int counter = 0;
  o.next_motion_id = [] { return counter++; };
  return o;
}

SelectItem ColItem(int col, const std::string& name) {
  SelectItem i;
  i.expr = Expr::Column(col);
  i.name = name;
  return i;
}

const PlanNode* FindNode(const PlanNode& root, PlanKind kind) {
  if (root.kind == kind) return &root;
  for (const auto& c : root.children) {
    const PlanNode* f = FindNode(*c, kind);
    if (f != nullptr) return f;
  }
  return nullptr;
}

int CountNodes(const PlanNode& root, PlanKind kind) {
  int n = root.kind == kind ? 1 : 0;
  for (const auto& c : root.children) n += CountNodes(*c, kind);
  return n;
}

TEST(PlannerTest, SimpleScanGathers) {
  SelectQuery q;
  q.tables = {MakeTable(1, "t")};
  q.items = {ColItem(0, "k")};
  auto planned = PlanSelect(q, Opts(4));
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_EQ(planned->gang.size(), 4u);
  const PlanNode* motion = FindNode(*planned->root, PlanKind::kMotion);
  ASSERT_NE(motion, nullptr);
  EXPECT_EQ(motion->motion, MotionKind::kGather);
  EXPECT_NE(FindNode(*planned->root, PlanKind::kSeqScan), nullptr);
  EXPECT_EQ(planned->columns[0], "k");
}

TEST(PlannerTest, DirectDispatchOnPinnedKey) {
  SelectQuery q;
  q.tables = {MakeTable(1, "t")};
  q.quals = {Expr::Binary(BinOp::kEq, Expr::Column(0), Expr::Const(Datum(int64_t{7})))};
  q.items = {ColItem(1, "v")};
  auto planned = PlanSelect(q, Opts(4));
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->gang.size(), 1u);  // routed to exactly one segment
  int expected = static_cast<int>(Datum(int64_t{7}).Hash() % 4);
  // Direct dispatch hashes the key row, which for a single int key equals
  // HashRowKey of that one datum.
  Row key = {Datum(int64_t{7})};
  EXPECT_EQ(planned->gang[0], static_cast<int>(HashRowKey(key, {0}) % 4));
  (void)expected;
}

TEST(PlannerTest, NoDirectDispatchOnNonKeyPredicate) {
  SelectQuery q;
  q.tables = {MakeTable(1, "t")};
  q.quals = {Expr::Binary(BinOp::kEq, Expr::Column(1), Expr::Const(Datum(int64_t{7})))};
  q.items = {ColItem(0, "k")};
  auto planned = PlanSelect(q, Opts(4));
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->gang.size(), 4u);
}

TEST(PlannerTest, DirectDispatchDisabled) {
  SelectQuery q;
  q.tables = {MakeTable(1, "t")};
  q.quals = {Expr::Binary(BinOp::kEq, Expr::Column(0), Expr::Const(Datum(int64_t{7})))};
  q.items = {ColItem(0, "k")};
  PlannerOptions opts = Opts(4);
  opts.direct_dispatch = false;
  auto planned = PlanSelect(q, opts);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->gang.size(), 4u);
}

TEST(PlannerTest, CollocatedJoinHasSingleMotion) {
  // Both distributed by the join key: only the final gather moves data.
  SelectQuery q;
  q.tables = {MakeTable(1, "a"), MakeTable(2, "b")};
  q.quals = {Expr::Binary(BinOp::kEq, Expr::Column(0), Expr::Column(2))};
  q.items = {ColItem(0, "k")};
  auto planned = PlanSelect(q, Opts(4));
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(CountNodes(*planned->root, PlanKind::kMotion), 1);  // gather only
  EXPECT_NE(FindNode(*planned->root, PlanKind::kHashJoin), nullptr);
}

TEST(PlannerTest, MismatchedJoinKeyRedistributes) {
  // Join a.v = b.k: a is distributed by a.k, so a must move.
  SelectQuery q;
  q.tables = {MakeTable(1, "a"), MakeTable(2, "b")};
  q.quals = {Expr::Binary(BinOp::kEq, Expr::Column(1), Expr::Column(2))};
  q.items = {ColItem(0, "k")};
  auto planned = PlanSelect(q, Opts(4));
  ASSERT_TRUE(planned.ok());
  int motions = CountNodes(*planned->root, PlanKind::kMotion);
  EXPECT_EQ(motions, 2);  // one redistribute + final gather
  // Find the redistribute.
  bool found_redistribute = false;
  std::function<void(const PlanNode&)> walk = [&](const PlanNode& n) {
    if (n.kind == PlanKind::kMotion && n.motion == MotionKind::kRedistribute) {
      found_redistribute = true;
    }
    for (const auto& c : n.children) walk(*c);
  };
  walk(*planned->root);
  EXPECT_TRUE(found_redistribute);
}

TEST(PlannerTest, ReplicatedTableNeedsNoMotion) {
  SelectQuery q;
  q.tables = {MakeTable(1, "facts"),
              MakeTable(2, "dims", DistributionPolicy::Replicated())};
  q.quals = {Expr::Binary(BinOp::kEq, Expr::Column(1), Expr::Column(2))};
  q.items = {ColItem(0, "k")};
  auto planned = PlanSelect(q, Opts(4));
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(CountNodes(*planned->root, PlanKind::kMotion), 1);  // gather only
}

TEST(PlannerTest, OrcaBroadcastsSmallBuildSide) {
  SelectQuery q;
  q.tables = {MakeTable(1, "big"), MakeTable(2, "small")};
  // Join on big.v = small.v: neither side collocated.
  q.quals = {Expr::Binary(BinOp::kEq, Expr::Column(1), Expr::Column(3))};
  q.items = {ColItem(0, "k")};
  PlannerOptions opts = Opts(4, /*orca=*/true);
  opts.row_estimate = [](TableId id) -> uint64_t { return id == 1 ? 1'000'000 : 10; };
  auto planned = PlanSelect(q, opts);
  ASSERT_TRUE(planned.ok());
  bool found_broadcast = false;
  std::function<void(const PlanNode&)> walk = [&](const PlanNode& n) {
    if (n.kind == PlanKind::kMotion && n.motion == MotionKind::kBroadcast) {
      found_broadcast = true;
    }
    for (const auto& c : n.children) walk(*c);
  };
  walk(*planned->root);
  EXPECT_TRUE(found_broadcast) << planned->root->ToString();
}

TEST(PlannerTest, HeuristicNeverBroadcasts) {
  SelectQuery q;
  q.tables = {MakeTable(1, "big"), MakeTable(2, "small")};
  q.quals = {Expr::Binary(BinOp::kEq, Expr::Column(1), Expr::Column(3))};
  q.items = {ColItem(0, "k")};
  PlannerOptions opts = Opts(4, /*orca=*/false);
  opts.row_estimate = [](TableId id) -> uint64_t { return id == 1 ? 1'000'000 : 10; };
  auto planned = PlanSelect(q, opts);
  ASSERT_TRUE(planned.ok());
  std::function<int(const PlanNode&)> count_bc = [&](const PlanNode& n) -> int {
    int c = n.kind == PlanKind::kMotion && n.motion == MotionKind::kBroadcast ? 1 : 0;
    for (const auto& ch : n.children) c += count_bc(*ch);
    return c;
  };
  EXPECT_EQ(count_bc(*planned->root), 0);
}

TEST(PlannerTest, AggregationIsTwoPhase) {
  SelectQuery q;
  q.tables = {MakeTable(1, "t")};
  SelectItem agg;
  agg.is_agg = true;
  agg.agg.fn = AggFunc::kSum;
  agg.agg.arg = Expr::Column(1);
  agg.name = "sum";
  q.items = {ColItem(0, "k"), agg};
  q.group_by = {0};
  auto planned = PlanSelect(q, Opts(4));
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_EQ(CountNodes(*planned->root, PlanKind::kHashAgg), 2);  // partial + final
  // The partial agg must sit BELOW the gather motion.
  const PlanNode* motion = FindNode(*planned->root, PlanKind::kMotion);
  ASSERT_NE(motion, nullptr);
  EXPECT_NE(FindNode(*motion->children[0], PlanKind::kHashAgg), nullptr);
}

TEST(PlannerTest, UngroupedColumnWithAggregateRejected) {
  SelectQuery q;
  q.tables = {MakeTable(1, "t")};
  SelectItem agg;
  agg.is_agg = true;
  agg.agg.fn = AggFunc::kCountStar;
  agg.name = "n";
  q.items = {ColItem(1, "v"), agg};  // v not grouped
  q.group_by = {0};
  auto planned = PlanSelect(q, Opts(4));
  EXPECT_FALSE(planned.ok());
}

TEST(PlannerTest, IndexScanChosenForPinnedIndexedColumn) {
  TableDef t = MakeTable(1, "t");
  t.indexed_cols = {0};
  SelectQuery q;
  q.tables = {t};
  q.quals = {Expr::Binary(BinOp::kEq, Expr::Column(0), Expr::Const(Datum(int64_t{5})))};
  q.items = {ColItem(1, "v")};
  auto planned = PlanSelect(q, Opts(4));
  ASSERT_TRUE(planned.ok());
  EXPECT_NE(FindNode(*planned->root, PlanKind::kIndexScan), nullptr);
  EXPECT_EQ(FindNode(*planned->root, PlanKind::kSeqScan), nullptr);
}

// `key = $1` plans like `key = const`: an IndexScan keyed by the parameter
// and a distribution key held until EXECUTE binds a value, which then routes
// to the same one segment the constant's plan picks.
TEST(PlannerTest, ParameterPinnedKeyPlansLikeAConstant) {
  TableDef t = MakeTable(1, "t");
  t.indexed_cols = {0};
  auto pinned = [](ExprPtr key) { return Expr::Binary(BinOp::kEq, Expr::Column(0), key); };
  const std::vector<Datum> params = {Datum(int64_t{5})};
  std::vector<std::pair<int, ExprPtr>> sets = {
      {1, Expr::Binary(BinOp::kAdd, Expr::Column(1), Expr::Const(Datum(int64_t{1})))}};

  SelectQuery q;
  q.tables = {t};
  q.quals = {pinned(Expr::Param(0))};
  q.items = {ColItem(1, "v")};
  auto select = PlanSelect(q, Opts(4));
  ASSERT_TRUE(select.ok()) << select.status().ToString();
  auto update = PlanModify(t, &sets, pinned(Expr::Param(0)), Opts(4));
  ASSERT_TRUE(update.ok()) << update.status().ToString();
  q.quals = {pinned(Expr::Const(params[0]))};
  auto literal = PlanSelect(q, Opts(4));
  ASSERT_TRUE(literal.ok());
  ASSERT_EQ(literal->gang.size(), 1u);

  for (CachedPlan* planned : {&*select, &*update}) {
    const PlanNode* scan = FindNode(*planned->root, PlanKind::kIndexScan);
    ASSERT_NE(scan, nullptr);
    EXPECT_EQ(scan->index_key->kind, ExprKind::kParam);
    EXPECT_EQ(planned->gang.size(), 4u);  // wide until a value is bound
    ASSERT_EQ(planned->param_dispatch.key.size(), 1u);

    auto generic = std::make_shared<const CachedPlan>(std::move(*planned));
    auto bound = BindPlanParams(generic, params);
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    EXPECT_EQ((*bound)->gang, literal->gang);
    EXPECT_TRUE((*bound)->param_dispatch.key.empty());
    const PlanNode* bound_scan = FindNode(*(*bound)->root, PlanKind::kIndexScan);
    ASSERT_NE(bound_scan, nullptr);
    ASSERT_EQ(bound_scan->index_key->kind, ExprKind::kConst);
    EXPECT_EQ(bound_scan->index_key->value.int_val(), 5);
    EXPECT_EQ(FindNode(*generic->root, PlanKind::kIndexScan)->index_key->kind,
              ExprKind::kParam);  // the generic plan is left as it was
  }
}

TEST(PlannerTest, SortAndLimitOnTop) {
  SelectQuery q;
  q.tables = {MakeTable(1, "t")};
  q.items = {ColItem(0, "k")};
  q.order_by = {{0, false}};
  q.limit = 10;
  auto planned = PlanSelect(q, Opts(4));
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->root->kind, PlanKind::kLimit);
  EXPECT_EQ(planned->root->children[0]->kind, PlanKind::kSort);
  EXPECT_FALSE(planned->root->children[0]->sort_keys[0].ascending);
}

TEST(PlannerTest, AllReplicatedRunsOnOneSegment) {
  SelectQuery q;
  q.tables = {MakeTable(1, "dims", DistributionPolicy::Replicated())};
  q.items = {ColItem(0, "k")};
  auto planned = PlanSelect(q, Opts(4));
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->gang.size(), 1u);
}

TEST(PlannerTest, ModifyTableRunsOverThePlannersScan) {
  TableDef t = MakeTable(1, "t");
  t.indexed_cols = {1, 0};
  ExprPtr pinned = Expr::Binary(BinOp::kEq, Expr::Column(0), Expr::Const(Datum(int64_t{5})));
  std::vector<std::pair<int, ExprPtr>> sets = {{1, Expr::Const(Datum(int64_t{9}))}};

  // UPDATE pinned on an indexed distribution key: one segment, an IndexScan
  // that feeds the TupleId junk columns, and no motion.
  auto update = PlanModify(t, &sets, pinned, Opts(4));
  ASSERT_TRUE(update.ok()) << update.status().ToString();
  EXPECT_EQ(update->gang.size(), 1u);
  EXPECT_EQ(update->root->kind, PlanKind::kModifyTable);
  ASSERT_EQ(update->root->exprs.size(), 2u);
  EXPECT_EQ(update->root->exprs[0], nullptr);
  EXPECT_NE(update->root->exprs[1], nullptr);
  const PlanNode& scan = *update->root->children[0];
  EXPECT_EQ(scan.kind, PlanKind::kIndexScan);
  EXPECT_EQ(scan.index_col, 0);
  EXPECT_TRUE(scan.emit_tid);
  EXPECT_EQ(scan.output_arity, 4);
  EXPECT_EQ(CountNodes(*update->root, PlanKind::kMotion), 0);

  // DELETE with no predicate: a SeqScan on every segment the table spans.
  auto del = PlanModify(t, nullptr, nullptr, Opts(4));
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del->gang, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_TRUE(del->root->exprs.empty());
  EXPECT_EQ(del->root->children[0]->kind, PlanKind::kSeqScan);

  // A rebalancing table fans out to every serving segment, pinned or not; a
  // settled one stays on its span.
  PlannerOptions expanding = Opts(4);
  bool rebalancing = true;
  expanding.table_dist = [&](TableId) { return std::make_pair(2, rebalancing); };
  EXPECT_EQ(PlanModify(t, &sets, pinned, expanding)->gang.size(), 4u);
  rebalancing = false;
  EXPECT_EQ(PlanModify(t, nullptr, nullptr, expanding)->gang, (std::vector<int>{0, 1}));

  // Every copy of a replicated table; no UPDATE of a distribution key.
  TableDef r = MakeTable(2, "r", DistributionPolicy::Replicated());
  EXPECT_EQ(PlanModify(r, &sets, pinned, Opts(4))->gang.size(), 4u);
  std::vector<std::pair<int, ExprPtr>> key_set = {{0, Expr::Const(Datum(int64_t{1}))}};
  auto moved = PlanModify(t, &key_set, pinned, Opts(4));
  ASSERT_FALSE(moved.ok());
  EXPECT_EQ(moved.status().code(), StatusCode::kNotSupported);
}

TEST(PlannerTest, EmptyFromRejected) {
  SelectQuery q;
  q.items = {ColItem(0, "k")};
  EXPECT_FALSE(PlanSelect(q, Opts(4)).ok());
}

}  // namespace
}  // namespace gphtap
