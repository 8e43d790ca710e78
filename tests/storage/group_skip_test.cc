// Skipping by value range (storage/scan_bounds.h): a sealed column group
// whose min/max, or a partition leaf whose [lower, upper), rules out one of a
// scan's `column op constant` conjuncts is never read. Every skip must be
// invisible in results, so the differential cases compare each query, on both
// engines, with the row engine over a heap copy that reads every row, across
// AO-row, AO-column and delta-store tables loaded in key order and shuffled,
// with NULLs, all-NULL groups, NaN, +-0.0, +-inf and the int64 extremes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/session.h"
#include "delta/delta_store.h"
#include "plan/expr.h"
#include "txn/clog.h"

namespace gphtap {
namespace {

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Byte-exact row text: doubles by bit pattern, so -0.0 and 0.0 differ.
std::string RowText(const Row& row) {
  std::string s;
  for (const Datum& d : row) {
    if (d.is_null()) {
      s += "NULL";
    } else if (d.is_double()) {
      s += "d" + std::to_string(std::bit_cast<uint64_t>(d.double_val()));
    } else {
      s += d.ToString();
    }
    s += "|";
  }
  return s;
}

std::vector<std::string> SortedRows(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const Row& row : rows) out.push_back(RowText(row));
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// The range check and the bounds a filter yields.

ScanBound Bound(BoundOp op, Datum value) { return ScanBound{0, op, std::move(value)}; }

TEST(ScanBoundsTest, ClosedRangeAnswersEveryOperator) {
  const Datum lo(int64_t{10}), hi(int64_t{20});
  auto may = [&](BoundOp op, Datum c) { return RangeMaySatisfy(Bound(op, c), lo, hi, false); };
  EXPECT_TRUE(may(BoundOp::kEq, Datum(int64_t{10})));
  EXPECT_TRUE(may(BoundOp::kEq, Datum(int64_t{20})));
  EXPECT_FALSE(may(BoundOp::kEq, Datum(int64_t{21})));
  EXPECT_FALSE(may(BoundOp::kEq, Datum(9.5)));
  EXPECT_TRUE(may(BoundOp::kEq, Datum(12.5)));  // the range cannot tell ints from doubles
  EXPECT_FALSE(may(BoundOp::kLt, Datum(int64_t{10})));
  EXPECT_TRUE(may(BoundOp::kLt, Datum(10.5)));
  EXPECT_TRUE(may(BoundOp::kLe, Datum(int64_t{10})));
  EXPECT_FALSE(may(BoundOp::kLe, Datum(9.99)));
  EXPECT_FALSE(may(BoundOp::kGt, Datum(int64_t{20})));
  EXPECT_TRUE(may(BoundOp::kGt, Datum(19.5)));
  EXPECT_TRUE(may(BoundOp::kGe, Datum(int64_t{20})));
  EXPECT_FALSE(may(BoundOp::kGe, Datum(kInf)));
  // Open limits admit everything on their side.
  EXPECT_TRUE(RangeMaySatisfy(Bound(BoundOp::kLt, Datum(-kInf)), Datum::Null(), hi, false));
  EXPECT_TRUE(RangeMaySatisfy(Bound(BoundOp::kGe, Datum(kMax)), lo, Datum::Null(), false));
}

TEST(ScanBoundsTest, ExclusiveUpperLimitIsStrictOnlyWithinOneType) {
  // [0, 100): v = 100 cannot hold, for ints and for doubles.
  EXPECT_FALSE(RangeMaySatisfy(Bound(BoundOp::kEq, Datum(int64_t{100})), Datum(int64_t{0}),
                               Datum(int64_t{100}), true));
  EXPECT_FALSE(RangeMaySatisfy(Bound(BoundOp::kGe, Datum(100.0)), Datum(0.0), Datum(100.0),
                               true));
  EXPECT_TRUE(RangeMaySatisfy(Bound(BoundOp::kEq, Datum(99.5)), Datum(int64_t{0}),
                              Datum(int64_t{100}), true));
  // An int just below an int upper limit can round to a double equal to it:
  // INT64_MAX - 1 < INT64_MAX, yet both compare equal to 2^63.
  const Datum two63(9223372036854775808.0);
  EXPECT_EQ(Datum(kMax - 1).Compare(two63), 0);
  EXPECT_TRUE(RangeMaySatisfy(Bound(BoundOp::kEq, two63), Datum::Null(), Datum(kMax), true));
  EXPECT_TRUE(RangeMaySatisfy(Bound(BoundOp::kGe, two63), Datum::Null(), Datum(kMax), true));
}

TEST(ScanBoundsTest, ExtractsTopLevelColumnConstantConjuncts) {
  auto cmp = [](BinOp op, ExprPtr l, ExprPtr r) { return Expr::Binary(op, l, r); };
  auto col = [](int c) { return Expr::Column(c); };
  auto num = [](Datum d) { return Expr::Const(std::move(d)); };
  // (k >= 5 AND 2.5 > d) AND k < 9
  ExprPtr f = cmp(BinOp::kAnd,
                  cmp(BinOp::kAnd, cmp(BinOp::kGe, col(0), num(Datum(int64_t{5}))),
                      cmp(BinOp::kGt, num(Datum(2.5)), col(1))),
                  cmp(BinOp::kLt, col(0), num(Datum(int64_t{9}))));
  ScanBounds b = ExtractScanBounds(*f);
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b[0].column, 0);
  EXPECT_EQ(b[0].op, BoundOp::kGe);
  EXPECT_EQ(b[1].column, 1);
  EXPECT_EQ(b[1].op, BoundOp::kLt);  // 2.5 > d  is  d < 2.5
  EXPECT_EQ(b[1].value.double_val(), 2.5);
  EXPECT_EQ(b[2].op, BoundOp::kLt);
  // None from OR, NOT, <>, column pairs, expressions, NULL, NaN or strings.
  for (const ExprPtr& e :
       {cmp(BinOp::kOr, cmp(BinOp::kEq, col(0), num(Datum(int64_t{1}))),
            cmp(BinOp::kEq, col(0), num(Datum(int64_t{2})))),
        Expr::Not(cmp(BinOp::kLt, col(0), num(Datum(int64_t{1})))),
        cmp(BinOp::kNe, col(0), num(Datum(int64_t{1}))), cmp(BinOp::kEq, col(0), col(1)),
        cmp(BinOp::kEq, cmp(BinOp::kAdd, col(0), num(Datum(int64_t{0}))),
            num(Datum(int64_t{1}))),
        cmp(BinOp::kEq, col(0), num(Datum::Null())), cmp(BinOp::kLe, col(1), num(Datum(kNaN))),
        cmp(BinOp::kEq, col(2), num(Datum(std::string("x"))))}) {
    EXPECT_TRUE(ExtractScanBounds(*e).empty()) << e->ToString();
  }
}

// ---------------------------------------------------------------------------
// The delta store's group scan while seals land between its groups.

TableDef DeltaDef() {
  TableDef def;
  def.id = 9;
  def.name = "ds";
  def.schema = Schema({{"k", TypeId::kInt64}, {"d", TypeId::kDouble}});
  def.storage = StorageKind::kHeap;
  return def;
}

// The visible rows of a scan of `ds` (that skips what `bounds` rule out)
// whose k satisfies every bound, as the filter would judge them; a group that
// is read still holds rows that fail. `after_first_batch` runs in the
// consumer, between groups, with no latch held.
std::vector<std::string> ScanRows(const DeltaStore& ds, const VisibilityContext& ctx,
                                  const ScanBounds& bounds, const ScanBounds& skip_by,
                                  uint64_t* skipped,
                                  const std::function<void()>& after_first_batch = {}) {
  std::vector<Row> read;
  bool first = true;
  Status s = ds.ScanBatches(
      ctx, {0, 1},
      [&](ColumnBatch&& batch) {
        batch.AppendTo(&read);
        if (first && after_first_batch) after_first_batch();
        first = false;
        return true;
      },
      nullptr, nullptr, skip_by, skipped);
  EXPECT_TRUE(s.ok()) << s.ToString();
  std::vector<Row> out;
  for (Row& row : read) {
    bool pass = !row[0].is_null();
    for (const ScanBound& b : bounds) {
      const int c = row[0].Compare(b.value);
      pass &= b.op == BoundOp::kEq   ? c == 0
              : b.op == BoundOp::kLt ? c < 0
              : b.op == BoundOp::kLe ? c <= 0
              : b.op == BoundOp::kGt ? c > 0
                                     : c >= 0;
    }
    if (pass) out.push_back(std::move(row));
  }
  return SortedRows(out);
}

// What a scan that skips nothing finds.
std::vector<std::string> ExpectedRows(const DeltaStore& ds, const VisibilityContext& ctx,
                                      const ScanBounds& bounds) {
  return ScanRows(ds, ctx, bounds, {}, nullptr);
}

std::vector<std::string> BoundedRows(const DeltaStore& ds, const VisibilityContext& ctx,
                                     const ScanBounds& bounds, uint64_t* skipped,
                                     const std::function<void()>& after_first_batch = {}) {
  return ScanRows(ds, ctx, bounds, bounds, skipped, after_first_batch);
}

Row DeltaRow(int64_t k) { return Row{Datum(k), Datum(static_cast<double>(k) / 2)}; }

// Three groups of keys 0..3071 in order, but group 0 also holds k = 5000, so
// `k >= 2500` reads group 0, skips group 1 and reads group 2. Groups 1 and 2
// are still open when the scan starts and sealed by its consumer after the
// first batch: group 1 is then skipped by the range the seal recorded, which
// covers every row the scan would have read there.
TEST(GroupSkipStoreTest, SealBetweenTwoGroupsOfOneDeltaScan) {
  constexpr size_t kRows = DeltaStore::kGroupRows;
  DeltaStore ds(DeltaDef());
  CommitLog clog;
  clog.Register(2);
  clog.SetState(2, TxnState::kCommitted);
  for (size_t i = 0; i < 3 * kRows; ++i) {
    ds.ApplyInsert(static_cast<TupleId>(i), 2, DeltaRow(i == 7 ? 5000 : static_cast<int64_t>(i)));
  }
  ASSERT_EQ(ds.SealCold(&clog).groups_sealed, 3u);
  // Start over with only group 0 sealed.
  DeltaStore fresh(DeltaDef());
  for (size_t i = 0; i < 3 * kRows; ++i) {
    fresh.ApplyInsert(static_cast<TupleId>(i), 2,
                      DeltaRow(i == 7 ? 5000 : static_cast<int64_t>(i)));
    if (i + 1 == kRows) {
      ASSERT_EQ(fresh.SealCold(&clog).groups_sealed, 1u);
    }
  }
  VisibilityContext ctx;
  ctx.clog = &clog;
  const ScanBounds bounds = {ScanBound{0, BoundOp::kGe, Datum(int64_t{2500})}};
  const std::vector<std::string> want = ExpectedRows(ds, ctx, bounds);
  ASSERT_EQ(want.size(), 3 * kRows - 2500 + 1);  // 2500..3071 plus 5000

  uint64_t skipped = 0;
  EXPECT_EQ(BoundedRows(fresh, ctx, bounds, &skipped,
                        [&] { EXPECT_EQ(fresh.SealCold(&clog).groups_sealed, 2u); }),
            want);
  EXPECT_EQ(skipped, 1u);
  // Sealed from the start, the same scan skips the same group.
  skipped = 0;
  EXPECT_EQ(BoundedRows(ds, ctx, bounds, &skipped), want);
  EXPECT_EQ(skipped, 1u);
}

// The feed appends (an in-progress transaction's rows, invisible to the
// scans), drops reused tids and marks deletes while a sealer seals, and every
// bounded scan returns exactly the rows a full scan finds. Under TSan this
// reads ranges under per-group shared holds while the writers hold the latch
// exclusively in between.
TEST(GroupSkipStoreTest, BoundedScansStayExactUnderFeedAndSealer) {
  constexpr size_t kRows = DeltaStore::kGroupRows;
  DeltaStore ds(DeltaDef());
  CommitLog clog;
  clog.Register(2);
  clog.SetState(2, TxnState::kCommitted);
  clog.Register(3);  // never decides: its rows and deletes stay invisible
  for (size_t i = 0; i < 6 * kRows; ++i) {
    ds.ApplyInsert(static_cast<TupleId>(i), 2, DeltaRow(static_cast<int64_t>(i)));
  }
  ASSERT_EQ(ds.SealCold(&clog).groups_sealed, 6u);
  VisibilityContext ctx;
  ctx.clog = &clog;
  const std::vector<ScanBounds> shapes = {
      {ScanBound{0, BoundOp::kEq, Datum(int64_t{4100})}},
      {ScanBound{0, BoundOp::kGe, Datum(int64_t{1000})},
       ScanBound{0, BoundOp::kLt, Datum(2100.5)}},
      {ScanBound{0, BoundOp::kGt, Datum(int64_t{6 * kRows - 3})}},
  };
  std::vector<std::vector<std::string>> want;
  for (const ScanBounds& b : shapes) want.push_back(ExpectedRows(ds, ctx, b));

  std::atomic<bool> fed{false};
  std::thread feed([&] {
    for (size_t i = 0; i < 16 * kRows; ++i) {
      const auto tid = static_cast<TupleId>(6 * kRows + i);
      ds.ApplyInsert(tid, 3, DeltaRow(static_cast<int64_t>(i % 7000)));
      ds.ApplyDelete(static_cast<TupleId>(i % (6 * kRows)), 3);
      if (i % 3 == 0) ds.ApplyInsert(tid, 3, DeltaRow(-1));  // tid reuse: drops the row
    }
    fed = true;
  });
  std::thread sealer([&] {
    while (!fed.load()) {
      ds.SealCold(nullptr);
      std::this_thread::yield();
    }
  });
  uint64_t skipped = 0;
  for (int round = 0; round < 5 || !fed.load(); ++round) {
    for (size_t s = 0; s < shapes.size(); ++s) {
      EXPECT_EQ(BoundedRows(ds, ctx, shapes[s], &skipped), want[s]) << "shape " << s;
    }
  }
  feed.join();
  sealer.join();
  EXPECT_GT(skipped, 0u);
}

// ---------------------------------------------------------------------------
// SQL: every query on every table kind equals the row engine over a heap copy.

class GroupSkipSqlTest : public ::testing::Test {
 protected:
  void Start(int segments) {
    ClusterOptions options;
    options.num_segments = segments;
    options.vectorized_execution_enabled = true;
    options.delta_store_enabled = true;
    options.delta_seal_period_us = 0;  // seal only when the test says so
    cluster_ = std::make_unique<Cluster>(options);
    session_ = cluster_->Connect();
  }

  QueryResult Exec(const std::string& sql) {
    auto r = session_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? *r : QueryResult{};
  }

  void Insert(const std::string& table, const std::vector<Row>& rows) {
    auto def = cluster_->LookupTable(table);
    ASSERT_TRUE(def.ok()) << table;
    auto r = session_->ExecuteInsert(*def, rows);
    ASSERT_TRUE(r.ok()) << table << " -> " << r.status().ToString();
  }

  void SealDelta() {
    for (int s = 0; s < cluster_->num_segments(); ++s) {
      ASSERT_TRUE(cluster_->SealDeltaNow(s).ok());
    }
  }

  uint64_t Counter(const std::string& name) {
    return cluster_->StatsSnapshot().counter(name);
  }

  std::string Plan(const std::string& sql) {
    std::string plan;
    for (const Row& row : Exec("EXPLAIN ANALYZE " + sql).rows) plan += RowText(row) + "\n";
    return plan;
  }

  // `sql` with {t} naming the table, on `tables` under both engines, against
  // the row engine over `oracle`.
  void ExpectSameAsOracle(const std::string& sql, const std::vector<std::string>& tables,
                          const std::string& oracle, const std::string& state) {
    auto on = [&](const std::string& table) {
      std::string q = sql;
      q.replace(q.find("{t}"), 3, table);
      return q;
    };
    Exec("SET vectorized_execution = off");
    const std::vector<std::string> want = SortedRows(Exec(on(oracle)).rows);
    for (const char* mode : {"on", "off"}) {
      Exec(std::string("SET vectorized_execution = ") + mode);
      for (const std::string& table : tables) {
        EXPECT_EQ(SortedRows(Exec(on(table)).rows), want)
            << on(table) << " [vectorized_execution = " << mode << ", " << state << "]";
      }
    }
    Exec("SET vectorized_execution = default");
  }

  std::unique_ptr<Cluster> cluster_;
  std::shared_ptr<Session> session_;
};

// Row i of the differential data set: k ascending (INT64_MIN first, INT64_MAX
// last, every 97th NULL); d spread over +-inf, +-0.0, NULLs and one NaN; n NULL
// across the middle half, so key-ordered groups there are all NULL; s a string.
std::vector<Row> DifferentialRows(size_t n) {
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    const auto si = static_cast<int64_t>(i);
    const int64_t k = i == 0 ? kMin : i + 1 == n ? kMax : si * 3 - 5000;
    double d = static_cast<double>(si - static_cast<int64_t>(n / 2)) * 0.75;
    if (i == 1) d = -kInf;
    if (i + 2 == n) d = kInf;
    if (i == 700) d = -0.0;
    if (i == 701) d = 0.0;
    if (i == 2 * n / 3) d = kNaN;
    rows.push_back(Row{i % 97 == 50 ? Datum::Null() : Datum(k),
                       i % 101 == 3 ? Datum::Null() : Datum(d),
                       i >= n / 4 && i < 3 * n / 4 ? Datum::Null() : Datum(si % 50),
                       Datum("s" + std::to_string(i % 7))});
  }
  return rows;
}

const char* const kPredicates[] = {
    // int column, int constants, every operator, either side
    "k = 4", "k = 7", "k < -4000", "k <= -4997", "k > 10000", "k >= 10000",
    "4 = k", "-4000 > k", "10000 <= k", "k = -9223372036854775808",
    "k <= -9223372036854775808", "k < -9223372036854775808", "k = 9223372036854775807",
    "k >= 9223372036854775807", "k > 9223372036854775807",
    // int column, double constants
    "k = 2.5", "k < 2.5", "k >= 9.2e18", "k = 9223372036854775808.0", "k > 1e300",
    "k <= 1e999", "2.5 < k",
    // double column, int and double constants
    "d = 0", "d = 0.0", "d < 0", "d >= 1e999", "d > 1e300", "d <= 3", "d = 1500",
    "1e300 <= d", "d = 100000",
    // all-NULL groups, NULL constants, strings
    "n = 7", "n > 100", "n IS NULL", "k = NULL", "d < NULL", "s = 's3'",
    // conjunctions, disjunctions and what bounds nothing
    "k >= 1000 AND k < 1100", "k >= 1000 AND d < 0", "k > 6000 AND n = 3",
    "k < 0 OR k > 15000", "NOT (k < 12000)", "k + 0 = 4", "k <> 4"};

TEST_F(GroupSkipSqlTest, EveryTableKindMatchesTheHeapOracle) {
  Start(2);
  const std::string cols = " (k int, d double, n int, s text)";
  const std::vector<std::pair<std::string, std::string>> kinds = {
      {"ao_row", " WITH (appendonly=true, orientation=row)"},
      {"ao_col", " WITH (appendonly=true, orientation=column)"},
      {"delta", ""}};
  std::vector<std::string> tables;
  for (const auto& [name, with] : kinds) {
    for (const char* order : {"_sorted", "_shuffled"}) {
      tables.push_back(name + order);
      Exec("CREATE TABLE " + tables.back() + cols + with + " DISTRIBUTED BY (k)");
    }
  }
  Exec("CREATE TABLE oracle" + cols + " DISTRIBUTED BY (k)");
  const std::vector<Row> sorted = DifferentialRows(8 * 1024);
  std::vector<Row> shuffled = sorted;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937(26));
  for (const std::string& t : tables) {
    Insert(t, t.find("_sorted") != std::string::npos ? sorted : shuffled);
  }
  Insert("oracle", sorted);
  SealDelta();

  auto check_all = [&](const std::string& state) {
    for (const char* pred : kPredicates) {
      ExpectSameAsOracle(std::string("SELECT k, d, n, s FROM {t} WHERE ") + pred, tables,
                         "oracle", state);
    }
  };
  const uint64_t skipped_before = Counter("storage.groups_skipped");
  check_all("loaded");
  EXPECT_GT(Counter("storage.groups_skipped"), skipped_before);

  // DELETE and UPDATE: deleted rows stay in their groups' ranges, updated
  // rows append to the open run.
  for (const std::string& t : tables) {
    Exec("DELETE FROM " + t + " WHERE k % 5 = 0");
    Exec("UPDATE " + t + " SET d = d + 1, n = 9 WHERE k % 7 = 1");
  }
  Exec("DELETE FROM oracle WHERE k % 5 = 0");
  Exec("UPDATE oracle SET d = d + 1, n = 9 WHERE k % 7 = 1");
  SealDelta();
  check_all("after DELETE and UPDATE");

  // A VACUUM that frees the key-ordered AO tables' leading groups, and for
  // the heap tables, frees slots that the next inserts reuse, which drops the
  // old rows from the delta store.
  for (const std::string& t : tables) Exec("DELETE FROM " + t + " WHERE k < 4000");
  Exec("DELETE FROM oracle WHERE k < 4000");
  for (const std::string& t : tables) Exec("VACUUM " + t);
  std::vector<Row> more;
  for (int64_t i = 0; i < 1500; ++i) {
    more.push_back(Row{Datum(i * 11 - 7000), Datum(static_cast<double>(i) / 8),
                       Datum(i % 3), Datum("m")});
  }
  for (const std::string& t : tables) Insert(t, more);
  Insert("oracle", more);
  SealDelta();
  check_all("after VACUUM and reinsert");

  // Prepared statements bind their constants per EXECUTE.
  const std::vector<std::string> args = {
      "4, 1000",    "-9223372036854775808, -4990", "9000, 9223372036854775807",
      "2.5, 7.5",   "NULL, 100",                   "0.0 * -1, 1e999",
      "-1e999, 0",  "9.2e18, 1e999",               "1e999 - 1e999, 5"};
  for (const char* mode : {"on", "off"}) {
    Exec(std::string("SET vectorized_execution = ") + mode);
    std::vector<std::string> names;
    for (const std::string& t : tables) {
      names.push_back("p_" + t);
      Exec("PREPARE " + names.back() + " AS SELECT k, d FROM " + t +
           " WHERE k >= $1 AND k < $2");
      names.push_back("q_" + t);
      Exec("PREPARE " + names.back() + " AS SELECT k, d FROM " + t +
           " WHERE d >= $1 AND $2 >= d");
    }
    Exec("SET vectorized_execution = off");
    for (const std::string& a : args) {
      const auto want_k = SortedRows(
          Exec("SELECT k, d FROM oracle WHERE k >= (" +
               a.substr(0, a.find(',')) + ") AND k < (" + a.substr(a.find(',') + 1) + ")")
              .rows);
      const auto want_d = SortedRows(
          Exec("SELECT k, d FROM oracle WHERE d >= (" +
               a.substr(0, a.find(',')) + ") AND (" + a.substr(a.find(',') + 1) + ") >= d")
              .rows);
      Exec(std::string("SET vectorized_execution = ") + mode);
      for (const std::string& name : names) {
        EXPECT_EQ(SortedRows(Exec("EXECUTE " + name + "(" + a + ")").rows),
                  name[0] == 'p' ? want_k : want_d)
            << name << "(" << a << ") [vectorized_execution = " << mode << "]";
      }
      Exec("SET vectorized_execution = off");
    }
    for (const std::string& name : names) Exec("DEALLOCATE " + name);
  }
}

// CLUSTER rewrites a shuffled AO-column table in key order; once VACUUM has
// freed the old groups, `k = c` reads one group where it read all eight.
TEST_F(GroupSkipSqlTest, ClusterTurnsWideGroupsIntoSkippableOnes) {
  Start(1);
  Exec("CREATE TABLE c (k int, v int) WITH (appendonly=true, orientation=column) "
       "DISTRIBUTED BY (k)");
  std::vector<Row> rows;
  for (int64_t i = 0; i < 8 * 1024; ++i) rows.push_back(Row{Datum(i), Datum(i % 13)});
  std::shuffle(rows.begin(), rows.end(), std::mt19937(7));
  Insert("c", rows);
  const std::string point = "SELECT k, v FROM c WHERE k = 5000";
  uint64_t before = Counter("storage.groups_skipped");
  ASSERT_EQ(Exec(point).rows.size(), 1u);
  EXPECT_EQ(Counter("storage.groups_skipped"), before);  // every group spans the keys

  Exec("CLUSTER c USING k");
  Exec("VACUUM c");
  for (const char* mode : {"on", "off"}) {
    Exec(std::string("SET vectorized_execution = ") + mode);
    before = Counter("storage.groups_skipped");
    QueryResult r = Exec(point);
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0][1].int_val(), 5000 % 13);
    EXPECT_EQ(Counter("storage.groups_skipped") - before, 7u) << mode;
    const std::string plan = Plan(point);
    EXPECT_NE(plan.find("(stores: ao-column=1024)  (skipped: groups=7)"), std::string::npos)
        << plan;
  }
  // A scan that skips nothing reads as before.
  EXPECT_EQ(Plan("SELECT k FROM c WHERE v = 3").find("skipped"), std::string::npos);
}

// A partitioned root passes over the leaves whose range rules out the
// filter, per EXECUTE for a prepared one, and a ModifyTable still names each
// row's own leaf.
TEST_F(GroupSkipSqlTest, PartitionLeavesOutsideTheFilterAreNotRead) {
  Start(1);
  Exec("CREATE TABLE sales (day int, amount int) DISTRIBUTED BY (day) "
       "PARTITION BY RANGE (day) ("
       "PARTITION cold START 0 END 200 WITH (appendonly=true, orientation=column), "
       "PARTITION hot START 200 END 300)");
  Exec("INSERT INTO sales SELECT i, i FROM generate_series(0, 299) i");
  std::string plan = Plan("SELECT amount FROM sales WHERE day = 250");
  EXPECT_NE(plan.find("(stores: heap=100)  (skipped: leaves=1)"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("ao-column="), std::string::npos) << plan;
  // 200 lies only in [200, 300): the upper limit of [0, 200) is exclusive.
  plan = Plan("SELECT amount FROM sales WHERE day >= 200");
  EXPECT_NE(plan.find("(skipped: leaves=1)"), std::string::npos) << plan;
  plan = Plan("SELECT amount FROM sales WHERE day < 199.5");
  EXPECT_NE(plan.find("(stores: ao-column=200)  (skipped: leaves=1)"), std::string::npos)
      << plan;
  plan = Plan("SELECT amount FROM sales WHERE day > 100");
  EXPECT_EQ(plan.find("skipped"), std::string::npos) << plan;

  Exec("PREPARE by_day AS SELECT amount FROM sales WHERE day = $1");
  const uint64_t before = Counter("storage.leaves_skipped");
  for (int day : {250, 150, 299}) {
    QueryResult r = Exec("EXECUTE by_day(" + std::to_string(day) + ")");
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0][0].int_val(), day);
  }
  EXPECT_EQ(Counter("storage.leaves_skipped") - before, 3u);

  // The hot leaf is leaf 1, read after the skipped cold leaf.
  EXPECT_EQ(Exec("UPDATE sales SET amount = amount + 1000 WHERE day = 250").affected, 1);
  EXPECT_EQ(Exec("DELETE FROM sales WHERE day = 251").affected, 1);
  EXPECT_EQ(Exec("SELECT amount FROM sales WHERE day = 250").rows[0][0].int_val(), 1250);
  EXPECT_EQ(Exec("SELECT count(*), sum(amount) FROM sales").rows[0][1].int_val(),
            299 * 300 / 2 + 1000 - 251);
}

// An UPDATE keeps each row in its leaf's range, so leaf ranges stay true.
TEST_F(GroupSkipSqlTest, UpdateCannotMoveARowOutOfItsLeaf) {
  Start(2);
  Exec("CREATE TABLE pm (k int, v int) DISTRIBUTED BY (k) PARTITION BY RANGE (v) ("
       "PARTITION a START 0 END 100, "
       "PARTITION b START 100 END 200 WITH (appendonly=true, orientation=column))");
  Exec("INSERT INTO pm SELECT i, i FROM generate_series(0, 199) i");
  for (const char* move : {"UPDATE pm SET v = 150 WHERE k = 50",
                           "UPDATE pm SET v = 50 WHERE k = 150",
                           "UPDATE pm SET v = NULL WHERE k = 50"}) {
    auto r = session_->Execute(move);
    ASSERT_FALSE(r.ok()) << move;
    EXPECT_EQ(r.status().code(), StatusCode::kNotSupported) << move;
  }
  EXPECT_EQ(Exec("UPDATE pm SET v = 60 WHERE k = 50").affected, 1);
  EXPECT_EQ(Exec("UPDATE pm SET v = 199 WHERE k = 150").affected, 1);
  QueryResult r = Exec("SELECT k FROM pm WHERE v = 60 ORDER BY k");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].int_val(), 50);
  EXPECT_EQ(r.rows[1][0].int_val(), 60);
  EXPECT_EQ(Exec("SELECT k FROM pm WHERE v = 199").rows.size(), 2u);
}

// Leaf limits meet NaN and int/double rounding: a double leaf with an open
// upper limit holds the NaN, which equals every constant; an int leaf ending
// at INT64_MAX holds INT64_MAX - 1, which equals 2^63 as a double.
TEST_F(GroupSkipSqlTest, LeafLimitsHoldAgainstNaNAndRounding) {
  Start(1);
  Exec("CREATE TABLE pd (k int, d double) DISTRIBUTED BY (k) PARTITION BY RANGE (d) ("
       "PARTITION lo START 0 END 100, PARTITION hi START 100)");
  Exec("CREATE TABLE pd_heap (k int, d double) DISTRIBUTED BY (k)");
  Exec("CREATE TABLE pk (k int, v int) DISTRIBUTED BY (v) PARTITION BY RANGE (k) ("
       "PARTITION a END 9223372036854775807, PARTITION b START 9223372036854775807)");
  Exec("CREATE TABLE pk_heap (k int, v int) DISTRIBUTED BY (v)");
  const std::vector<Row> ds = {Row{Datum(int64_t{1}), Datum(5.0)},
                               Row{Datum(int64_t{2}), Datum(150.0)},
                               Row{Datum(int64_t{3}), Datum(kNaN)},
                               Row{Datum(int64_t{4}), Datum(kInf)}};
  Insert("pd", ds);
  Insert("pd_heap", ds);
  const std::vector<Row> ks = {Row{Datum(kMax - 1), Datum(int64_t{1})},
                               Row{Datum(kMax), Datum(int64_t{2})},
                               Row{Datum(kMin), Datum(int64_t{3})}};
  Insert("pk", ks);
  Insert("pk_heap", ks);
  for (const char* pred : {"d = 5", "d = 150", "d < 50", "d >= 1e999", "d > 200"}) {
    ExpectSameAsOracle(std::string("SELECT k, d FROM {t} WHERE ") + pred, {"pd"}, "pd_heap",
                       "double leaves");
  }
  for (const char* pred :
       {"k = 9223372036854775808.0", "k >= 9.2e18", "k = 9223372036854775807",
        "k < 9223372036854775807", "k = -9223372036854775808", "k <= -9.3e18"}) {
    ExpectSameAsOracle(std::string("SELECT k, v FROM {t} WHERE ") + pred, {"pk"}, "pk_heap",
                       "int leaves");
  }
}

}  // namespace
}  // namespace gphtap
