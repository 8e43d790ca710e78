// Randomized differential testing: the same generated queries run on two
// clusters that differ only in vectorized_execution_enabled must return
// identical row sets. Predicates are built from a small grammar over the
// fact table's columns, covering arithmetic, comparisons, NULL handling,
// and nested AND/OR/NOT — the surface where the two engines could diverge.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/session.h"
#include "common/rng.h"

namespace gphtap {
namespace {

std::string RowText(const Row& row) {
  std::string s;
  for (const Datum& d : row) {
    s += d.is_null() ? "NULL" : d.ToString();
    s += "|";
  }
  return s;
}

std::vector<std::string> SortedRows(const QueryResult& r) {
  std::vector<std::string> out;
  for (const Row& row : r.rows) out.push_back(RowText(row));
  std::sort(out.begin(), out.end());
  return out;
}

// Random arithmetic term over the int columns (k, grp, v). Division and modulus
// use non-zero constants so generated predicates stay error-free — error parity
// is covered deterministically in column_batch_test.
std::string Term(Rng& rng) {
  static const char* cols[] = {"k", "grp", "v"};
  switch (rng.Uniform(6)) {
    case 0:
    case 1:
      return cols[rng.Uniform(3)];
    case 2:
      return std::to_string(rng.UniformRange(-50, 150));
    case 3:
      return std::string(cols[rng.Uniform(3)]) + " + " +
             std::to_string(rng.UniformRange(0, 40));
    case 4:
      return std::string(cols[rng.Uniform(3)]) + " * " +
             std::to_string(rng.UniformRange(1, 5));
    default:
      return std::string(cols[rng.Uniform(3)]) + " % " +
             std::to_string(rng.UniformRange(2, 9));
  }
}

std::string Comparison(Rng& rng) {
  static const char* ops[] = {"=", "<>", "<", "<=", ">", ">="};
  return Term(rng) + " " + ops[rng.Uniform(6)] + " " + Term(rng);
}

std::string Predicate(Rng& rng, int depth) {
  if (depth <= 0 || rng.Chance(0.4)) return Comparison(rng);
  switch (rng.Uniform(3)) {
    case 0:
      return "(" + Predicate(rng, depth - 1) + " AND " + Predicate(rng, depth - 1) +
             ")";
    case 1:
      return "(" + Predicate(rng, depth - 1) + " OR " + Predicate(rng, depth - 1) +
             ")";
    default:
      return "NOT (" + Predicate(rng, depth - 1) + ")";
  }
}

TEST(VecDifferentialTest, RandomPredicatesAgreeAcrossEngines) {
  auto make = [](bool vectorized) {
    ClusterOptions options;
    options.num_segments = 3;
    options.vectorized_execution_enabled = vectorized;
    return std::make_unique<Cluster>(options);
  };
  auto vec_cluster = make(true);
  auto row_cluster = make(false);
  for (Cluster* c : {vec_cluster.get(), row_cluster.get()}) {
    auto s = c->Connect();
    ASSERT_TRUE(s->Execute("CREATE TABLE fact (k int, grp int, v int) "
                           "WITH (storage=ao_column) DISTRIBUTED BY (k)")
                    .ok());
    ASSERT_TRUE(s->Execute("INSERT INTO fact SELECT i, i % 13, (i * 7) % 101 "
                           "FROM generate_series(0, 2999) i")
                    .ok());
    ASSERT_TRUE(s->Execute("DELETE FROM fact WHERE v = 42").ok());
  }
  auto vec_session = vec_cluster->Connect();
  auto row_session = row_cluster->Connect();

  Rng rng(20260805);
  int compared = 0;
  for (int i = 0; i < 60; ++i) {
    std::string where = Predicate(rng, 3);
    std::string sql;
    switch (i % 3) {
      case 0:
        sql = "SELECT k, grp, v FROM fact WHERE " + where;
        break;
      case 1:
        sql = "SELECT count(*) AS n, sum(v) AS s FROM fact WHERE " + where;
        break;
      default:
        sql = "SELECT grp, count(*) AS n, min(v) AS lo, max(v) AS hi FROM fact "
              "WHERE " +
              where + " GROUP BY grp";
        break;
    }
    auto vec = vec_session->Execute(sql);
    auto row = row_session->Execute(sql);
    ASSERT_EQ(vec.ok(), row.ok()) << sql << "\nvec: " << vec.status().ToString()
                                  << "\nrow: " << row.status().ToString();
    if (!vec.ok()) continue;  // both rejected (e.g. parse limits) — still parity
    EXPECT_EQ(SortedRows(*vec), SortedRows(*row)) << sql;
    ++compared;
  }
  EXPECT_GT(compared, 40) << "too few queries executed to be meaningful";
  EXPECT_GT(vec_cluster->StatsSnapshot().counter("vec.batches"), 0u);
}

// NULLs in every column type (int, double, string): the typed vectors carry
// a null mask per payload kind, and each kind has its own kernel path.
TEST(VecDifferentialTest, NullsInEveryColumnTypeAgreeAcrossEngines) {
  auto make = [](bool vectorized) {
    ClusterOptions options;
    options.num_segments = 3;
    options.vectorized_execution_enabled = vectorized;
    return std::make_unique<Cluster>(options);
  };
  auto vec_cluster = make(true);
  auto row_cluster = make(false);
  for (Cluster* c : {vec_cluster.get(), row_cluster.get()}) {
    auto s = c->Connect();
    ASSERT_TRUE(s->Execute("CREATE TABLE mixed (k int, i int, d double, t text) "
                           "WITH (storage=ao_column) DISTRIBUTED BY (k)")
                    .ok());
    // Every third int NULL, every fourth double NULL, every fifth string NULL.
    for (int base = 0; base < 2000; base += 500) {
      std::string values;
      for (int k = base; k < base + 500; ++k) {
        if (!values.empty()) values += ", ";
        std::string i = k % 3 == 0 ? "NULL" : std::to_string(k % 41);
        std::string d = k % 4 == 0 ? "NULL" : std::to_string(k % 17) + ".5";
        std::string t = k % 5 == 0 ? "NULL" : "'s" + std::to_string(k % 11) + "'";
        values += "(" + std::to_string(k) + ", " + i + ", " + d + ", " + t + ")";
      }
      ASSERT_TRUE(s->Execute("INSERT INTO mixed VALUES " + values).ok());
    }
  }
  auto vec_session = vec_cluster->Connect();
  auto row_session = row_cluster->Connect();
  const char* queries[] = {
      "SELECT k, i, d, t FROM mixed WHERE i IS NULL",
      "SELECT k, i, d, t FROM mixed WHERE d IS NOT NULL AND i > 20",
      "SELECT k, t FROM mixed WHERE t IS NULL OR i IS NULL",
      "SELECT count(*), count(i), count(d), count(t) FROM mixed",
      "SELECT sum(i), sum(d), min(i), max(d) FROM mixed",
      "SELECT i, count(*), sum(d) FROM mixed GROUP BY i",
      "SELECT k, i + 1, d * 2 FROM mixed WHERE k % 7 = 0",
      "SELECT count(*) FROM mixed WHERE i = i",  // NULL = NULL is not true
  };
  for (const char* sql : queries) {
    auto vec = vec_session->Execute(sql);
    auto row = row_session->Execute(sql);
    ASSERT_EQ(vec.ok(), row.ok()) << sql;
    if (!vec.ok()) continue;
    EXPECT_EQ(SortedRows(*vec), SortedRows(*row)) << sql;
  }
  EXPECT_GT(vec_cluster->StatsSnapshot().counter("vec.batches"), 0u);
}

// A vectorized AO-column scan feeding a join against a heap table: the heap
// side cannot vectorize, so the join bridges engines mid-stream. The counted
// fallback is the boundary where batches re-materialize into rows.
TEST(VecDifferentialTest, MidStreamFallbackAtJoinBoundaryAgrees) {
  auto make = [](bool vectorized) {
    ClusterOptions options;
    options.num_segments = 3;
    options.vectorized_execution_enabled = vectorized;
    return std::make_unique<Cluster>(options);
  };
  auto vec_cluster = make(true);
  auto row_cluster = make(false);
  for (Cluster* c : {vec_cluster.get(), row_cluster.get()}) {
    auto s = c->Connect();
    ASSERT_TRUE(s->Execute("CREATE TABLE fact (k int, dim_id int, v int) "
                           "WITH (storage=ao_column) DISTRIBUTED BY (k)")
                    .ok());
    ASSERT_TRUE(s->Execute("CREATE TABLE dim (id int, label text) "
                           "DISTRIBUTED BY (id)")  // heap: not vectorizable
                    .ok());
    ASSERT_TRUE(s->Execute("INSERT INTO fact SELECT i, i % 20, i * 3 "
                           "FROM generate_series(0, 2999) i")
                    .ok());
    ASSERT_TRUE(s->Execute("INSERT INTO dim SELECT i, 'd' FROM "
                           "generate_series(0, 19) i")
                    .ok());
  }
  auto vec_session = vec_cluster->Connect();
  auto row_session = row_cluster->Connect();
  const char* queries[] = {
      "SELECT fact.k, dim.label FROM fact JOIN dim ON fact.dim_id = dim.id "
      "WHERE fact.v % 5 = 0",
      "SELECT dim.id, count(*), sum(fact.v) FROM fact JOIN dim "
      "ON fact.dim_id = dim.id GROUP BY dim.id",
  };
  for (const char* sql : queries) {
    auto vec = vec_session->Execute(sql);
    auto row = row_session->Execute(sql);
    ASSERT_TRUE(vec.ok()) << sql << ": " << vec.status().ToString();
    ASSERT_TRUE(row.ok()) << sql << ": " << row.status().ToString();
    EXPECT_EQ(SortedRows(*vec), SortedRows(*row)) << sql;
  }
  // The vec cluster both ran batches and bridged at least one boundary.
  EXPECT_GT(vec_cluster->StatsSnapshot().counter("vec.batches"), 0u);
  EXPECT_GT(vec_cluster->StatsSnapshot().counter("vec.fallbacks"), 0u);
}

}  // namespace
}  // namespace gphtap
