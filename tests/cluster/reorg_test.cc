// Transactional CLUSTER (VACUUM FULL-style reorg) across storage kinds:
// BEGIN; CLUSTER; ABORT leaves the table intact, the retry succeeds, readers
// keep flowing during the rewrite, and VACUUM compacts dead-heavy AO row
// groups (observable through gp_segment_status bloat columns).
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "integration/actor.h"

namespace gphtap {
namespace {

class ReorgTest : public ::testing::Test {
 protected:
  void StartCluster(int num_segments = 3) {
    ClusterOptions options;
    options.num_segments = num_segments;
    cluster_ = std::make_unique<Cluster>(options);
    session_ = cluster_->Connect();
  }

  QueryResult Exec(const std::string& sql) {
    auto r = session_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return r.ok() ? *r : QueryResult{};
  }

  std::set<int64_t> Keys(const std::string& table) {
    std::set<int64_t> out;
    auto r = session_->Execute("SELECT k FROM " + table);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (r.ok()) {
      for (const Row& row : r->rows) out.insert(row[0].int_val());
    }
    return out;
  }

  int64_t Sum(const std::string& table) {
    auto r = session_->Execute("SELECT sum(v) FROM " + table);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() && !r->rows.empty() ? r->rows[0][0].int_val() : -1;
  }

  // One table per storage kind, same contents.
  void CreateAndFill(const std::string& name, const std::string& with) {
    Exec("CREATE TABLE " + name + " (k int, v int) " + with +
         " DISTRIBUTED BY (k)");
    for (int i = 0; i < 40; ++i) {
      Exec("INSERT INTO " + name + " VALUES (" + std::to_string(i) + ", " +
           std::to_string(i * 10) + ")");
    }
  }

  void AbortThenRetry(const std::string& name) {
    std::set<int64_t> before = Keys(name);
    int64_t sum_before = Sum(name);

    Exec("BEGIN");
    Exec("CLUSTER " + name + " USING k");
    Exec("ROLLBACK");
    EXPECT_EQ(Keys(name), before) << name << ": ABORTed CLUSTER changed data";
    EXPECT_EQ(Sum(name), sum_before);

    // Retry outside a block commits; contents are unchanged either way.
    Exec("CLUSTER " + name + " USING k");
    EXPECT_EQ(Keys(name), before) << name << ": committed CLUSTER changed data";
    EXPECT_EQ(Sum(name), sum_before);

    // And the table still takes writes afterwards.
    Exec("INSERT INTO " + name + " VALUES (1000, 1)");
    EXPECT_EQ(Sum(name), sum_before + 1);
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Session> session_;
};

TEST_F(ReorgTest, ClusterAbortAndRetryHeap) {
  StartCluster();
  CreateAndFill("h", "");
  AbortThenRetry("h");
}

TEST_F(ReorgTest, ClusterAbortAndRetryAoRow) {
  StartCluster();
  CreateAndFill("ao", "WITH (appendonly=true, orientation=row)");
  AbortThenRetry("ao");
}

TEST_F(ReorgTest, ClusterAbortAndRetryAoColumn) {
  StartCluster();
  CreateAndFill("aoc", "WITH (appendonly=true, orientation=column)");
  AbortThenRetry("aoc");
}

TEST_F(ReorgTest, ClusterRejectsPartitionedAndSystemTables) {
  StartCluster();
  Exec("CREATE TABLE pt (k int, v int) DISTRIBUTED BY (k) "
       "PARTITION BY RANGE (v) (PARTITION p0 START 0 END 100, "
       "PARTITION p1 START 100 END 200)");
  auto r = session_->Execute("CLUSTER pt");
  EXPECT_FALSE(r.ok());
  r = session_->Execute("CLUSTER gp_segment_status");
  EXPECT_FALSE(r.ok());
}

// Readers are not blocked by an in-flight CLUSTER (ExclusiveLock admits
// AccessShare), and see the pre-rewrite state.
TEST_F(ReorgTest, ReadersFlowDuringCluster) {
  StartCluster();
  CreateAndFill("h", "");
  std::set<int64_t> before = Keys("h");

  Actor a(cluster_.get());
  ASSERT_TRUE(a.RunSync("BEGIN").ok());
  ASSERT_TRUE(a.RunSync("CLUSTER h USING k").ok());

  // The rewrite is uncommitted: this session scans the old versions, now.
  EXPECT_EQ(Keys("h"), before);
  ASSERT_TRUE(a.RunSync("COMMIT").ok());
  EXPECT_EQ(Keys("h"), before);
}

// VACUUM on an AO table frees all-dead sealed groups and compacts dead-heavy
// ones; gp_segment_status's ao_dead_rows drops accordingly.
TEST_F(ReorgTest, VacuumCompactsDeadHeavyAoGroups) {
  StartCluster(2);
  Exec("CREATE TABLE ao (k int, v int) WITH (appendonly=true, orientation=row) "
       "DISTRIBUTED BY (k)");
  // Enough rows to seal at least one 1,024-row group per segment.
  Exec("INSERT INTO ao SELECT i, 1 FROM generate_series(0, 2999) i");
  // Kill half: every sealed group goes well past the 10% dead-heavy bar.
  Exec("DELETE FROM ao WHERE k < 1500");

  auto bloat = [&]() -> std::pair<int64_t, int64_t> {
    auto r = Exec(
        "SELECT sum(ao_live_rows), sum(ao_dead_rows) FROM gp_segment_status");
    return {r.rows[0][0].int_val(), r.rows[0][1].int_val()};
  };
  auto [live_before, dead_before] = bloat();
  EXPECT_EQ(live_before, 1500);
  EXPECT_EQ(dead_before, 1500);

  Exec("VACUUM ao");
  // The first pass rewrites live rows out of dead-heavy groups (the rewrite
  // marks the old copies dead); the second frees the now-fully-dead groups.
  Exec("VACUUM ao");

  auto [live_after, dead_after] = bloat();
  EXPECT_EQ(live_after, 1500);
  EXPECT_LT(dead_after, dead_before);
  EXPECT_EQ(Keys("ao").size(), 1500u);
  EXPECT_EQ(Sum("ao"), 1500);
}

}  // namespace
}  // namespace gphtap
