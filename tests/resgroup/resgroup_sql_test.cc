// Resource groups end-to-end through SQL: the paper's DDL, role assignment,
// admission control on sessions, and vmem-driven query cancellation.
#include <gtest/gtest.h>

#include <thread>

#include "api/gphtap.h"
#include "integration/actor.h"

namespace gphtap {
namespace {

ClusterOptions RgCluster() {
  ClusterOptions o;
  o.num_segments = 2;
  o.resource_groups_enabled = true;
  o.global_shared_mem_mb = 1;  // tiny global pool: vmem tests bite
  return o;
}

TEST(ResgroupSqlTest, PaperDdlRoundTrip) {
  Cluster cluster(RgCluster());
  auto s = cluster.Connect();
  // Verbatim from Section 6 of the paper.
  ASSERT_TRUE(s->Execute("CREATE RESOURCE GROUP olap_group WITH (CONCURRENCY=10, "
                         "MEMORY_LIMIT=35, MEMORY_SHARED_QUOTA=20, CPU_RATE_LIMIT=20)")
                  .ok());
  ASSERT_TRUE(s->Execute("CREATE RESOURCE GROUP oltp_group WITH (CONCURRENCY=50, "
                         "MEMORY_LIMIT=15, MEMORY_SHARED_QUOTA=20, CPU_RATE_LIMIT=60)")
                  .ok());
  ASSERT_TRUE(s->Execute("CREATE ROLE dev1 RESOURCE GROUP olap_group").ok());
  ASSERT_TRUE(s->Execute("ALTER ROLE dev1 RESOURCE GROUP oltp_group").ok());
  auto g = cluster.resgroups().GroupForRole("dev1");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->name(), "oltp_group");
  EXPECT_EQ(g->config().concurrency, 50);
  EXPECT_DOUBLE_EQ(g->config().cpu_rate_limit, 60);

  // Duplicate and missing groups error.
  EXPECT_FALSE(s->Execute("CREATE RESOURCE GROUP olap_group WITH (CONCURRENCY=1)").ok());
  EXPECT_FALSE(s->Execute("CREATE ROLE dev2 RESOURCE GROUP missing").ok());
  ASSERT_TRUE(s->Execute("DROP RESOURCE GROUP olap_group").ok());
  EXPECT_FALSE(s->Execute("DROP RESOURCE GROUP olap_group").ok());
}

TEST(ResgroupSqlTest, CpusetDdlParsesRanges) {
  Cluster cluster(RgCluster());
  auto s = cluster.Connect();
  ASSERT_TRUE(s->Execute("CREATE RESOURCE GROUP g WITH (CONCURRENCY=5, CPU_SET=4-31)")
                  .ok());
  auto g = cluster.resgroups().Get("g");
  ASSERT_NE(g, nullptr);
  EXPECT_TRUE(g->config().uses_cpuset());
  EXPECT_EQ(g->config().cpuset_begin, 4);
  EXPECT_EQ(g->config().cpuset_end, 31);
}

// Option values are checked, not read through atoi: a group whose
// concurrency was "abc" (0) would never admit anyone.
TEST(ResgroupSqlTest, OptionValuesAreChecked) {
  Cluster cluster(RgCluster());  // 32 cores
  auto s = cluster.Connect();
  for (const char* options :
       {"CONCURRENCY=abc", "CONCURRENCY=0", "CONCURRENCY=-3", "CONCURRENCY=1.5",
        "CPU_SET=9-2", "CPU_SET=40-50", "CPU_SET=31-32", "CPU_SET=32", "CPU_RATE_LIMIT=101",
        "CPU_RATE_LIMIT=nan", "CPU_RATE_LIMIT=x", "MEMORY_SHARED_QUOTA=500",
        "MEMORY_LIMIT=0", "MEMORY_LIMIT=8796093022208", "MEMORY_LIMIT=12abc"}) {
    auto r = s->Execute(std::string("CREATE RESOURCE GROUP g WITH (") + options + ")");
    ASSERT_FALSE(r.ok()) << options;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << options;
    EXPECT_EQ(cluster.resgroups().Get("g"), nullptr) << options;
  }
  ASSERT_TRUE(s->Execute("CREATE RESOURCE GROUP g WITH (CONCURRENCY=1, CPU_SET=0-31, "
                         "MEMORY_LIMIT=1, MEMORY_SHARED_QUOTA=100, CPU_RATE_LIMIT=0)")
                  .ok());
  ASSERT_TRUE(s->Execute("CREATE RESOURCE GROUP h WITH (CPU_SET=7, CPU_RATE_LIMIT=12.5)").ok());
  EXPECT_EQ(cluster.resgroups().Get("h")->config().cpuset_begin, 7);
  EXPECT_EQ(cluster.resgroups().Get("h")->config().cpuset_end, 7);
  EXPECT_DOUBLE_EQ(cluster.resgroups().Get("h")->config().cpu_rate_limit, 12.5);
}

TEST(ResgroupSqlTest, ConcurrencyLimitQueuesSessions) {
  Cluster cluster(RgCluster());
  auto admin = cluster.Connect();
  ASSERT_TRUE(
      admin->Execute("CREATE RESOURCE GROUP tight WITH (CONCURRENCY=1, MEMORY_LIMIT=8)")
          .ok());
  ASSERT_TRUE(admin->Execute("CREATE ROLE app RESOURCE GROUP tight").ok());
  ASSERT_TRUE(admin->Execute("CREATE TABLE t (k int, v int)").ok());

  Actor a(&cluster, "app"), b(&cluster, "app");
  ASSERT_TRUE(a.RunSync("BEGIN").ok());  // takes the single slot
  auto b_blocked = b.Run("BEGIN");       // queued behind the concurrency limit
  EXPECT_TRUE(StillBlocked(b_blocked, 100));
  ASSERT_TRUE(a.RunSync("COMMIT").ok());  // frees the slot
  EXPECT_TRUE(b_blocked.get().ok());
  ASSERT_TRUE(b.RunSync("COMMIT").ok());
}

TEST(ResgroupSqlTest, VmemLimitCancelsOversizedQuery) {
  Cluster cluster(RgCluster());
  auto admin = cluster.Connect();
  // 1 MB group, no shared headroom to speak of.
  ASSERT_TRUE(admin->Execute("CREATE RESOURCE GROUP small WITH (CONCURRENCY=2, "
                             "MEMORY_LIMIT=1, MEMORY_SHARED_QUOTA=10)")
                  .ok());
  ASSERT_TRUE(admin->Execute("CREATE ROLE analyst RESOURCE GROUP small").ok());
  ASSERT_TRUE(admin->Execute("CREATE TABLE big (k int, v text)").ok());
  {
    // Load ~6 MB of strings.
    auto def = cluster.LookupTable("big");
    std::vector<Row> rows;
    for (int64_t i = 0; i < 20000; ++i) {
      rows.push_back(Row{Datum(i), Datum(std::string(300, 'x'))});
    }
    ASSERT_TRUE(admin->ExecuteInsert(*def, rows).ok());
  }
  auto analyst = cluster.Connect("analyst");
  // The sort must materialize ~6 MB through a ~1 MB budget: cancelled.
  auto r = analyst->Execute("SELECT v FROM big ORDER BY v");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted) << r.status().ToString();
  // The admin (default group, bigger pools) can still run small queries.
  EXPECT_TRUE(admin->Execute("SELECT count(*) FROM big").ok());
  // And the analyst's next (small) query works: the account was released.
  EXPECT_TRUE(analyst->Execute("SELECT count(*) FROM big").ok());
}

TEST(ResgroupSqlTest, SetRoleSwitchesGroups) {
  Cluster cluster(RgCluster());
  auto s = cluster.Connect();
  ASSERT_TRUE(s->Execute("CREATE RESOURCE GROUP g1 WITH (CONCURRENCY=5)").ok());
  ASSERT_TRUE(s->Execute("CREATE ROLE r1 RESOURCE GROUP g1").ok());
  ASSERT_TRUE(s->Execute("SET ROLE r1").ok());
  EXPECT_EQ(s->role(), "r1");
  ASSERT_TRUE(s->Execute("CREATE TABLE t (k int)").ok());
  ASSERT_TRUE(s->Execute("INSERT INTO t VALUES (1)").ok());
  EXPECT_EQ(cluster.resgroups().Get("g1")->active(), 0);  // released after txn
}

}  // namespace
}  // namespace gphtap
