// Distributed snapshot stress: concurrent readers, writers, vacuum and the
// xid-map truncation horizon all running together must never produce torn
// reads, resurrected rows, or crashes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "api/gphtap.h"
#include "common/clock.h"
#include "common/rng.h"

namespace gphtap {
namespace {

// Writers move money between two fixed rows in one transaction; readers must
// always see the same total (the classic bank-transfer isolation check),
// while vacuum churns dead versions underneath them.
TEST(SnapshotStressTest, TransfersLookAtomicUnderVacuumChurn) {
  ClusterOptions o;
  o.num_segments = 3;
  o.gdd_period_us = 10'000;
  o.maintenance_period_us = 5'000;  // aggressive xid-map truncation
  Cluster cluster(o);
  auto setup = cluster.Connect();
  ASSERT_TRUE(setup->Execute("CREATE TABLE acct (k int, bal int) DISTRIBUTED BY (k)").ok());
  ASSERT_TRUE(setup->Execute("INSERT INTO acct VALUES (1, 500), (2, 500)").ok());

  std::atomic<bool> stop{false};
  std::atomic<int> torn_reads{0};
  std::atomic<long> transfers{0};

  std::thread writer([&] {
    auto w = cluster.Connect();
    Rng rng(1);
    while (!stop.load()) {
      int64_t amount = rng.UniformRange(1, 50);
      w->Execute("BEGIN");
      auto s1 = w->Execute("UPDATE acct SET bal = bal - " + std::to_string(amount) +
                           " WHERE k = 1");
      auto s2 = w->Execute("UPDATE acct SET bal = bal + " + std::to_string(amount) +
                           " WHERE k = 2");
      if (s1.ok() && s2.ok()) {
        if (w->Execute("COMMIT").ok()) transfers++;
      } else {
        w->Rollback();
      }
    }
  });

  std::thread vacuumer([&] {
    auto v = cluster.Connect();
    while (!stop.load()) {
      v->Execute("VACUUM acct");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      auto rd = cluster.Connect();
      while (!stop.load()) {
        auto result = rd->Execute("SELECT sum(bal), count(*) FROM acct");
        if (!result.ok()) continue;
        const Datum& total = result->rows[0][0];
        int64_t n = result->rows[0][1].int_val();
        if (n != 2 || total.is_null() || total.int_val() != 1000) torn_reads++;
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  stop = true;
  writer.join();
  vacuumer.join();
  for (auto& t : readers) t.join();

  EXPECT_EQ(torn_reads.load(), 0) << "a reader saw a partially applied transfer";
  EXPECT_GT(transfers.load(), 10);
  // Final state is exact.
  auto final_total = cluster.Connect()->Execute("SELECT sum(bal) FROM acct");
  EXPECT_EQ(final_total->rows[0][0].int_val(), 1000);
}

// The truncation horizon must actually shrink the xid maps without breaking
// visibility for long-running snapshots.
TEST(SnapshotStressTest, XidMapTruncationKeepsOldSnapshotsCorrect) {
  ClusterOptions o;
  o.num_segments = 2;
  Cluster cluster(o);
  auto s = cluster.Connect();
  ASSERT_TRUE(s->Execute("CREATE TABLE t (k int, v int)").ok());
  ASSERT_TRUE(s->Execute("INSERT INTO t SELECT i, 0 FROM generate_series(1, 20) i").ok());

  // A long transaction opens a snapshot now.
  auto old_txn = cluster.Connect();
  ASSERT_TRUE(old_txn->Execute("BEGIN").ok());
  ASSERT_TRUE(old_txn->Execute("SELECT count(*) FROM t").ok());

  // Lots of churn afterwards.
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(s->Execute("UPDATE t SET v = v + 1 WHERE k = " +
                           std::to_string(1 + i % 20))
                    .ok());
  }
  // The old transaction pins the horizon: churn entries (newer gxids) must
  // survive this truncation so its statements can still judge them.
  uint64_t removed_while_open = cluster.TruncateXidMaps();
  size_t map_entries_while_open = 0;
  for (int i = 0; i < cluster.num_segments(); ++i) {
    map_entries_while_open += cluster.segment(i)->dlog().size();
  }
  EXPECT_GT(map_entries_while_open, 0u)
      << "truncation advanced past a live transaction's snapshot";
  // Read committed: each statement takes a fresh snapshot, so the open
  // transaction sees the committed churn.
  auto old_view = old_txn->Execute("SELECT sum(v) FROM t");
  ASSERT_TRUE(old_view.ok());
  EXPECT_EQ(old_view->rows[0][0].int_val(), 30);
  ASSERT_TRUE(old_txn->Execute("COMMIT").ok());

  // Once the old transaction ends the horizon advances and entries vanish.
  uint64_t removed_after_close = cluster.TruncateXidMaps();
  EXPECT_GT(removed_after_close, 0u);
  size_t map_entries_after = 0;
  for (int i = 0; i < cluster.num_segments(); ++i) {
    map_entries_after += cluster.segment(i)->dlog().size();
  }
  EXPECT_LT(map_entries_after, map_entries_while_open);
  (void)removed_while_open;
  auto fresh = s->Execute("SELECT sum(v) FROM t");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->rows[0][0].int_val(), 30);
  // Visibility still works after truncation (clog fallback path).
  EXPECT_EQ(s->Execute("SELECT count(*) FROM t")->rows[0][0].int_val(), 20);
}

// One-phase commits must offer the same atomic appearance as two-phase ones
// while racing snapshot creation (the Section 5.2 window).
TEST(SnapshotStressTest, OnePhaseCommitWindowNeverLeaks) {
  ClusterOptions o;
  o.num_segments = 3;
  Cluster cluster(o);
  auto setup = cluster.Connect();
  ASSERT_TRUE(setup->Execute("CREATE TABLE t (k int, v int) DISTRIBUTED BY (k)").ok());

  std::atomic<bool> stop{false};
  std::atomic<int> anomalies{0};
  // Writer: single-row inserts (1PC) with strictly increasing v.
  std::thread writer([&] {
    auto w = cluster.Connect();
    for (int i = 1; i <= 300 && !stop.load(); ++i) {
      ASSERT_TRUE(w->Execute("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
                             std::to_string(i) + ")")
                      .ok());
    }
    stop = true;
  });
  // Reader: count must never decrease (commits are monotonic and atomic).
  std::thread reader([&] {
    auto r = cluster.Connect();
    int64_t last = 0;
    while (!stop.load()) {
      auto result = r->Execute("SELECT count(*) FROM t");
      if (!result.ok()) continue;
      int64_t n = result->rows[0][0].int_val();
      if (n < last) anomalies++;
      last = n;
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(anomalies.load(), 0) << "a committed 1PC insert disappeared from view";
  EXPECT_EQ(setup->Execute("SELECT count(*) FROM t")->rows[0][0].int_val(), 300);
}

// Every background task waits out its period on a stop-aware condition
// variable, so shutdown never sits through a full period: here every task
// the cluster can run, each at a 10 s period.
TEST(SnapshotStressTest, LongMaintenancePeriodDoesNotDelayShutdown) {
  constexpr int64_t kPeriodUs = 10'000'000;
  ClusterOptions o;
  o.num_segments = 2;
  o.gdd_period_us = kPeriodUs;
  o.mirrors_enabled = true;
  o.fts_enabled = true;
  o.fts_period_us = kPeriodUs;
  o.maintenance_period_us = kPeriodUs;
  o.delta_store_enabled = true;
  o.delta_seal_period_us = kPeriodUs;
  o.stats_history_period_us = kPeriodUs;
  o.frontend.enabled = true;
  o.frontend.idle_timeout_us = kPeriodUs;
  auto cluster = std::make_unique<Cluster>(o);
  // Let every task finish its first pass and start waiting.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Stopwatch shutdown;
  cluster.reset();
  EXPECT_LT(shutdown.ElapsedMicros(), 1'000'000);
}

}  // namespace
}  // namespace gphtap
