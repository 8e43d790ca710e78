// Commit protocol behaviour (Section 5.2 / Figure 10): participant selection,
// message and fsync counts, cross-segment atomicity, and the read-only path.
#include <gtest/gtest.h>

#include <thread>
#include <utility>

#include "api/gphtap.h"
#include "common/clock.h"

namespace gphtap {
namespace {

class CommitProtocolTest : public ::testing::Test {
 protected:
  void Start(bool one_phase) {
    ClusterOptions o;
    o.num_segments = 4;
    o.one_phase_commit_enabled = one_phase;
    cluster_ = std::make_unique<Cluster>(o);
    session_ = cluster_->Connect();
    ASSERT_TRUE(
        session_->Execute("CREATE TABLE t (k int, v int) DISTRIBUTED BY (k)").ok());
  }

  uint64_t TotalFsyncs() {
    uint64_t total = cluster_->coordinator_wal().fsyncs();
    for (int i = 0; i < cluster_->num_segments(); ++i) {
      total += cluster_->segment(i)->wal().fsyncs();
    }
    return total;
  }

  // Count and summed time of the WAL fsync waits recorded cluster-wide.
  std::pair<uint64_t, int64_t> FsyncWaits() {
    uint64_t count = 0;
    int64_t total_us = 0;
    for (const WaitEventRegistry::Entry& e : cluster_->wait_events().Snapshot()) {
      if (e.event != WaitEvent::kWalFsync) continue;
      count += e.count;
      total_us += e.total_us;
    }
    return {count, total_us};
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Session> session_;
};

TEST_F(CommitProtocolTest, SingleSegmentWriteUsesOnePhase) {
  Start(/*one_phase=*/true);
  uint64_t prepares = cluster_->net().count(MsgKind::kPrepare);
  uint64_t fsyncs = TotalFsyncs();
  ASSERT_TRUE(session_->Execute("INSERT INTO t VALUES (1, 1)").ok());
  EXPECT_EQ(cluster_->net().count(MsgKind::kPrepare), prepares);  // no PREPARE
  // One segment commit fsync; no coordinator commit record.
  EXPECT_EQ(TotalFsyncs(), fsyncs + 1);
  EXPECT_EQ(session_->stats().one_phase_commits, 1u);
  EXPECT_EQ(session_->stats().two_phase_commits, 0u);
}

TEST_F(CommitProtocolTest, MultiSegmentWriteUsesTwoPhase) {
  Start(/*one_phase=*/true);
  ASSERT_TRUE(session_->Execute("BEGIN").ok());
  // Spread writes across segments.
  ASSERT_TRUE(
      session_->Execute("INSERT INTO t SELECT i, i FROM generate_series(1, 40) i").ok());
  uint64_t prepares = cluster_->net().count(MsgKind::kPrepare);
  uint64_t fsyncs = TotalFsyncs();
  ASSERT_TRUE(session_->Execute("COMMIT").ok());
  uint64_t participants = cluster_->net().count(MsgKind::kPrepare) - prepares;
  EXPECT_EQ(participants, 4u);  // every segment got data
  // fsyncs: one PREPARE per participant + coordinator record + one COMMIT
  // PREPARED per participant.
  EXPECT_EQ(TotalFsyncs() - fsyncs, 2 * participants + 1);
  EXPECT_EQ(session_->stats().two_phase_commits, 1u);
}

TEST_F(CommitProtocolTest, OnePhaseDisabledAlwaysTwoPhase) {
  Start(/*one_phase=*/false);
  ASSERT_TRUE(session_->Execute("INSERT INTO t VALUES (1, 1)").ok());
  EXPECT_EQ(session_->stats().one_phase_commits, 0u);
  EXPECT_EQ(session_->stats().two_phase_commits, 1u);
  EXPECT_GE(cluster_->net().count(MsgKind::kPrepare), 1u);
}

TEST_F(CommitProtocolTest, ReadOnlyCommitTouchesNoWal) {
  Start(/*one_phase=*/true);
  ASSERT_TRUE(session_->Execute("INSERT INTO t VALUES (1, 1)").ok());
  uint64_t fsyncs = TotalFsyncs();
  ASSERT_TRUE(session_->Execute("BEGIN").ok());
  ASSERT_TRUE(session_->Execute("SELECT v FROM t WHERE k = 1").ok());
  ASSERT_TRUE(session_->Execute("COMMIT").ok());
  EXPECT_EQ(TotalFsyncs(), fsyncs);
  EXPECT_EQ(session_->stats().one_phase_commits, 1u);  // only the insert
}

// Cross-segment atomicity: a multi-segment transaction must become visible to
// other sessions all-or-nothing, never partially.
TEST_F(CommitProtocolTest, MultiSegmentCommitIsAtomicToReaders) {
  Start(/*one_phase=*/true);
  // Writer repeatedly replaces the table contents with N rows (spread over all
  // segments) in one transaction; readers must always see a multiple of N.
  constexpr int kRows = 16;
  std::atomic<bool> stop{false};
  std::atomic<int> anomalies{0};

  std::thread writer([&] {
    auto w = cluster_->Connect();
    for (int round = 0; round < 30; ++round) {
      w->Execute("BEGIN");
      w->Execute("INSERT INTO t SELECT i, " + std::to_string(round) +
                 " FROM generate_series(1, " + std::to_string(kRows) + ") i");
      w->Execute("COMMIT");
    }
    stop = true;
  });
  std::thread reader([&] {
    auto r = cluster_->Connect();
    while (!stop.load()) {
      auto result = r->Execute("SELECT count(*) FROM t");
      if (!result.ok()) continue;
      int64_t n = result->rows[0][0].int_val();
      if (n % kRows != 0) anomalies++;
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(anomalies.load(), 0)
      << "a reader observed a partially committed multi-segment transaction";
  auto final_count = session_->Execute("SELECT count(*) FROM t");
  EXPECT_EQ(final_count->rows[0][0].int_val(), 30 * kRows);
}

// Figure 11(b): an implicit single-segment transaction's COMMIT rides on the
// statement dispatch — zero extra commit messages.
TEST_F(CommitProtocolTest, PiggybackedOnePhaseCommitSkipsTheRoundTrip) {
  ClusterOptions o;
  o.num_segments = 4;
  o.onephase_piggyback_enabled = true;
  cluster_ = std::make_unique<Cluster>(o);
  session_ = cluster_->Connect();
  ASSERT_TRUE(
      session_->Execute("CREATE TABLE t (k int, v int) DISTRIBUTED BY (k)").ok());
  uint64_t commits_before = cluster_->net().count(MsgKind::kCommit);
  ASSERT_TRUE(session_->Execute("INSERT INTO t VALUES (1, 1)").ok());
  EXPECT_EQ(cluster_->net().count(MsgKind::kCommit), commits_before);
  EXPECT_EQ(session_->stats().piggybacked_commits, 1u);
  // Explicit transactions cannot piggyback (the commit decision comes later).
  ASSERT_TRUE(session_->Execute("BEGIN").ok());
  ASSERT_TRUE(session_->Execute("INSERT INTO t VALUES (2, 1)").ok());
  ASSERT_TRUE(session_->Execute("COMMIT").ok());
  EXPECT_EQ(session_->stats().piggybacked_commits, 1u);
  EXPECT_GT(cluster_->net().count(MsgKind::kCommit), commits_before);
  // Data is still there and still atomic.
  EXPECT_EQ(session_->Execute("SELECT count(*) FROM t")->rows[0][0].int_val(), 2);
}

// Figure 11(a): implicit multi-segment transactions prepare without the
// coordinator's PREPARE broadcast.
TEST_F(CommitProtocolTest, AutoPrepareSkipsPrepareBroadcast) {
  ClusterOptions o;
  o.num_segments = 4;
  o.auto_prepare_enabled = true;
  cluster_ = std::make_unique<Cluster>(o);
  session_ = cluster_->Connect();
  ASSERT_TRUE(
      session_->Execute("CREATE TABLE t (k int, v int) DISTRIBUTED BY (k)").ok());
  uint64_t prepares_before = cluster_->net().count(MsgKind::kPrepare);
  uint64_t acks_before = cluster_->net().count(MsgKind::kPrepareAck);
  // Implicit multi-segment insert: prepared without PREPARE messages.
  ASSERT_TRUE(
      session_->Execute("INSERT INTO t SELECT i, i FROM generate_series(1, 40) i").ok());
  EXPECT_EQ(cluster_->net().count(MsgKind::kPrepare), prepares_before);
  EXPECT_GT(cluster_->net().count(MsgKind::kPrepareAck), acks_before);
  EXPECT_EQ(session_->stats().auto_prepares, 1u);
  EXPECT_EQ(session_->Execute("SELECT count(*) FROM t")->rows[0][0].int_val(), 40);
}

TEST_F(CommitProtocolTest, ExplainReportsDirectDispatch) {
  Start(true);
  auto plan = session_->Execute("EXPLAIN SELECT v FROM t WHERE k = 7");
  ASSERT_TRUE(plan.ok());
  ASSERT_FALSE(plan->rows.empty());
  EXPECT_NE(plan->rows[0][0].string_val().find("direct dispatch"), std::string::npos);
  auto full = session_->Execute("EXPLAIN SELECT v FROM t");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->rows[0][0].string_val().find("direct dispatch"), std::string::npos);
}

// The 2PC fan-out overlaps its participants: with a 50 ms fsync, a
// four-participant COMMIT pays one PREPARE round, the coordinator record and
// one COMMIT PREPARED round, not the serial sum of all nine fsyncs. Running
// the participants one after another on the coordinator's thread fails this.
TEST_F(CommitProtocolTest, TwoPhaseParticipantsOverlap) {
  constexpr int64_t kFsyncUs = 50'000;
  ClusterOptions o;
  o.num_segments = 4;
  o.fsync_cost_us = kFsyncUs;
  cluster_ = std::make_unique<Cluster>(o);
  session_ = cluster_->Connect();
  ASSERT_TRUE(
      session_->Execute("CREATE TABLE t (k int, v int) DISTRIBUTED BY (k)").ok());
  ASSERT_TRUE(session_->Execute("BEGIN").ok());
  ASSERT_TRUE(
      session_->Execute("INSERT INTO t SELECT i, i FROM generate_series(1, 40) i").ok());
  const uint64_t prepares = cluster_->net().count(MsgKind::kPrepare);
  const uint64_t fsyncs = TotalFsyncs();
  const auto [waits_before, wait_us_before] = FsyncWaits();
  Stopwatch commit;
  ASSERT_TRUE(session_->Execute("COMMIT").ok());
  const int64_t elapsed_us = commit.ElapsedMicros();
  ASSERT_EQ(cluster_->net().count(MsgKind::kPrepare) - prepares, 4u);
  ASSERT_EQ(TotalFsyncs() - fsyncs, 9u);
  const auto [waits_after, wait_us_after] = FsyncWaits();
  ASSERT_EQ(waits_after - waits_before, 9u);
  // The fsync waits as they really took, so host load that stretches every
  // sleep stretches the bound with them.
  const int64_t serial_us = wait_us_after - wait_us_before;
  EXPECT_LT(elapsed_us, serial_us * 2 / 3)
      << "COMMIT took " << elapsed_us << " us; its fsync waits alone sum to " << serial_us;
}

}  // namespace
}  // namespace gphtap
