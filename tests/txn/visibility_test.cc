// Visibility truth tables for the distributed-snapshot + local-clog rules of
// Section 5.1, including the one-phase-commit timing guarantee of Section 5.2.
#include "txn/visibility.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "lock/lock_owner.h"
#include "txn/distributed_txn_manager.h"
#include "txn/local_txn_manager.h"
#include "txn/wal.h"

namespace gphtap {
namespace {

class VisibilityTest : public ::testing::Test {
 protected:
  VisibilityTest() : mgr_(&clog_, &dlog_, &wal_) {}

  VisibilityContext Ctx(const DistributedSnapshot* ds, LocalXid my_xid = 0) {
    VisibilityContext c;
    c.clog = &clog_;
    c.dlog = &dlog_;
    c.dsnap = ds;
    c.lsnap = nullptr;
    c.my_xid = my_xid;
    return c;
  }

  CommitLog clog_;
  DistributedLog dlog_;
  Wal wal_{0};
  LocalTxnManager mgr_;
  DistributedTxnManager dtm_;
  std::shared_ptr<LockOwner> owner_ = std::make_shared<LockOwner>(0);
};

TEST_F(VisibilityTest, InvalidXidNeverVisible) {
  DistributedSnapshot snap = dtm_.TakeSnapshot();
  EXPECT_FALSE(XidCommittedForSnapshot(kInvalidLocalXid, Ctx(&snap)));
}

TEST_F(VisibilityTest, OwnWritesVisible) {
  Gxid g = dtm_.Begin(owner_);
  LocalXid x = *mgr_.AssignXid(g);
  DistributedSnapshot snap = dtm_.TakeSnapshot();
  EXPECT_TRUE(XidCommittedForSnapshot(x, Ctx(&snap, x)));
  EXPECT_FALSE(XidCommittedForSnapshot(x, Ctx(&snap, /*my=*/0)));
}

TEST_F(VisibilityTest, CommittedBeforeSnapshotVisible) {
  Gxid g = dtm_.Begin(owner_);
  LocalXid x = *mgr_.AssignXid(g);
  mgr_.Commit(g);
  dtm_.MarkCommitted(g);
  DistributedSnapshot snap = dtm_.TakeSnapshot();
  EXPECT_TRUE(XidCommittedForSnapshot(x, Ctx(&snap)));
}

TEST_F(VisibilityTest, CommittedAfterSnapshotInvisible) {
  Gxid g = dtm_.Begin(owner_);
  LocalXid x = *mgr_.AssignXid(g);
  DistributedSnapshot snap = dtm_.TakeSnapshot();  // g still in progress here
  mgr_.Commit(g);
  dtm_.MarkCommitted(g);
  // Snapshot isolation: the old snapshot keeps treating g as running.
  EXPECT_FALSE(XidCommittedForSnapshot(x, Ctx(&snap)));
  DistributedSnapshot fresh = dtm_.TakeSnapshot();
  EXPECT_TRUE(XidCommittedForSnapshot(x, Ctx(&fresh)));
}

TEST_F(VisibilityTest, AbortedNeverVisible) {
  Gxid g = dtm_.Begin(owner_);
  LocalXid x = *mgr_.AssignXid(g);
  mgr_.Abort(g);
  dtm_.MarkAborted(g);
  DistributedSnapshot snap = dtm_.TakeSnapshot();
  EXPECT_FALSE(XidCommittedForSnapshot(x, Ctx(&snap)));
}

// The Section 5.2 guarantee: a one-phase-commit transaction appears in-progress
// to concurrent snapshots until the coordinator gets "Commit Ok" — modeled by
// the segment committing locally BEFORE the coordinator marks it committed.
TEST_F(VisibilityTest, OnePhaseCommitWindowHidesLocalCommit) {
  Gxid g = dtm_.Begin(owner_);
  LocalXid x = *mgr_.AssignXid(g);
  mgr_.Commit(g);  // segment side done; Commit Ok still "in flight"
  DistributedSnapshot snap = dtm_.TakeSnapshot();
  EXPECT_TRUE(snap.IsRunning(g));
  EXPECT_FALSE(XidCommittedForSnapshot(x, Ctx(&snap)))
      << "locally committed tuple leaked before coordinator acknowledged";
  dtm_.MarkCommitted(g);  // Commit Ok received
  DistributedSnapshot after = dtm_.TakeSnapshot();
  EXPECT_TRUE(XidCommittedForSnapshot(x, Ctx(&after)));
}

TEST_F(VisibilityTest, PreparedTransactionInvisible) {
  Gxid g = dtm_.Begin(owner_);
  LocalXid x = *mgr_.AssignXid(g);
  mgr_.Prepare(g);
  DistributedSnapshot snap = dtm_.TakeSnapshot();
  EXPECT_FALSE(XidCommittedForSnapshot(x, Ctx(&snap)));
}

TEST_F(VisibilityTest, TruncatedMappingFallsBackToLocalRules) {
  Gxid g = dtm_.Begin(owner_);
  LocalXid x = *mgr_.AssignXid(g);
  mgr_.Commit(g);
  dtm_.MarkCommitted(g);
  // Truncate the mapping (as the background horizon maintenance would).
  dlog_.TruncateBelow(g + 1);
  DistributedSnapshot snap = dtm_.TakeSnapshot();
  VisibilityContext c = Ctx(&snap);
  LocalSnapshot lsnap = mgr_.TakeLocalSnapshot();
  c.lsnap = &lsnap;
  EXPECT_TRUE(XidCommittedForSnapshot(x, c));
}

TEST_F(VisibilityTest, TupleVisibleMatrix) {
  // Committed insert, no delete -> visible.
  Gxid g1 = dtm_.Begin(owner_);
  LocalXid ins = *mgr_.AssignXid(g1);
  mgr_.Commit(g1);
  dtm_.MarkCommitted(g1);
  DistributedSnapshot snap = dtm_.TakeSnapshot();
  EXPECT_TRUE(TupleVisible(ins, kInvalidLocalXid, Ctx(&snap)));

  // Deleted by a committed txn -> invisible.
  Gxid g2 = dtm_.Begin(owner_);
  LocalXid del = *mgr_.AssignXid(g2);
  mgr_.Commit(g2);
  dtm_.MarkCommitted(g2);
  DistributedSnapshot snap2 = dtm_.TakeSnapshot();
  EXPECT_FALSE(TupleVisible(ins, del, Ctx(&snap2)));

  // Deleted by an in-progress txn -> still visible to others.
  Gxid g3 = dtm_.Begin(owner_);
  LocalXid del2 = *mgr_.AssignXid(g3);
  DistributedSnapshot snap3 = dtm_.TakeSnapshot();
  EXPECT_TRUE(TupleVisible(ins, del2, Ctx(&snap3)));
  // ... but invisible to the deleter itself.
  EXPECT_FALSE(TupleVisible(ins, del2, Ctx(&snap3, del2)));
  mgr_.Abort(g3);
  dtm_.MarkAborted(g3);

  // Deleted by an aborted txn -> visible again.
  DistributedSnapshot snap4 = dtm_.TakeSnapshot();
  EXPECT_TRUE(TupleVisible(ins, del2, Ctx(&snap4)));
}

TEST_F(VisibilityTest, UncommittedInsertInvisibleToOthersVisibleToSelf) {
  Gxid g = dtm_.Begin(owner_);
  LocalXid x = *mgr_.AssignXid(g);
  DistributedSnapshot snap = dtm_.TakeSnapshot();
  EXPECT_FALSE(TupleVisible(x, kInvalidLocalXid, Ctx(&snap)));
  EXPECT_TRUE(TupleVisible(x, kInvalidLocalXid, Ctx(&snap, x)));
}

// Sequential oracle property: simulate a random interleaving of begin/commit/
// abort and verify visibility equals "committed before my snapshot".
TEST_F(VisibilityTest, RandomizedMatchesOracle) {
  struct TxnRec {
    Gxid g;
    LocalXid x;
    int state = 0;  // 0=running 1=committed 2=aborted
  };
  std::vector<TxnRec> txns;
  uint64_t seed = 12345;
  auto next = [&seed] {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return seed >> 33;
  };
  for (int step = 0; step < 300; ++step) {
    uint64_t r = next() % 3;
    if (r == 0 || txns.empty()) {
      Gxid g = dtm_.Begin(owner_);
      txns.push_back({g, *mgr_.AssignXid(g), 0});
    } else {
      TxnRec& t = txns[next() % txns.size()];
      if (t.state == 0) {
        if (r == 1) {
          mgr_.Commit(t.g);
          dtm_.MarkCommitted(t.g);
          t.state = 1;
        } else {
          mgr_.Abort(t.g);
          dtm_.MarkAborted(t.g);
          t.state = 2;
        }
      }
    }
    // Take a snapshot now and check every txn against the oracle.
    DistributedSnapshot snap = dtm_.TakeSnapshot();
    for (const TxnRec& t : txns) {
      bool expected = t.state == 1;  // committed as of now == committed before snap
      EXPECT_EQ(XidCommittedForSnapshot(t.x, Ctx(&snap)), expected)
          << "gxid=" << t.g << " state=" << t.state;
    }
  }
}

// The stability that lets readers probe the xid tables without a lock:
// while one writer registers, records and commits fresh xids, finishes
// transactions the readers already judged and truncates the xid map, no
// reader's verdict on any xid changes under its one snapshot. Reader r takes its snapshot after
// the writer finished the first r of four groups of pending transactions;
// the writer finishes group r only after that snapshot, while reader r is
// re-checking.
TEST_F(VisibilityTest, ConcurrentWriterNeverChangesASnapshotsVerdict) {
  constexpr int kReaders = 4;
  constexpr int kPerGroup = 24;
  constexpr int kMinRounds = 300;
  struct Fixed {
    Gxid g;
    LocalXid x;
    int group;  // -1: finished before any snapshot
    bool commits;
  };
  std::vector<Fixed> fixed;
  for (int i = 0; i < 2 * kPerGroup; ++i) {
    Gxid g = dtm_.Begin(owner_);
    LocalXid x = *mgr_.AssignXid(g);
    const bool commits = i % 2 == 0;
    if (commits) {
      mgr_.Commit(g);  // local commit before the coordinator's, as the protocol does
      dtm_.MarkCommitted(g);
    } else {
      dtm_.MarkAborted(g);
      mgr_.Abort(g);
    }
    fixed.push_back({g, x, -1, commits});
  }
  for (int group = 0; group < kReaders; ++group) {
    for (int i = 0; i < kPerGroup; ++i) {
      Gxid g = dtm_.Begin(owner_);
      fixed.push_back({g, *mgr_.AssignXid(g), group, i % 3 != 1});
    }
  }

  std::atomic<int> snapped{0};   // readers holding their snapshot
  std::atomic<int> finished{0};  // groups the writer finished
  std::atomic<bool> stop{false};
  std::atomic<int64_t> fresh{0};
  std::thread writer([&] {
    int step = 0;
    while (!stop.load()) {
      Gxid g = dtm_.Begin(owner_);
      EXPECT_TRUE(mgr_.AssignXid(g).ok());
      mgr_.Commit(g);
      dtm_.MarkCommitted(g);
      fresh.fetch_add(1);
      ++step;
      const int group = finished.load();
      if (group < kReaders && snapped.load() > group && step % 8 == 0) {
        for (const Fixed& t : fixed) {
          if (t.group != group) continue;
          if (t.commits) {
            mgr_.Prepare(t.g);
            mgr_.CommitPrepared(t.g);
            dtm_.MarkCommitted(t.g);
          } else {
            dtm_.MarkAborted(t.g);
            mgr_.Abort(t.g);
          }
        }
        finished.store(group + 1);
      }
      // Every reader pinned its snapshot before it counted as snapped.
      if (snapped.load() == kReaders && step % 16 == 0) {
        dlog_.TruncateBelow(dtm_.OldestVisibleGxid());
      }
    }
  });

  std::vector<int64_t> changed(kReaders, 0), wrong(kReaders, 0), rounds(kReaders, 0);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (finished.load() < r) std::this_thread::yield();
      Gxid me = dtm_.Begin(owner_);
      DistributedSnapshot dsnap = dtm_.TakeSnapshot(me);
      LocalSnapshot lsnap = mgr_.TakeLocalSnapshot();
      VisibilityContext ctx = Ctx(&dsnap);
      ctx.lsnap = &lsnap;
      snapped.fetch_add(1);
      std::vector<bool> first;
      for (const Fixed& t : fixed) {
        const bool v = XidCommittedForSnapshot(t.x, ctx);
        first.push_back(v);
        // Finished before this snapshot: its outcome; otherwise running.
        if (v != (t.group < r && t.commits)) ++wrong[static_cast<size_t>(r)];
      }
      int64_t n = 0;
      for (; n < kMinRounds || finished.load() < kReaders; ++n) {
        for (size_t i = 0; i < fixed.size(); ++i) {
          if (XidCommittedForSnapshot(fixed[i].x, ctx) != first[i]) {
            ++changed[static_cast<size_t>(r)];
          }
        }
      }
      rounds[static_cast<size_t>(r)] = n;
      dtm_.MarkCommitted(me);
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true);
  writer.join();

  EXPECT_EQ(finished.load(), kReaders);
  EXPECT_GT(fresh.load(), 0);
  for (int r = 0; r < kReaders; ++r) {
    EXPECT_EQ(changed[static_cast<size_t>(r)], 0) << "reader " << r;
    EXPECT_EQ(wrong[static_cast<size_t>(r)], 0) << "reader " << r;
    EXPECT_GE(rounds[static_cast<size_t>(r)], kMinRounds);
  }
}

}  // namespace
}  // namespace gphtap
