#include "gdd/gdd_daemon.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>

#include "common/periodic_task.h"

namespace gphtap {
namespace {

WaitEdge Solid(uint64_t w, uint64_t h) { return WaitEdge{w, h, false}; }

// The cluster runs detection rounds on a PeriodicTask; the background cases
// below do the same.
PeriodicTask::Pass Rounds(GddDaemon* d) {
  return [d](std::stop_token) {
    d->RunOnce();
    return true;
  };
}

struct FakeCluster {
  std::mutex mu;
  std::vector<LocalWaitGraph> graphs;
  std::set<uint64_t> running;
  std::vector<uint64_t> killed;

  GddDaemon::Hooks MakeHooks() {
    GddDaemon::Hooks hooks;
    hooks.collect = [this] {
      std::lock_guard<std::mutex> g(mu);
      return graphs;
    };
    hooks.txn_running = [this](uint64_t gxid) {
      std::lock_guard<std::mutex> g(mu);
      return running.count(gxid) > 0;
    };
    hooks.kill = [this](uint64_t gxid, Status) {
      std::lock_guard<std::mutex> g(mu);
      killed.push_back(gxid);
      running.erase(gxid);
      // Killing the victim dissolves the cycle.
      for (auto& lg : graphs) {
        auto& es = lg.edges;
        es.erase(std::remove_if(es.begin(), es.end(),
                                [&](const WaitEdge& e) {
                                  return e.waiter == gxid || e.holder == gxid;
                                }),
                 es.end());
      }
    };
    return hooks;
  }
};

TEST(GddDaemonTest, NoDeadlockNoKill) {
  FakeCluster fc;
  fc.graphs = {{0, {Solid(1, 2)}}};
  fc.running = {1, 2};
  GddDaemon d(fc.MakeHooks());
  auto r = d.RunOnce();
  EXPECT_FALSE(r.deadlock);
  EXPECT_TRUE(fc.killed.empty());
  EXPECT_EQ(d.stats().runs, 1u);
}

TEST(GddDaemonTest, DeadlockKillsYoungest) {
  FakeCluster fc;
  fc.graphs = {{0, {Solid(2, 1)}}, {1, {Solid(1, 2)}}};
  fc.running = {1, 2};
  GddDaemon d(fc.MakeHooks());
  auto r = d.RunOnce();
  EXPECT_TRUE(r.deadlock);
  ASSERT_EQ(fc.killed.size(), 1u);
  EXPECT_EQ(fc.killed[0], 2u);
  EXPECT_EQ(d.stats().victims_killed, 1u);
}

TEST(GddDaemonTest, StaleDetectionDiscardedWhenTxnFinished) {
  FakeCluster fc;
  fc.graphs = {{0, {Solid(2, 1)}}, {1, {Solid(1, 2)}}};
  fc.running = {1};  // txn 2 already finished: the graph is stale
  GddDaemon d(fc.MakeHooks());
  d.RunOnce();
  EXPECT_TRUE(fc.killed.empty());
  EXPECT_EQ(d.stats().stale_discards, 1u);
  EXPECT_EQ(d.stats().victims_killed, 0u);
}

TEST(GddDaemonTest, SecondCollectionClearsFalsePositive) {
  // First collect shows a cycle, but by the validation pass the edges are gone.
  FakeCluster fc;
  fc.graphs = {{0, {Solid(2, 1)}}, {1, {Solid(1, 2)}}};
  fc.running = {1, 2};
  GddDaemon::Hooks hooks = fc.MakeHooks();
  std::atomic<int> collects{0};
  auto inner = hooks.collect;
  hooks.collect = [&, inner] {
    if (collects.fetch_add(1) >= 1) {
      return std::vector<LocalWaitGraph>{};  // cycle vanished
    }
    return inner();
  };
  GddDaemon d(hooks);
  auto r = d.RunOnce();
  EXPECT_FALSE(r.deadlock);
  EXPECT_TRUE(fc.killed.empty());
  EXPECT_EQ(d.stats().stale_discards, 1u);
}

TEST(GddDaemonTest, BackgroundThreadRunsPeriodically) {
  FakeCluster fc;
  fc.running = {};
  GddDaemon d(fc.MakeHooks());
  PeriodicTask task("gdd", 5'000, Rounds(&d));  // 5ms period
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  task.Stop();
  EXPECT_GE(d.stats().runs, 3u);
}

TEST(GddDaemonTest, BackgroundThreadBreaksLiveDeadlock) {
  FakeCluster fc;
  fc.graphs = {{0, {Solid(2, 1)}}, {1, {Solid(1, 2)}}};
  fc.running = {1, 2};
  GddDaemon d(fc.MakeHooks());
  PeriodicTask task("gdd", 2'000, Rounds(&d));
  // Wait until the daemon notices and kills.
  for (int i = 0; i < 200; ++i) {
    {
      std::lock_guard<std::mutex> g(fc.mu);
      if (!fc.killed.empty()) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  task.Stop();
  ASSERT_EQ(fc.killed.size(), 1u);
  EXPECT_EQ(fc.killed[0], 2u);
  // After the kill the remaining graph has no cycle; further runs are quiet.
  auto r = d.RunOnce();
  EXPECT_FALSE(r.deadlock);
}

TEST(GddDaemonTest, BackgroundStopIdempotent) {
  FakeCluster fc;
  GddDaemon d(fc.MakeHooks());
  PeriodicTask task("gdd", 5'000, Rounds(&d));
  task.Stop();
  task.Stop();
  SUCCEED();
}

}  // namespace
}  // namespace gphtap
