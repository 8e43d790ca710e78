// The gang runner: tasks never queue, workers park before they signal their
// gang, and a reused worker inherits nothing from its previous task.
#include "common/gang_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <latch>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "stats/statement_record.h"

namespace gphtap {
namespace {

// Long enough that no task in these tests retires its worker, however the
// host schedules it.
constexpr int64_t kNeverRetireUs = 600'000'000;

uint64_t Count(const MetricsRegistry& metrics, const char* name) {
  return metrics.TakeSnapshot().counter(name);
}

// Every task of a 32-wide gang waits for all 32 to arrive. A runner that
// queued tasks behind busy workers would leave the barrier short forever;
// the bounded wait turns that hang into a failure.
TEST(GangRunnerTest, GangOfBarrierWaitersCompletes) {
  MetricsRegistry metrics;
  GangRunner runner(&metrics);
  constexpr int kTasks = 32;
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  std::atomic<int> released{0};
  {
    GangRunner::Gang gang(&runner);
    for (int i = 0; i < kTasks; ++i) {
      gang.Spawn(i, [&] {
        std::unique_lock<std::mutex> lk(mu);
        if (++arrived == kTasks) cv.notify_all();
        const bool all_arrived =
            cv.wait_for(lk, std::chrono::seconds(30), [&] { return arrived == kTasks; });
        if (all_arrived) released.fetch_add(1);
      });
    }
    gang.Join();
  }
  EXPECT_EQ(released.load(), kTasks);
  EXPECT_EQ(Count(metrics, "gang.tasks"), static_cast<uint64_t>(kTasks));
  EXPECT_EQ(Count(metrics, "gang.threads_started"), static_cast<uint64_t>(kTasks));
}

// A worker parks before it signals its gang, so the next gang, spawned right
// after Join, always finds every worker of the previous one parked. Join may
// run a task its worker has not picked up yet; each still runs exactly once.
TEST(GangRunnerTest, BackToBackGangsReuseTheirWorkers) {
  MetricsRegistry metrics;
  GangRunner runner(&metrics, kNeverRetireUs);
  std::atomic<int> ran{0};
  for (int round = 0; round < 1000; ++round) {
    GangRunner::Gang gang(&runner);
    for (int seg = 0; seg < 4; ++seg) gang.Spawn(seg, [&] { ran.fetch_add(1); });
    gang.Join();
  }
  EXPECT_EQ(ran.load(), 4000);
  EXPECT_EQ(Count(metrics, "gang.tasks"), 4000u);
  EXPECT_EQ(Count(metrics, "gang.threads_started"), 4u);
}

TEST(GangRunnerTest, ReusedWorkerSeesNoWaitContextOfItsPreviousTask) {
  MetricsRegistry metrics;
  GangRunner runner(&metrics, kNeverRetireUs);
  StatementRecord record;
  WaitContext seen_first;
  WaitContext seen_second;
  {
    WaitContext caller;
    caller.record = &record;
    caller.group = "olap";
    caller.node = -1;
    WaitContextGuard guard(caller);
    GangRunner::Gang gang(&runner);
    gang.Spawn(2, [&] {
      WaitContext* ctx = CurrentWaitContext();
      ASSERT_NE(ctx, nullptr);
      seen_first = *ctx;
      // Tasks may patch their context in place, as executor slices do.
      ctx->parent_span = 77;
      ctx->group = "leaked";
    });
  }
  std::thread::id second_thread;
  {
    // No context on the spawning thread this time. Wait until the parked
    // worker has run the task, so Join cannot take it back onto this thread.
    std::atomic<bool> ran{false};
    GangRunner::Gang gang(&runner);
    gang.Spawn(3, [&] {
      WaitContext* ctx = CurrentWaitContext();
      ASSERT_NE(ctx, nullptr);
      seen_second = *ctx;
      second_thread = std::this_thread::get_id();
      ran = true;
    });
    while (!ran.load()) std::this_thread::yield();
  }
  ASSERT_EQ(Count(metrics, "gang.threads_started"), 1u) << "the worker was not reused";
  EXPECT_NE(second_thread, std::this_thread::get_id());
  EXPECT_EQ(seen_first.node, 2);
  EXPECT_EQ(seen_first.record, &record);
  EXPECT_EQ(seen_first.group, "olap");
  EXPECT_EQ(seen_second.node, 3);
  EXPECT_EQ(seen_second.record, nullptr);
  EXPECT_EQ(seen_second.group, "");
  EXPECT_EQ(seen_second.parent_span, 0u);
}

TEST(GangRunnerTest, LongTaskRetiresItsWorker) {
  MetricsRegistry metrics;
  GangRunner runner(&metrics, /*retire_after_us=*/1000);
  for (int round = 0; round < 3; ++round) {
    GangRunner::Gang gang(&runner);
    gang.Spawn(0, [] { std::this_thread::sleep_for(std::chrono::milliseconds(5)); });
  }
  EXPECT_EQ(Count(metrics, "gang.threads_started"), 3u);
}

TEST(GangRunnerTest, FanOutRunsTheFirstCallOnTheCaller) {
  MetricsRegistry metrics;
  GangRunner runner(&metrics);
  WaitContext caller;
  caller.node = -1;
  caller.group = "oltp";
  WaitContextGuard guard(caller);
  const WaitContext* installed = CurrentWaitContext();
  const std::vector<int> nodes = {5, 6, 7};
  std::vector<std::thread::id> threads(nodes.size());
  std::vector<int> labels(nodes.size(), -2);
  std::vector<std::string> groups(nodes.size());
  std::latch all_started(3);  // overlapping calls, so no worker runs two
  runner.FanOut(nodes, [&](size_t i) {
    all_started.arrive_and_wait();
    threads[i] = std::this_thread::get_id();
    labels[i] = CurrentWaitContext()->node;
    groups[i] = CurrentWaitContext()->group;
  });
  EXPECT_EQ(threads[0], std::this_thread::get_id());
  EXPECT_EQ(std::set<std::thread::id>(threads.begin(), threads.end()).size(), 3u);
  EXPECT_EQ(labels, nodes);
  EXPECT_EQ(groups, std::vector<std::string>(3, "oltp"));
  EXPECT_EQ(CurrentWaitContext(), installed);
  EXPECT_EQ(CurrentWaitContext()->node, -1);
  EXPECT_EQ(Count(metrics, "gang.tasks"), 2u);
}

TEST(GangRunnerTest, DestroyingARunnerWithParkedWorkersIsPrompt) {
  MetricsRegistry metrics;
  auto runner = std::make_unique<GangRunner>(&metrics, kNeverRetireUs);
  {
    // All eight run at once, so eight workers exist and then park.
    std::latch all_started(8);
    GangRunner::Gang gang(runner.get());
    for (int seg = 0; seg < 8; ++seg) {
      gang.Spawn(seg, [&] { all_started.arrive_and_wait(); });
    }
  }
  Stopwatch sw;
  runner.reset();
  EXPECT_LT(sw.ElapsedMicros(), 500'000);
  EXPECT_EQ(Count(metrics, "gang.threads_started"), 8u);
}

}  // namespace
}  // namespace gphtap
