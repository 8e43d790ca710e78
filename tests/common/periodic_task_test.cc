// The periodic task: fixed-delay passes, a stop that never waits out a
// period, wake-now (also mid-pass), parking when idle, and its stats.
#include "common/periodic_task.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.h"

namespace gphtap {
namespace {

constexpr int64_t kLongPeriodUs = 10'000'000;

bool WaitFor(const std::function<bool()>& pred, int64_t timeout_us = 2'000'000) {
  const int64_t deadline = MonotonicMicros() + timeout_us;
  while (!pred()) {
    if (MonotonicMicros() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

TEST(PeriodicTaskTest, PassesRepeatAtThePeriod) {
  constexpr int64_t kPeriodUs = 5'000;
  std::mutex mu;
  std::vector<int64_t> starts;
  Stopwatch elapsed;
  PeriodicTask task("repeat", kPeriodUs, [&](std::stop_token) {
    std::lock_guard<std::mutex> g(mu);
    starts.push_back(MonotonicMicros());
    return true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  task.Stop();
  const int64_t ran_us = elapsed.ElapsedMicros();
  std::lock_guard<std::mutex> g(mu);
  EXPECT_GE(starts.size(), 3u);
  // Fixed delay: each pass after the first starts a full period after the
  // previous one, so the task never runs more often than the period allows.
  EXPECT_LE(static_cast<int64_t>(starts.size()), ran_us / kPeriodUs + 1);
  for (size_t i = 1; i < starts.size(); ++i) {
    EXPECT_GE(starts[i] - starts[i - 1], kPeriodUs) << "pass " << i;
  }
  EXPECT_EQ(task.stats().runs, starts.size());
}

TEST(PeriodicTaskTest, StopDoesNotWaitOutALongPeriod) {
  PeriodicTask task("long", kLongPeriodUs, [](std::stop_token) { return true; });
  ASSERT_TRUE(WaitFor([&] { return task.stats().runs == 1; }));
  Stopwatch stop;
  task.Stop();
  EXPECT_LT(stop.ElapsedMicros(), 500'000);
}

TEST(PeriodicTaskTest, StopWaitsForThePassInFlight) {
  std::atomic<bool> entered{false};
  std::atomic<bool> finished{false};
  PeriodicTask task("slow", kLongPeriodUs, [&](std::stop_token) {
    entered = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    finished = true;
    return true;
  });
  ASSERT_TRUE(WaitFor([&] { return entered.load(); }));
  task.Stop();
  EXPECT_TRUE(finished.load());
  EXPECT_EQ(task.stats().runs, 1u);
}

TEST(PeriodicTaskTest, PassSeesTheStopRequest) {
  std::atomic<bool> entered{false};
  std::atomic<bool> saw_stop{false};
  PeriodicTask task("loop", kLongPeriodUs, [&](std::stop_token stop) {
    entered = true;
    while (!stop.stop_requested()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    saw_stop = true;
    return true;
  });
  ASSERT_TRUE(WaitFor([&] { return entered.load(); }));
  Stopwatch stop;
  task.Stop();
  EXPECT_TRUE(saw_stop.load());
  EXPECT_LT(stop.ElapsedMicros(), 500'000);
}

TEST(PeriodicTaskTest, SecondStopIsHarmless) {
  std::atomic<int> runs{0};
  PeriodicTask task("twice", 1'000, [&](std::stop_token) {
    runs.fetch_add(1);
    return true;
  });
  ASSERT_TRUE(WaitFor([&] { return runs.load() >= 1; }));
  task.Stop();
  const int after_first = runs.load();
  task.Stop();
  EXPECT_EQ(runs.load(), after_first);
  task.WakeNow();  // a wake after the stop runs nothing
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(runs.load(), after_first);
}

TEST(PeriodicTaskTest, WakeNowRunsAPassAtOnce) {
  PeriodicTask task("wake", kLongPeriodUs, [](std::stop_token) { return true; });
  ASSERT_TRUE(WaitFor([&] { return task.stats().runs == 1; }));
  Stopwatch woke;
  task.WakeNow();
  ASSERT_TRUE(WaitFor([&] { return task.stats().runs == 2; }));
  EXPECT_LT(woke.ElapsedMicros(), 500'000);
}

// A wake that lands while a pass runs is not lost: the next pass follows the
// current one without waiting out the period.
TEST(PeriodicTaskTest, WakeDuringAPassIsNotLost) {
  std::mutex mu;
  std::condition_variable cv;
  int pass = 0;
  bool in_second = false;
  bool release = false;
  PeriodicTask task("midpass", kLongPeriodUs, [&](std::stop_token) {
    std::unique_lock<std::mutex> lk(mu);
    if (++pass == 2) {
      in_second = true;
      cv.notify_all();
      cv.wait(lk, [&] { return release; });
    }
    return true;
  });
  ASSERT_TRUE(WaitFor([&] { return task.stats().runs == 1; }));
  task.WakeNow();  // starts pass 2, which blocks until released
  {
    std::unique_lock<std::mutex> lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, std::chrono::seconds(2), [&] { return in_second; }));
  }
  task.WakeNow();  // lands mid-pass
  Stopwatch woke;
  {
    std::lock_guard<std::mutex> g(mu);
    release = true;
  }
  cv.notify_all();
  ASSERT_TRUE(WaitFor([&] { return task.stats().runs == 3; }));
  EXPECT_LT(woke.ElapsedMicros(), 500'000);
}

TEST(PeriodicTaskTest, IdlePassParksUntilWoken) {
  std::atomic<int> runs{0};
  PeriodicTask task("park", 1'000, [&](std::stop_token) {
    runs.fetch_add(1);
    return false;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(runs.load(), 1) << "a pass with no work left must park, not poll";
  task.WakeNow();
  ASSERT_TRUE(WaitFor([&] { return runs.load() == 2; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(runs.load(), 2);
}

TEST(PeriodicTaskTest, StatsCountRunsAndDurations) {
  const int64_t started = MonotonicMicros();
  PeriodicTask task("timed", 1'000, [](std::stop_token) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return true;
  });
  ASSERT_TRUE(WaitFor([&] { return task.stats().runs >= 3; }));
  task.Stop();
  const PeriodicTask::Stats s = task.stats();
  EXPECT_EQ(task.name(), "timed");
  EXPECT_EQ(task.period_us(), 1'000);
  EXPECT_GE(s.runs, 3u);
  EXPECT_EQ(static_cast<uint64_t>(s.durations.count()), s.runs);
  EXPECT_GE(s.last_run_us, 2'000);
  EXPECT_GE(s.durations.min(), 2'000);
  EXPECT_GE(s.durations.Percentile(95), 2'000);
  EXPECT_GE(s.last_start_us, started);
  EXPECT_LE(s.last_start_us + s.last_run_us, MonotonicMicros());
}

}  // namespace
}  // namespace gphtap
