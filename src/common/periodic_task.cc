#include "common/periodic_task.h"

#include <chrono>
#include <utility>

#include "common/clock.h"

namespace gphtap {

PeriodicTask::PeriodicTask(std::string name, int64_t period_us, Pass pass)
    : name_(std::move(name)),
      period_us_(period_us),
      pass_(std::move(pass)),
      thread_([this](std::stop_token stop) { Run(std::move(stop)); }) {}

void PeriodicTask::Stop() {
  if (!thread_.joinable()) return;
  thread_.request_stop();  // wakes the wait below through its stop token
  thread_.join();
}

void PeriodicTask::WakeNow() {
  {
    std::lock_guard<std::mutex> g(mu_);
    woken_ = true;
  }
  cv_.notify_all();
}

PeriodicTask::Stats PeriodicTask::stats() const {
  std::lock_guard<std::mutex> g(mu_);
  return stats_;
}

void PeriodicTask::Run(std::stop_token stop) {
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop.stop_requested()) {
    // Cleared before the pass, so a wake that lands during it runs one more.
    woken_ = false;
    lk.unlock();
    const int64_t start = MonotonicMicros();
    const bool more = pass_(stop);
    const int64_t took = MonotonicMicros() - start;
    lk.lock();
    ++stats_.runs;
    stats_.last_start_us = start;
    stats_.last_run_us = took;
    stats_.durations.Record(took);
    // Fixed delay: the period counts from the end of the pass.
    const auto woken = [this] { return woken_; };
    if (more) {
      cv_.wait_for(lk, stop, std::chrono::microseconds(period_us_), woken);
    } else {
      cv_.wait(lk, stop, woken);
    }
  }
}

}  // namespace gphtap
