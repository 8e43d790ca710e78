#include "storage/log_tailer.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace gphtap {

LogTailer::LogTailer(const ChangeLog* log, Apply apply)
    : log_(log),
      apply_(std::move(apply)),
      thread_([this](std::stop_token stop) { Run(std::move(stop)); }) {}

void LogTailer::Stop() {
  if (!thread_.joinable()) return;
  thread_.request_stop();  // wakes Await and every WaitForApplied
  thread_.join();
}

void LogTailer::Run(std::stop_token stop) {
  for (uint64_t next = 0; !stop.stop_requested(); ++next) {
    const ChangeRecord* record = log_->Await(next, stop);
    if (record == nullptr) return;  // stopped while waiting
    Status s = apply_(*record, stop);
    bool wake;
    {
      std::lock_guard<std::mutex> g(mu_);
      if (!s.ok() && error_.ok()) error_ = std::move(s);
      applied_.store(next + 1, std::memory_order_release);
      wake = next + 1 >= wake_at_;
      if (wake) wake_at_ = UINT64_MAX;  // the waiters still short of theirs set it again
    }
    if (wake) applied_cv_.notify_all();
  }
}

Status LogTailer::WaitForApplied(uint64_t target, int64_t timeout_us) {
  if (applied() >= target) return Status::OK();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::microseconds(timeout_us);
  std::unique_lock<std::mutex> lk(mu_);
  const bool reached =
      applied_cv_.wait_until(lk, thread_.get_stop_token(), deadline, [&] {
        if (applied() >= target) return true;
        wake_at_ = std::min(wake_at_, target);
        return false;
      });
  lk.unlock();
  if (reached) return Status::OK();
  if (thread_.get_stop_token().stop_requested()) {
    return Status::Unavailable("log tailer stopped at record " + std::to_string(applied()) +
                               " of " + std::to_string(target));
  }
  return Status::TimedOut("log tailer applied " + std::to_string(applied()) + " of " +
                          std::to_string(target) + " records");
}

Status LogTailer::error() const {
  std::lock_guard<std::mutex> g(mu_);
  return error_;
}

}  // namespace gphtap
