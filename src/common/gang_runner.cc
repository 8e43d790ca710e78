#include "common/gang_runner.h"

#include <utility>

#include "common/clock.h"

namespace gphtap {

namespace {

// The calling thread's wait context (or an empty one), relabelled with `node`.
WaitContext InheritedWaitContext(int node) {
  WaitContext ctx;
  if (const WaitContext* cur = CurrentWaitContext()) ctx = *cur;
  ctx.node = node;
  return ctx;
}

}  // namespace

GangRunner::GangRunner(MetricsRegistry* metrics, int64_t retire_after_us)
    : retire_after_us_(retire_after_us),
      tasks_(metrics->counter("gang.tasks")),
      threads_started_(metrics->counter("gang.threads_started")) {}

GangRunner::~GangRunner() {
  {
    std::lock_guard<std::mutex> g(mu_);
    stopping_ = true;
  }
  for (auto& w : workers_) {
    w->cv.notify_one();
    if (w->thread.joinable()) w->thread.join();
  }
}

void GangRunner::Gang::Spawn(int node, std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> g(mu_);
    ++pending_;
  }
  Worker* w = runner_->Start(Task{std::move(fn), InheritedWaitContext(node), this});
  if (w != nullptr) handed_.push_back(w);
}

void GangRunner::Gang::Join() {
  for (Worker* w : handed_) runner_->Reclaim(w, this);
  handed_.clear();
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return pending_ == 0; });
}

void GangRunner::Gang::Done() {
  // Under the lock: the joiner may destroy the gang once it reacquires mu_.
  std::lock_guard<std::mutex> g(mu_);
  if (--pending_ == 0) cv_.notify_all();
}

void GangRunner::FanOut(const std::vector<int>& nodes,
                        const std::function<void(size_t)>& fn) {
  if (nodes.empty()) return;
  Gang gang(this);
  for (size_t i = 1; i < nodes.size(); ++i) gang.Spawn(nodes[i], [&fn, i] { fn(i); });
  {
    WaitContextGuard guard(InheritedWaitContext(nodes[0]));
    fn(0);
  }
  gang.Join();
}

GangRunner::Worker* GangRunner::Start(Task task) {
  tasks_->Add(1);
  std::unique_lock<std::mutex> lk(mu_);
  if (!parked_.empty()) {
    Worker* w = parked_.back();
    parked_.pop_back();
    w->task = std::move(task);
    w->has_task = true;
    lk.unlock();
    w->cv.notify_one();
    return w;
  }
  // Nothing parked: start a thread, in a retired worker's slot if one exists,
  // so slots stay bounded by the peak number of running tasks.
  Worker* w = nullptr;
  for (auto& slot : workers_) {
    if (slot->exited && slot->thread.joinable()) w = slot.get();
  }
  if (w == nullptr) w = workers_.emplace_back(std::make_unique<Worker>()).get();
  w->exited = false;
  std::thread retired = std::move(w->thread);
  lk.unlock();
  if (retired.joinable()) retired.join();
  std::thread t([this, w, task = std::move(task)]() mutable { Run(w, std::move(task)); });
  threads_started_->Add(1);
  lk.lock();
  w->thread = std::move(t);
  return nullptr;
}

void GangRunner::Reclaim(Worker* w, Gang* gang) {
  Task task;
  {
    std::lock_guard<std::mutex> g(mu_);
    if (!w->has_task || w->task.gang != gang) return;
    task = std::move(w->task);
    w->has_task = false;
    parked_.push_back(w);  // its wake-up finds no task and it waits again
  }
  {
    WaitContextGuard guard(std::move(task.wait));
    task.fn();
  }
  task = Task();
  gang->Done();
}

void GangRunner::Run(Worker* self, Task task) {
  for (;;) {
    const int64_t start_us = MonotonicMicros();
    {
      WaitContextGuard guard(std::move(task.wait));
      task.fn();
    }
    const bool retire = MonotonicMicros() - start_us > retire_after_us_;
    Gang* gang = task.gang;
    task = Task();  // drop the task's captures before its gang can return

    std::unique_lock<std::mutex> lk(mu_);
    // Park before signalling, so a statement issued right after Join reuses
    // this worker instead of starting a thread.
    const bool park = !retire && !stopping_;
    if (park) parked_.push_back(self);
    lk.unlock();
    gang->Done();
    lk.lock();
    if (!park) {
      self->exited = true;
      return;
    }
    self->cv.wait(lk, [&] { return self->has_task || stopping_; });
    if (!self->has_task) return;  // the runner is stopping
    task = std::move(self->task);
    self->has_task = false;
  }
}

}  // namespace gphtap
